package wal

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The property under test: any interleaving of append / rotate /
// snapshot / reopen converges, after recovery, to exactly the state a
// trivial in-memory model predicts — and recovery itself is a pure
// function of the directory, so running the same operation script twice
// yields byte-identical recovered record sequences.
//
// The model is last-write-wins per key, the same way the serve layer's
// decision LRU absorbs the replay stream, plus the record appended last,
// which recovery must report as Last across any snapshot.

const propertyCases = 200

type walOp struct {
	kind string // "append", "rotate", "snapshot", "reopen"
	rec  Record
}

// genScript derives a deterministic operation script from a seed.
func genScript(rng *rand.Rand) []walOp {
	n := 10 + rng.Intn(40)
	ops := make([]walOp, 0, n)
	regimes := []float64{2000, 7000, 10600, 12300, 28000}
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 6:
			key := rng.Intn(12) // small keyspace so snapshots supersede
			ops = append(ops, walOp{kind: "append", rec: mkRecord(key, regimes[rng.Intn(len(regimes))])})
		case r < 7:
			ops = append(ops, walOp{kind: "rotate"})
		case r < 8:
			ops = append(ops, walOp{kind: "snapshot"})
		default:
			ops = append(ops, walOp{kind: "reopen"})
		}
	}
	return ops
}

// runScript executes the script in dir and returns the final recovered
// record sequence (after one last reopen) plus the model's live state.
func runScript(t *testing.T, dir string, ops []walOp) ([]Record, map[string]Record) {
	t.Helper()
	model := make(map[string]Record)
	var last Record
	// Small segments so rotation paths get exercised by appends too.
	opts := Options{Dir: dir, SegmentBytes: 256, Fsync: FsyncNever}
	l := mustOpen(t, opts)
	for _, op := range ops {
		switch op.kind {
		case "append":
			mustAppend(t, l, op.rec)
			model[op.rec.Key] = op.rec
			last = op.rec
		case "rotate":
			if err := l.Rotate(); err != nil {
				t.Fatalf("Rotate: %v", err)
			}
		case "snapshot":
			// Snapshot what a cache would hold: the model's live set.
			live := make([]Record, 0, len(model))
			for _, rec := range model {
				live = append(live, rec)
			}
			if err := l.Snapshot(live); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
		case "reopen":
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			l = mustOpen(t, opts)
			// Reopen must already agree with the model.
			replay := applyModel(l.Recovery().Records)
			if !reflect.DeepEqual(replay, model) {
				t.Fatalf("mid-script reopen diverged from model:\n got %+v\nwant %+v", replay, model)
			}
			if got := l.Recovery().Last; got != last {
				t.Fatalf("mid-script reopen: Last = %+v, want the last append %+v", got, last)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("final Close: %v", err)
	}
	final := mustOpen(t, opts)
	defer func() { _ = final.Close() }()
	if got := final.Recovery().Last; got != last {
		t.Fatalf("final reopen: Last = %+v, want the last append %+v", got, last)
	}
	recovered := append([]Record(nil), final.Recovery().Records...)
	return recovered, model
}

// applyModel folds a replay stream into last-write-wins state.
func applyModel(records []Record) map[string]Record {
	m := make(map[string]Record, len(records))
	for _, rec := range records {
		m[rec.Key] = rec
	}
	return m
}

func TestPropertyInterleavingsConverge(t *testing.T) {
	for seed := int64(0); seed < propertyCases; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			ops := genScript(rand.New(rand.NewSource(seed)))

			recA, model := runScript(t, t.TempDir(), ops)
			if got := applyModel(recA); !reflect.DeepEqual(got, model) {
				t.Fatalf("recovered state diverged from model:\n got %+v\nwant %+v", got, model)
			}

			// Same script, fresh directory: the recovered record sequence
			// must be identical record-for-record, not merely equivalent —
			// snapshot sorting and replay ordering are deterministic.
			recB, _ := runScript(t, t.TempDir(), ops)
			if !reflect.DeepEqual(recA, recB) {
				t.Fatalf("same script recovered different sequences:\nA %+v\nB %+v", recA, recB)
			}
		})
	}
}
