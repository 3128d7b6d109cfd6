package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// mkRecord builds a deterministic decision record for tests.
func mkRecord(i int, regime float64) Record {
	return Record{
		Kind:   KindDecision,
		Key:    fmt.Sprintf("sys-%03d\x1f1.5\x1fUS\x1fcivil\x1f%g", i, regime),
		Regime: regime,
		Hash:   uint64(i)*0x9e3779b97f4a7c15 + 1,
	}
}

// frameLen is the encoded frame size of rec.
func frameLen(t *testing.T, rec Record) int64 {
	t.Helper()
	b, err := appendRecord(nil, rec)
	if err != nil {
		t.Fatalf("appendRecord: %v", err)
	}
	return int64(len(b))
}

func mustOpen(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", opts.Dir, err)
	}
	return l
}

func mustAppend(t *testing.T, l *Log, recs ...Record) {
	t.Helper()
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	cases := []struct {
		in      string
		want    FsyncPolicy
		wantErr bool
	}{
		{in: "", want: FsyncAlways},
		{in: "always", want: FsyncAlways},
		{in: "never", want: FsyncNever},
		{in: "every=1", want: FsyncPolicy{Every: 1}},
		{in: "every=64", want: FsyncPolicy{Every: 64}},
		{in: "every=0", wantErr: true},
		{in: "every=-3", wantErr: true},
		{in: "every=x", wantErr: true},
		{in: "sometimes", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseFsyncPolicy(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseFsyncPolicy(%q): want error, got %v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseFsyncPolicy(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, want %v", tc.in, got, tc.want)
		}
		if back, err := ParseFsyncPolicy(got.String()); err != nil || back != got {
			t.Errorf("round-trip %q -> %q failed: %v %v", tc.in, got.String(), back, err)
		}
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Dir: want error")
	}
	if _, err := Open(Options{Dir: t.TempDir(), SegmentBytes: 4}); err == nil {
		t.Fatal("Open with tiny SegmentBytes: want error")
	}
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	want := []Record{mkRecord(1, 2000), mkRecord(2, 2000), mkRecord(3, 7000)}
	mustAppend(t, l, want...)
	if got := l.Stats().Appends; got != 3 {
		t.Fatalf("Appends = %d, want 3", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	defer func() { _ = l2.Close() }()
	rec := l2.Recovery()
	if !reflect.DeepEqual(rec.Records, want) {
		t.Fatalf("recovered %+v, want %+v", rec.Records, want)
	}
	if rec.TornRecords != 0 || rec.CorruptRecords != 0 || rec.DroppedSnapshots != 0 {
		t.Fatalf("clean log reported damage: %+v", rec)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Append(mkRecord(1, 2000)); err == nil {
		t.Fatal("Append on closed log: want error")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close should be a no-op, got %v", err)
	}
}

func TestRotationBySize(t *testing.T) {
	dir := t.TempDir()
	// A segment barely larger than one frame forces a rotation per append.
	one := frameLen(t, mkRecord(1, 2000))
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: segmentHeaderBytes + one})
	want := make([]Record, 0, 6)
	for i := 1; i <= 6; i++ {
		r := mkRecord(i, 2000)
		mustAppend(t, l, r)
		want = append(want, r)
	}
	if got := l.Stats().Rotations; got < 5 {
		t.Fatalf("Rotations = %d, want >= 5", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: segmentHeaderBytes + one})
	defer func() { _ = l2.Close() }()
	rec := l2.Recovery()
	if !reflect.DeepEqual(rec.Records, want) {
		t.Fatalf("recovered %d records across segments, want %d: %+v", len(rec.Records), len(want), rec)
	}
	if rec.Segments < 6 {
		t.Fatalf("Segments = %d, want >= 6", rec.Segments)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	mustAppend(t, l, mkRecord(1, 2000), mkRecord(2, 2000), mkRecord(3, 2000))

	// Live set as a cache would report it: record 2 superseded by a newer
	// decision under a later regime.
	live := []Record{mkRecord(3, 2000), mkRecord(1, 2000), mkRecord(2, 7000)}
	if err := l.Snapshot(live); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	tail := mkRecord(4, 7000)
	mustAppend(t, l, tail)
	if got := l.Stats().Compactions; got != 1 {
		t.Fatalf("Compactions = %d, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Compaction must have removed the pre-snapshot segment.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs, snaps int
	for _, e := range entries {
		if _, ok := parseSeq(e.Name(), segmentPrefix, segmentSuffix); ok {
			segs++
		}
		if _, ok := parseSeq(e.Name(), snapshotPrefix, snapshotSuffix); ok {
			snaps++
		}
	}
	if segs != 1 || snaps != 1 {
		t.Fatalf("after compaction: %d segments, %d snapshots; want 1 and 1", segs, snaps)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	defer func() { _ = l2.Close() }()
	rec := l2.Recovery()
	// Snapshot records come back sorted by key, then the tail in append
	// order.
	wantSnap := []Record{mkRecord(1, 2000), mkRecord(2, 7000), mkRecord(3, 2000)}
	want := append(append([]Record(nil), wantSnap...), tail)
	if !reflect.DeepEqual(rec.Records, want) {
		t.Fatalf("recovered %+v, want %+v", rec.Records, want)
	}
	if rec.SnapshotRecords != 3 || rec.SnapshotSeq == 0 {
		t.Fatalf("snapshot accounting wrong: %+v", rec)
	}
}

func TestCrashTornTailSkipsExactlyTheTear(t *testing.T) {
	dir := t.TempDir()
	env := &crashEnv{}
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncNever, opener: env.open})
	recs := make([]Record, 5)
	for i := range recs {
		recs[i] = mkRecord(i+1, 2000)
		mustAppend(t, l, recs[i])
	}
	// Nothing after the segment header was synced. Keep three full frames
	// plus 7 bytes of the fourth: a torn write mid-record.
	var keep int64
	for i := 0; i < 3; i++ {
		keep += frameLen(t, recs[i])
	}
	if err := env.Crash(crashOpts{keepUnsynced: keep + 7, flipAt: -1}); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	rec := l2.Recovery()
	if !reflect.DeepEqual(rec.Records, recs[:3]) {
		t.Fatalf("recovered %+v, want first three records", rec.Records)
	}
	if rec.TornRecords != 1 || rec.CorruptRecords != 0 {
		t.Fatalf("damage tally = torn %d corrupt %d, want 1 and 0", rec.TornRecords, rec.CorruptRecords)
	}

	// The reopened log appends where the tear was truncated.
	next := mkRecord(9, 2000)
	mustAppend(t, l2, next)
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l3 := mustOpen(t, Options{Dir: dir})
	defer func() { _ = l3.Close() }()
	want := append(append([]Record(nil), recs[:3]...), next)
	if got := l3.Recovery().Records; !reflect.DeepEqual(got, want) {
		t.Fatalf("after repair-and-append recovered %+v, want %+v", got, want)
	}
}

func TestCrashBitFlipIsCountedNeverPanics(t *testing.T) {
	dir := t.TempDir()
	env := &crashEnv{}
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways, opener: env.open})
	recs := []Record{mkRecord(1, 2000), mkRecord(2, 2000), mkRecord(3, 2000)}
	mustAppend(t, l, recs...)
	// Flip a payload bit inside the second record. Everything was synced,
	// so this models media corruption, not a lost write.
	flip := segmentHeaderBytes + frameLen(t, recs[0]) + frameHeaderBytes + 3
	if err := env.Crash(crashOpts{flipAt: flip}); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	defer func() { _ = l2.Close() }()
	rec := l2.Recovery()
	if !reflect.DeepEqual(rec.Records, recs[:1]) {
		t.Fatalf("recovered %+v, want just the first record", rec.Records)
	}
	if rec.CorruptRecords == 0 {
		t.Fatalf("bit flip not counted as corruption: %+v", rec)
	}
}

func TestCrashDroppedFsyncLosesOnlyUnsyncedBytes(t *testing.T) {
	dir := t.TempDir()
	env := &crashEnv{dropFsync: true}
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways, opener: env.open})
	mustAppend(t, l, mkRecord(1, 2000), mkRecord(2, 2000))
	// Every Sync lied, so a crash preserves nothing — not even the
	// segment header.
	if err := env.Crash(crashOpts{flipAt: -1}); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	rec := l2.Recovery()
	if len(rec.Records) != 0 {
		t.Fatalf("recovered %+v from a log whose fsyncs were dropped, want none", rec.Records)
	}
	if rec.CorruptRecords == 0 {
		t.Fatalf("headerless segment not counted: %+v", rec)
	}
	// The damaged segment is abandoned, not reused: new appends land in a
	// fresh segment and survive a clean close.
	next := mkRecord(7, 2000)
	mustAppend(t, l2, next)
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l3 := mustOpen(t, Options{Dir: dir})
	defer func() { _ = l3.Close() }()
	if got := l3.Recovery().Records; !reflect.DeepEqual(got, []Record{next}) {
		t.Fatalf("recovered %+v, want %+v", got, []Record{next})
	}
}

func TestCrashNeverLosesDurablyAckedRecords(t *testing.T) {
	// Under FsyncAlways every Append return is a durability ack. A crash
	// that loses all unsynced bytes must still recover every acked record.
	dir := t.TempDir()
	env := &crashEnv{}
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways, opener: env.open})
	recs := make([]Record, 20)
	for i := range recs {
		recs[i] = mkRecord(i+1, 2000+float64(i%3)*1000)
		mustAppend(t, l, recs[i])
	}
	if err := env.Crash(crashOpts{flipAt: -1}); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	defer func() { _ = l2.Close() }()
	rec := l2.Recovery()
	if !reflect.DeepEqual(rec.Records, recs) {
		t.Fatalf("durably-acked records lost: recovered %d of %d", len(rec.Records), len(recs))
	}
	if rec.TornRecords != 0 || rec.CorruptRecords != 0 {
		t.Fatalf("clean fsync-always crash reported damage: %+v", rec)
	}
}

func TestDamagedSnapshotFallsBackToSegments(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	mustAppend(t, l, mkRecord(1, 2000), mkRecord(2, 2000))
	if err := l.Snapshot([]Record{mkRecord(1, 2000), mkRecord(2, 2000)}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	tail := mkRecord(3, 2000)
	mustAppend(t, l, tail)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Corrupt the snapshot body. Recovery must reject it whole, count it,
	// and still replay the post-snapshot tail — degraded to a colder
	// cache, never to a panic or a wrong record.
	snapPath := filepath.Join(dir, snapshotName(l.Stats().Segment))
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	data[snapshotHeaderBytes+frameHeaderBytes+2] ^= 0xff
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	defer func() { _ = l2.Close() }()
	rec := l2.Recovery()
	if rec.DroppedSnapshots != 1 {
		t.Fatalf("DroppedSnapshots = %d, want 1", rec.DroppedSnapshots)
	}
	if !reflect.DeepEqual(rec.Records, []Record{tail}) {
		t.Fatalf("recovered %+v, want just the tail", rec.Records)
	}
}

// snapshotMagicIn reads the magic of the snapshot file with sequence seq.
func snapshotMagicIn(t *testing.T, dir string, seq uint64) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, snapshotName(seq)))
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	return string(data[:len(snapshotMagicV2)])
}

// TestSnapshotCarriesLastAppended: a snapshot carries the decision record
// appended last before it, which is neither the newest of its sorted
// records nor necessarily one of them, and recovery reports it as Last
// whether the tail is empty or holds a newer decision.
func TestSnapshotCarriesLastAppended(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	last := mkRecord(1, 7000)
	mustAppend(t, l, mkRecord(9, 2000), last)
	if err := l.Snapshot([]Record{mkRecord(9, 2000), mkRecord(2, 2000)}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	seq := l.Stats().Segment
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := snapshotMagicIn(t, dir, seq); got != snapshotMagicV2 {
		t.Fatalf("snapshot magic = %q, want %q", got, snapshotMagicV2)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	rec := l2.Recovery()
	want := []Record{mkRecord(2, 2000), mkRecord(9, 2000)}
	if !reflect.DeepEqual(rec.Records, want) {
		t.Fatalf("recovered %+v, want the sorted set %+v alone", rec.Records, want)
	}
	if rec.Last != last {
		t.Fatalf("Last = %+v over an empty tail, want the snapshot's %+v", rec.Last, last)
	}
	tail := mkRecord(3, 10600)
	mustAppend(t, l2, tail)
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l3 := mustOpen(t, Options{Dir: dir})
	defer func() { _ = l3.Close() }()
	if got := l3.Recovery().Last; got != tail {
		t.Fatalf("Last = %+v, want the tail's newest decision %+v", got, tail)
	}
}

// TestRecoveryReleasedAtFirstSnapshot: the recovered records stay intact
// after Open and after appends, and the first compaction drops them (and
// Last) while every tally stays. A caller still holding the value read
// before the compaction keeps the records it read.
func TestRecoveryReleasedAtFirstSnapshot(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	mustAppend(t, l, mkRecord(1, 2000), mkRecord(2, 2000))
	if err := l.Snapshot([]Record{mkRecord(1, 2000), mkRecord(2, 2000)}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	mustAppend(t, l, mkRecord(3, 7000))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	defer func() { _ = l2.Close() }()
	opened := l2.Recovery()
	want := []Record{mkRecord(1, 2000), mkRecord(2, 2000), mkRecord(3, 7000)}
	if !reflect.DeepEqual(opened.Records, want) || opened.Last != mkRecord(3, 7000) {
		t.Fatalf("after Open: %+v, want records %+v and the tail's Last", opened, want)
	}
	tallies := *opened
	tallies.Records, tallies.Last = nil, Record{}

	mustAppend(t, l2, mkRecord(4, 7000))
	if got := l2.Recovery(); !reflect.DeepEqual(got.Records, want) {
		t.Fatalf("after an append: records %+v, want %+v", got.Records, want)
	}
	if err := l2.Snapshot([]Record{mkRecord(4, 7000), mkRecord(3, 7000)}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	got := l2.Recovery()
	if got.Records != nil || got.Last != (Record{}) {
		t.Fatalf("after the first Snapshot: records %+v, Last %+v, want both released", got.Records, got.Last)
	}
	if !reflect.DeepEqual(*got, tallies) {
		t.Fatalf("tallies moved: %+v, want %+v", *got, tallies)
	}
	if !reflect.DeepEqual(opened.Records, want) {
		t.Fatalf("the value read before the compaction changed: %+v", opened.Records)
	}
	if err := l2.Snapshot(nil); err != nil {
		t.Fatalf("second Snapshot: %v", err)
	}
	if again := l2.Recovery(); !reflect.DeepEqual(*again, tallies) {
		t.Fatalf("after the second Snapshot: %+v, want %+v", *again, tallies)
	}
}
