package obs

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderRingWrapPreservesPins(t *testing.T) {
	r := NewRecorder(8)
	// Fill a few ordinary captures, then one anomaly, then wrap the ring
	// several times over. The pinned group must still hold the anomaly
	// and its preceding context verbatim.
	for i := 0; i < 5; i++ {
		r.Record(Capture{Route: "/v1/license", Status: 200, TraceID: fmt.Sprintf("ok-%d", i)})
	}
	r.Record(Capture{Route: "/v1/license", Status: 503, TraceID: "boom", Anomalies: []string{"5xx"}})
	for i := 0; i < 40; i++ {
		r.Record(Capture{Route: "/v1/license", Status: 200, TraceID: fmt.Sprintf("late-%d", i)})
	}

	caps, pins := r.Snapshot()
	if len(caps) != 8 {
		t.Fatalf("ring holds %d captures, want 8", len(caps))
	}
	for _, c := range caps {
		if c.TraceID == "boom" {
			t.Fatalf("anomaly capture still in the live ring after 40 wraps — wrap is broken")
		}
	}
	if len(pins) != 1 {
		t.Fatalf("got %d pin groups, want 1", len(pins))
	}
	g := pins[0]
	if g.Trigger != "request:5xx" {
		t.Errorf("pin trigger = %q, want request:5xx", g.Trigger)
	}
	if len(g.Captures) != pinContext+1 {
		t.Fatalf("pin group holds %d captures, want %d", len(g.Captures), pinContext+1)
	}
	last := g.Captures[len(g.Captures)-1]
	if last.TraceID != "boom" || last.Status != 503 {
		t.Errorf("pinned anomaly = %+v, want the 503 boom capture last", last)
	}
	for _, c := range g.Captures[:len(g.Captures)-1] {
		if c.Status != 200 {
			t.Errorf("pinned context capture %+v is not one of the preceding OK requests", c)
		}
	}
}

func TestRecorderSnapshotNewestFirst(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 6; i++ {
		r.Record(Capture{Status: i})
	}
	caps, _ := r.Snapshot()
	if len(caps) != 4 {
		t.Fatalf("got %d captures, want 4", len(caps))
	}
	for i, want := range []uint64{6, 5, 4, 3} {
		if caps[i].Seq != want {
			t.Errorf("caps[%d].Seq = %d, want %d", i, caps[i].Seq, want)
		}
	}
}

func TestRecorderPinBoundAndSyntheticPin(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < defaultMaxPins+10; i++ {
		r.Record(Capture{Status: 500, Anomalies: []string{"5xx"}})
	}
	r.Pin("slo:/v1/license:availability:ok->page")
	_, pins := r.Snapshot()
	if len(pins) != defaultMaxPins {
		t.Fatalf("got %d pin groups, want the FIFO bound %d", len(pins), defaultMaxPins)
	}
	last := pins[len(pins)-1]
	if last.Trigger != "slo:/v1/license:availability:ok->page" {
		t.Errorf("newest pin trigger = %q, want the synthetic SLO pin", last.Trigger)
	}
	// Seq strictly increases across the retained window.
	for i := 1; i < len(pins); i++ {
		if pins[i].Seq <= pins[i-1].Seq {
			t.Fatalf("pin seq not increasing: %d then %d", pins[i-1].Seq, pins[i].Seq)
		}
	}
}

func TestRecorderConcurrent(t *testing.T) {
	// Hammer the recorder from many goroutines, anomalies included, and
	// read snapshots concurrently; meaningful under -race.
	r := NewRecorder(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := Capture{Route: "/v1/license", Status: 200}
				if i%17 == 0 {
					c.Status = 503
					c.Anomalies = []string{"5xx"}
				}
				r.Record(c)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				caps, pins := r.Snapshot()
				_ = caps
				_ = pins
				r.Pin("probe")
			}
		}()
	}
	wg.Wait()
	caps, pins := r.Snapshot()
	if len(caps) != 16 {
		t.Fatalf("ring holds %d captures, want 16", len(caps))
	}
	if len(pins) != defaultMaxPins {
		t.Fatalf("got %d pins, want the bound %d", len(pins), defaultMaxPins)
	}
	// Seq numbers in the live ring are unique and descending.
	for i := 1; i < len(caps); i++ {
		if caps[i].Seq >= caps[i-1].Seq {
			t.Fatalf("snapshot not newest-first: seq %d then %d", caps[i-1].Seq, caps[i].Seq)
		}
	}
}

func TestRecordNilSafe(t *testing.T) {
	var rec *Record
	rec.SetKey([]byte("k"))
	rec.SetWAL("committed")
	rec.SetBreaker("open")
	rec.AddAnomaly("regime-transition")
	rec.Seal(200, 1, "", "", false, nil)
	if got := RecordFrom(context.Background()); got != nil {
		t.Errorf("RecordFrom(empty ctx) = %v, want nil", got)
	}
}

// TestOpenKeepsMethodBounded: the capture keeps a method as a constant
// or a short copy, never the request line a server's method is cut from.
func TestOpenKeepsMethodBounded(t *testing.T) {
	r := NewRecorder(4)
	line := "GET /v1/license?ctp=500 HTTP/1.1"
	for _, tc := range []struct{ method, want string }{
		{line[:3], "GET"},
		{"PUT", "PUT"},
		{"OPTIONS", "OPTIONS"},
		{strings.Repeat("X", 4096), "other"},
	} {
		_, rec := r.Open(context.Background(), scriptClock(), time.Time{}, tc.method, "/v1/license", "")
		rec.Seal(405, 1, "", "", false, nil)
		caps, _ := r.Snapshot()
		if got := caps[0].Method; got != tc.want {
			t.Errorf("method %.10q recorded as %.10q, want %q", tc.method, got, tc.want)
		}
	}
}

func TestRecordAnnotatesAndCopiesKey(t *testing.T) {
	r := NewRecorder(4)
	start := time.Unix(800000000, 0)
	ctx, rec := r.Open(context.Background(), scriptClock(), start, "GET", "/v1/license", "t-1")
	got := RecordFrom(ctx)
	if got != rec {
		t.Fatalf("ctx round-trip lost the record")
	}
	key := []byte("alpha")
	got.SetKey(key)
	key[0] = 'X'                 // the capture must have copied, not aliased
	got.SetKey([]byte("second")) // first key wins
	got.SetWAL("committed")
	got.AddAnomaly("regime-transition")
	got.Seal(200, 1234, "miss", "poison", true, []string{"degraded"})
	got.SetBreaker("late") // after the seal: not recorded
	caps, pins := r.Snapshot()
	want := Capture{
		Seq: 1, TraceID: "t-1", Method: "GET", Route: "/v1/license", Key: "alpha",
		StartNs: start.UnixNano(), Status: 200, LatencyNs: 1234, Cache: "miss",
		Fault: "poison", Degraded: true, WAL: "committed",
		Anomalies: []string{"regime-transition", "degraded"},
	}
	if len(caps) != 1 || !reflect.DeepEqual(caps[0], want) {
		t.Errorf("sealed capture = %+v, want %+v", caps, want)
	}
	if len(pins) != 1 || pins[0].Trigger != "request:regime-transition" {
		t.Errorf("pins = %+v, want one pinned by the first anomaly", pins)
	}
}
