package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptClock returns a clock that advances one millisecond per read; it
// is safe for concurrent use (pool workers read it in parallel).
func scriptClock() func() time.Time {
	t0 := time.Unix(800000000, 0)
	var n atomic.Int64
	return func() time.Time {
		return t0.Add(time.Duration(n.Add(1)) * time.Millisecond)
	}
}

// openAt opens a record on r timed by clock, as the middleware does.
func openAt(r *Recorder, clock func() time.Time, traceID string) (context.Context, *Record, time.Time) {
	start := clock()
	ctx, rec := r.Open(context.Background(), clock, start, "GET", "/v1/license", traceID)
	return ctx, rec, start
}

func TestTraceNestingAndOrder(t *testing.T) {
	clock := scriptClock()
	r := NewRecorder(4)
	ctx, rec, start := openAt(r, clock, "req-1")
	cctx, child := StartSpan(ctx, "cache.lookup")
	child.SetAttr("result", "miss")
	_, grand := StartSpan(cctx, "compute")
	grand.End()
	child.End()
	rec.Seal(200, uint64(clock().Sub(start)), "miss", "", false, nil)

	got := r.Traces()
	if len(got) != 1 {
		t.Fatalf("Traces() = %d traces, want 1", len(got))
	}
	trace := got[0]
	if trace.TraceID != "req-1" || len(trace.Spans) != 3 {
		t.Fatalf("trace = %+v", trace)
	}
	// Spans ordered by ID = creation order: root, child, grandchild.
	if trace.Spans[0].Name != "GET /v1/license" || trace.Spans[0].ID != 1 || trace.Spans[0].Parent != 0 {
		t.Errorf("root span = %+v", trace.Spans[0])
	}
	if trace.Spans[1].Name != "cache.lookup" || trace.Spans[1].Parent != 1 {
		t.Errorf("child span = %+v", trace.Spans[1])
	}
	if trace.Spans[2].Name != "compute" || trace.Spans[2].Parent != trace.Spans[1].ID {
		t.Errorf("grandchild span = %+v", trace.Spans[2])
	}
	// The scripted clock makes every span's duration positive, and the
	// root encloses the children.
	for _, s := range trace.Spans {
		if s.DurNs <= 0 {
			t.Errorf("span %s duration %d", s.Name, s.DurNs)
		}
	}
	if trace.Spans[0].DurNs <= trace.Spans[1].DurNs || trace.Spans[0].StartNs >= trace.Spans[1].StartNs {
		t.Error("root does not enclose its child")
	}
	if len(trace.Spans[1].Attrs) != 1 || trace.Spans[1].Attrs[0] != (Attr{Key: "result", Value: "miss"}) {
		t.Errorf("child attrs = %+v", trace.Spans[1].Attrs)
	}
	want := []Attr{{Key: "status", Value: "200"}, {Key: "cache", Value: "miss"}}
	if got := trace.Spans[0].Attrs; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("root attrs = %+v, want %+v", got, want)
	}
}

// TestTraceRootAttrsFromCapture: the root span's attributes are the
// capture's own fields, so a fact is stored once and rendered twice.
func TestTraceRootAttrsFromCapture(t *testing.T) {
	c := Capture{TraceID: "x", Method: "POST", Route: "/v1/license", StartNs: 5, Status: 503,
		LatencyNs: 7, Fault: "error", Anomalies: []string{"panic", "5xx"}}
	tr := c.Trace()
	root := tr.Spans[0]
	if root.Name != "POST /v1/license" || root.StartNs != 5 || root.DurNs != 7 {
		t.Errorf("root = %+v", root)
	}
	want := []Attr{{Key: "status", Value: "503"}, {Key: "fault", Value: "error"}, {Key: "panic", Value: "true"}}
	if len(root.Attrs) != len(want) {
		t.Fatalf("root attrs = %+v, want %+v", root.Attrs, want)
	}
	for i := range want {
		if root.Attrs[i] != want[i] {
			t.Errorf("root attr %d = %+v, want %+v", i, root.Attrs[i], want[i])
		}
	}
}

func TestTraceRingWraps(t *testing.T) {
	clock := scriptClock()
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		_, rec, _ := openAt(r, clock, fmt.Sprintf("req-%d", i))
		rec.Seal(200, 1, "", "", false, nil)
	}
	got := r.Traces()
	if len(got) != 3 {
		t.Fatalf("ring kept %d traces, want 3", len(got))
	}
	for i, want := range []string{"req-4", "req-3", "req-2"} { // newest first
		if got[i].TraceID != want {
			t.Errorf("Traces()[%d] = %s, want %s", i, got[i].TraceID, want)
		}
	}
}

func TestRecordDisabled(t *testing.T) {
	var r *Recorder
	base := context.Background()
	ctx, rec := r.Open(base, scriptClock(), time.Time{}, "GET", "/v1/license", "x")
	if rec != nil || ctx != base {
		t.Fatal("nil recorder opened a live record")
	}
	cctx, child := StartSpan(ctx, "child")
	if child.rec != nil || cctx != ctx {
		t.Fatal("span under no record is live")
	}
	child.SetAttr("k", "v")
	child.End()
	leaf := Child(ctx, "leaf")
	leaf.End()
	rec.Seal(200, 1, "", "", false, nil)
	if RecordFrom(ctx) != nil {
		t.Error("RecordFrom found a record in a context without one")
	}
}

func TestSpanDoubleEndAndLateChild(t *testing.T) {
	r := NewRecorder(2)
	ctx, rec, _ := openAt(r, scriptClock(), "a")
	_, child := StartSpan(ctx, "slow")
	rec.Seal(200, 1, "", "", false, nil)
	rec.Seal(500, 2, "", "", false, []string{"5xx"}) // idempotent
	child.End()                                      // after the seal: dropped, must not corrupt the ring
	child.End()
	if _, late := StartSpan(ctx, "post"); late.rec != nil {
		t.Error("span started under a sealed record should be inert")
	}
	got := r.Traces()
	if len(got) != 1 || len(got[0].Spans) != 1 {
		t.Fatalf("trace after late child = %+v", got)
	}
	caps, pins := r.Snapshot()
	if caps[0].Status != 200 || len(pins) != 0 {
		t.Errorf("second seal changed the capture: %+v, %d pins", caps[0], len(pins))
	}
}

// TestRecordKeepsAtMostMaxSpans: a batch's per-item spans cannot grow
// one record without bound. The record keeps its first maxSpans
// children, and a span started past the bound reads no clock.
func TestRecordKeepsAtMostMaxSpans(t *testing.T) {
	script := scriptClock()
	var reads atomic.Int64
	clock := func() time.Time {
		reads.Add(1)
		return script()
	}
	r := NewRecorder(1)
	ctx, rec, _ := openAt(r, clock, "batch")
	for i := 0; i < 3*maxSpans; i++ {
		before := reads.Load()
		s := Child(ctx, "safeguards.evaluate")
		s.End()
		if n := reads.Load() - before; i >= maxSpans && n != 0 {
			t.Fatalf("span %d, past the bound, read the clock %d times", i, n)
		}
	}
	rec.Seal(200, 1, "", "", false, nil)
	caps, _ := r.Snapshot()
	spans := caps[0].Spans
	if len(spans) != maxSpans {
		t.Fatalf("record kept %d spans, want %d", len(spans), maxSpans)
	}
	for i, s := range spans {
		if s.ID != uint64(i+2) {
			t.Fatalf("kept span %d has ID %d, want IDs 2 to %d", i, s.ID, maxSpans+1)
		}
	}
}

// TestRecordConcurrentSpans: sibling spans of one record start and end
// on many goroutines, as the Span contract allows; the sealed capture
// holds each once, in ID order. Meaningful under -race.
func TestRecordConcurrentSpans(t *testing.T) {
	const workers, each = 4, 6
	r := NewRecorder(2)
	ctx, rec, _ := openAt(r, scriptClock(), "par")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s := Child(ctx, "safeguards.evaluate")
				RecordFrom(ctx).SetWAL("committed")
				s.End()
			}
		}()
	}
	wg.Wait()
	rec.Seal(200, 1, "", "", false, nil)
	caps, _ := r.Snapshot()
	spans := caps[0].Spans
	if len(spans) != workers*each {
		t.Fatalf("record kept %d spans, want %d", len(spans), workers*each)
	}
	for i, s := range spans {
		if s.ID != uint64(i+2) || s.Parent != 1 {
			t.Fatalf("span %d = %+v, want ID %d under the root", i, s, i+2)
		}
	}
}
