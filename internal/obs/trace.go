package obs

import (
	"context"
	"strconv"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is one completed span as it appears in a Trace. IDs are
// per-request counters assigned in creation order (the root is always
// 1), not random — spans inherit the repository's determinism contract,
// so identical request sequences against a scripted clock produce
// identical traces.
type SpanRecord struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"` // 0 for the root span
	Name    string `json:"name"`
	StartNs int64  `json:"startUnixNano"`
	DurNs   int64  `json:"durationNanos"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Trace is one request's span tree: the root span and every span that
// ended under it before the request's record was sealed, ordered by span
// ID (creation order).
type Trace struct {
	TraceID string       `json:"traceId"`
	Spans   []SpanRecord `json:"spans"`
}

// maxSpans bounds the spans one record keeps: a batch starts one
// evaluation span per missed item, and the ring keeps every record.
// A record keeps its first maxSpans children (IDs 2 to maxSpans+1);
// a span started past the bound is inert and reads no clock.
const maxSpans = 32

// Span is one in-progress operation under a request's record. Child and
// StartSpan return it by value; a Span started without an open record in
// the context (no recorder, an unrecorded route, or a sealed record), or
// past the record's maxSpans bound, is inert, so callers annotate and End
// unconditionally. A Span's SetAttr and End are meant for the goroutine
// that started it; sibling spans of one record may run concurrently.
type Span struct {
	rec   *Record
	start time.Time
	sr    SpanRecord
}

// spanScope is what StartSpan's context carries: the record and the span
// that new children hang from. Open's context carries the *Record
// itself, whose children hang from the root.
type spanScope struct {
	rec    *Record
	parent uint64
}

// scopeOf returns the record carried by ctx and the ID of the span a
// child started there hangs from.
func scopeOf(ctx context.Context) (*Record, uint64) {
	switch v := ctx.Value(recordKey{}).(type) {
	case *Record:
		return v, 1
	case *spanScope:
		return v.rec, v.parent
	}
	return nil, 0
}

// startSpan begins a child of span parent, or returns the inert span
// when rec is nil or sealed or has started maxSpans children.
func (rec *Record) startSpan(parent uint64, name string) Span {
	if rec == nil {
		return Span{}
	}
	rec.mu.Lock()
	if rec.sealed || rec.next > maxSpans+1 {
		rec.mu.Unlock()
		return Span{}
	}
	id := rec.next
	rec.next++
	rec.mu.Unlock()
	now := rec.clock()
	return Span{rec: rec, start: now, sr: SpanRecord{ID: id, Parent: parent, Name: name, StartNs: now.UnixNano()}}
}

// StartSpan begins a child of the span carried by ctx, returning a
// context under which further children hang from it.
func StartSpan(ctx context.Context, name string) (context.Context, Span) {
	rec, parent := scopeOf(ctx)
	s := rec.startSpan(parent, name)
	if s.rec == nil {
		return ctx, s
	}
	return context.WithValue(ctx, recordKey{}, &spanScope{rec: rec, parent: s.sr.ID}), s
}

// Child begins a child of the span carried by ctx without deriving a new
// context — the cheaper call for leaf operations that start no spans of
// their own.
func Child(ctx context.Context, name string) Span {
	rec, parent := scopeOf(ctx)
	return rec.startSpan(parent, name)
}

// SetAttr annotates the span. On an inert or ended span it does nothing.
func (s *Span) SetAttr(key, value string) {
	if s.rec != nil {
		s.sr.Attrs = append(s.sr.Attrs, Attr{Key: key, Value: value})
	}
}

// End completes the span and adds it to its record, unless the record
// was sealed first. On an inert span, or a second time, it does nothing.
func (s *Span) End() {
	rec := s.rec
	if rec == nil {
		return
	}
	s.rec = nil
	s.sr.DurNs = int64(rec.clock().Sub(s.start))
	rec.mu.Lock()
	if !rec.sealed {
		rec.c.Spans = append(rec.c.Spans, s.sr)
	}
	rec.mu.Unlock()
}

// Trace renders the capture as its request's span tree. The root span
// (ID 1) is the capture itself: named for its method and route, timed by
// its start and latency, with its status, cache state, injected fault
// and a recovered panic (the "panic" anomaly) as attributes.
func (c *Capture) Trace() Trace {
	root := SpanRecord{ID: 1, Name: c.Method + " " + c.Route, StartNs: c.StartNs, DurNs: int64(c.LatencyNs)}
	root.Attrs = append(root.Attrs, Attr{Key: "status", Value: strconv.Itoa(c.Status)})
	if c.Cache != "" {
		root.Attrs = append(root.Attrs, Attr{Key: "cache", Value: c.Cache})
	}
	if c.Fault != "" {
		root.Attrs = append(root.Attrs, Attr{Key: "fault", Value: c.Fault})
	}
	for _, a := range c.Anomalies {
		if a == "panic" {
			root.Attrs = append(root.Attrs, Attr{Key: "panic", Value: "true"})
			break
		}
	}
	return Trace{TraceID: c.TraceID, Spans: append([]SpanRecord{root}, c.Spans...)}
}

// Traces renders the live ring's captures as traces, newest first.
func (r *Recorder) Traces() []Trace {
	r.mu.Lock()
	caps := r.liveLocked()
	r.mu.Unlock()
	out := make([]Trace, len(caps))
	for i := range caps {
		out[i] = caps[i].Trace()
	}
	return out
}
