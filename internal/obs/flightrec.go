package obs

import (
	"context"
	"strings"
	"sync"
	"time"
)

// Capture is one request's record in the flight recorder: everything
// needed to reconstruct what a single request did, kept for every
// request without any sampling decision made up front. The capture is
// also the root span of the request's trace (see Trace); Spans holds the
// root's descendants in ID order. Captures are plain values once
// recorded — the recorder hands out copies, never aliases into the ring.
type Capture struct {
	Seq       uint64       `json:"seq"`
	TraceID   string       `json:"traceId,omitempty"`
	Method    string       `json:"method"`
	Route     string       `json:"route"`
	Key       string       `json:"key,omitempty"`
	StartNs   int64        `json:"startUnixNano,omitempty"`
	Status    int          `json:"status"`
	LatencyNs uint64       `json:"latencyNs"`
	Cache     string       `json:"cache,omitempty"`
	Fault     string       `json:"fault,omitempty"`
	Degraded  bool         `json:"degraded,omitempty"`
	Breaker   string       `json:"breaker,omitempty"`
	WAL       string       `json:"wal,omitempty"`
	Anomalies []string     `json:"anomalies,omitempty"`
	Spans     []SpanRecord `json:"spans,omitempty"`
}

// Record is one request's capture while the request runs: the
// middleware opens it, the layers below annotate it through the request
// context (the decision key, the WAL outcome, a breaker note, an anomaly,
// child spans), and Seal hands the finished capture to the recorder.
// Batch fills run on parpool workers sharing one request context, so
// every mutation takes the mutex. All methods are nil-safe: code paths
// that run without a recorder (direct handler calls in tests, the
// zero-alloc benchmarks) annotate a nil record and nothing happens.
type Record struct {
	r     *Recorder
	clock func() time.Time

	mu     sync.Mutex
	sealed bool
	next   uint64 // ID of the next child span; the root is 1
	c      Capture
}

// recordKey carries the request's *Record, or a *spanScope below
// StartSpan, through a context.
type recordKey struct{}

// Open starts the record of one request that began at start, returning
// a context carrying it; clock times the request's child spans. A nil
// recorder returns ctx and a nil record.
func (r *Recorder) Open(ctx context.Context, clock func() time.Time, start time.Time, method, route, traceID string) (context.Context, *Record) {
	if r == nil {
		return ctx, nil
	}
	rec := &Record{r: r, clock: clock, next: 2}
	rec.c = Capture{TraceID: traceID, Method: methodName(method), Route: route, StartNs: start.UnixNano()}
	return context.WithValue(ctx, recordKey{}, rec), rec
}

// methodName returns the common method names as constants and any other
// method no longer than the standard ones as a copy, else "other". A
// server's Request.Method is a substring of the request line, so a
// capture that kept it would keep the whole line, and net/http bounds
// neither.
func methodName(m string) string {
	switch m {
	case "GET":
		return "GET"
	case "POST":
		return "POST"
	case "HEAD":
		return "HEAD"
	}
	if len(m) > len("OPTIONS") {
		return "other"
	}
	return strings.Clone(m)
}

// RecordFrom returns the record carried by ctx, or nil.
func RecordFrom(ctx context.Context) *Record {
	rec, _ := scopeOf(ctx)
	return rec
}

// update applies fn to the capture under the mutex, unless the record is
// nil or already sealed.
func (rec *Record) update(fn func(c *Capture)) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	if !rec.sealed {
		fn(&rec.c)
	}
	rec.mu.Unlock()
}

// SetKey records the canonical decision key; the first key wins. The
// bytes are copied: the caller's buffer is pooled scratch.
func (rec *Record) SetKey(key []byte) {
	rec.update(func(c *Capture) {
		if c.Key == "" {
			c.Key = string(key)
		}
	})
}

// SetWAL records the outcome of the WAL commit for this request
// ("committed", "append-error", ...).
func (rec *Record) SetWAL(outcome string) {
	rec.update(func(c *Capture) { c.WAL = outcome })
}

// SetBreaker records a server-observed breaker or regime note.
func (rec *Record) SetBreaker(state string) {
	rec.update(func(c *Capture) { c.Breaker = state })
}

// AddAnomaly marks the in-flight request anomalous from a layer below
// the middleware (a WAL regime transition, say). Seal appends the
// middleware's own anomalies after these, and any anomaly makes the
// recorder pin the capture.
func (rec *Record) AddAnomaly(a string) {
	rec.update(func(c *Capture) { c.Anomalies = append(c.Anomalies, a) })
}

// Seal completes the record with the response-side facts and hands the
// capture to the recorder. Spans that end after the seal are dropped,
// and a second Seal does nothing.
func (rec *Record) Seal(status int, latencyNs uint64, cache, fault string, degraded bool, anomalies []string) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	if rec.sealed {
		rec.mu.Unlock()
		return
	}
	rec.sealed = true
	rec.mu.Unlock()
	// Sealed, the capture has no other writer.
	c := &rec.c
	c.Status, c.LatencyNs, c.Cache, c.Fault, c.Degraded = status, latencyNs, cache, fault, degraded
	c.Anomalies = append(c.Anomalies, anomalies...)
	// Spans end in near-ID order; an insertion sort costs nothing here
	// where sort.Slice would allocate on every seal.
	for i := 1; i < len(c.Spans); i++ {
		for j := i; j > 0 && c.Spans[j-1].ID > c.Spans[j].ID; j-- {
			c.Spans[j], c.Spans[j-1] = c.Spans[j-1], c.Spans[j]
		}
	}
	rec.r.Record(*c)
}

// PinGroup is a set of captures frozen at anomaly time: the anomalous
// capture plus up to pinContext captures that immediately preceded it,
// preserved verbatim so they survive ring wrap.
type PinGroup struct {
	Seq      uint64    `json:"seq"`
	Trigger  string    `json:"trigger"`
	Captures []Capture `json:"captures"`
}

// Defaults for the flight recorder: ring size, how many pin groups are
// retained (FIFO), and how many preceding captures each pin freezes.
const (
	DefaultRecorderCapacity = 256
	defaultMaxPins          = 32
	pinContext              = 4
)

// Recorder is the always-on black-box flight recorder: a fixed ring of
// the most recent request captures, plus pinned anomaly groups that
// survive ring wrap. All methods are safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	ring    []Capture
	start   int // index of the oldest capture
	count   int
	seq     uint64
	pins    []PinGroup
	pinSeq  uint64
	maxPins int
}

// NewRecorder returns a recorder holding the last capacity captures
// (capacity <= 0 selects DefaultRecorderCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{ring: make([]Capture, capacity), maxPins: defaultMaxPins}
}

// Record appends one completed capture, assigning its sequence number.
// A capture with anomalies pins itself plus the captures that
// immediately preceded it.
func (r *Recorder) Record(c Capture) {
	r.mu.Lock()
	r.seq++
	c.Seq = r.seq
	pos := (r.start + r.count) % len(r.ring)
	if r.count == len(r.ring) {
		r.start = (r.start + 1) % len(r.ring)
		pos = (r.start + r.count - 1) % len(r.ring)
	} else {
		r.count++
	}
	r.ring[pos] = c
	if len(c.Anomalies) > 0 {
		trigger := c.Anomalies[0]
		r.pinLocked("request:"+trigger, pinContext+1)
	}
	r.mu.Unlock()
}

// Pin freezes the newest captures into a pin group with the given
// trigger, independent of any request — used for anomalies observed
// outside a request path, like an SLO state transition at scrape time.
func (r *Recorder) Pin(trigger string) {
	r.mu.Lock()
	r.pinLocked(trigger, pinContext+1)
	r.mu.Unlock()
}

// pinLocked freezes up to n of the newest captures. Caller holds r.mu.
func (r *Recorder) pinLocked(trigger string, n int) {
	if n > r.count {
		n = r.count
	}
	g := PinGroup{Trigger: trigger, Captures: make([]Capture, 0, n)}
	for i := r.count - n; i < r.count; i++ {
		g.Captures = append(g.Captures, r.ring[(r.start+i)%len(r.ring)])
	}
	r.pinSeq++
	g.Seq = r.pinSeq
	r.pins = append(r.pins, g)
	if len(r.pins) > r.maxPins {
		r.pins = append(r.pins[:0], r.pins[len(r.pins)-r.maxPins:]...)
	}
}

// Snapshot returns the live ring newest-first plus every retained pin
// group oldest-first. Both slices are copies.
func (r *Recorder) Snapshot() ([]Capture, []PinGroup) {
	r.mu.Lock()
	caps := r.liveLocked()
	pins := make([]PinGroup, len(r.pins))
	for i, g := range r.pins {
		pins[i] = PinGroup{Seq: g.Seq, Trigger: g.Trigger, Captures: append([]Capture(nil), g.Captures...)}
	}
	r.mu.Unlock()
	return caps, pins
}

// liveLocked copies the live ring newest-first. Caller holds r.mu.
func (r *Recorder) liveLocked() []Capture {
	caps := make([]Capture, r.count)
	for i := range caps {
		caps[i] = r.ring[(r.start+r.count-1-i)%len(r.ring)]
	}
	return caps
}
