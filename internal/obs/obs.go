// Package obs is the repository's zero-dependency observability layer:
// lock-free counters, gauges, and fixed-bucket histograms behind a
// registry with deterministic Prometheus-format text exposition and a
// JSON snapshot API, a flight recorder that keeps one record per request
// (its capture and its context-propagated span tree) in a ring of recent
// requests, build-info reporting, and an adapter that turns parpool's
// per-superstep Observer callbacks into metrics.
//
// Everything here obeys the repository's determinism contract:
// instrumentation never changes what is computed, only what is recorded
// about the computation. Exposition order is fully determined by metric
// names and label strings (sorted, never map-ordered), the histogram
// bucket layout is a constant, and the only clock in the package is the
// one the caller injects — so two scrapes of an idle registry are
// byte-identical, and a registry fed identical event streams renders
// identical bytes on every run and machine.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Metric kinds as they appear in exposition TYPE lines and snapshots.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Label is one exposition label. Labels render in the order given at
// registration, so a fixed call site yields a fixed label string.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// renderLabels renders a label set as {k="v",...} with the values escaped
// per the Prometheus text format; no labels renders as the empty string.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value for the text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// metric is one registered instrument: exactly one of counter, gauge,
// hist, and fn is non-nil, matching kind.
type metric struct {
	name    string // family name, e.g. http_requests_total
	labels  string // rendered label string, "" for none
	help    string
	kind    string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // read at exposition time

	// exemplars is non-nil only on histograms armed via AttachExemplars;
	// buckets with an exemplar gain an OpenMetrics-style suffix.
	exemplars *Exemplars
}

// key returns the registry key identifying this instrument.
func (m *metric) key() string { return m.name + m.labels }

// Registry holds named instruments and renders them. The zero value is
// not usable; construct with NewRegistry. A nil *Registry is accepted by
// every registration method and returns detached (working, unexposed)
// instruments, so instrumented code runs unchanged when observability is
// off.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// register adds an instrument, or returns the existing one when the same
// name+labels was registered before with the same kind. A kind collision
// (same name+labels, different instrument type) returns nil and the
// caller hands back a detached instrument — a programming error that the
// exposition golden tests catch, kept panic-free by contract.
func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.metrics[m.key()]; ok {
		if prev.kind == m.kind {
			return prev
		}
		return nil
	}
	r.metrics[m.key()] = m
	return m
}

// Counter registers (or retrieves) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	if r == nil {
		return c
	}
	m := r.register(&metric{name: name, labels: renderLabels(labels), help: help, kind: KindCounter, counter: c})
	if m == nil {
		return c
	}
	return m.counter
}

// Gauge registers (or retrieves) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	if r == nil {
		return g
	}
	m := r.register(&metric{name: name, labels: renderLabels(labels), help: help, kind: KindGauge, gauge: g})
	if m == nil {
		return g
	}
	return m.gauge
}

// Histogram registers (or retrieves) a histogram.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	h := &Histogram{}
	if r == nil {
		return h
	}
	m := r.register(&metric{name: name, labels: renderLabels(labels), help: help, kind: KindHistogram, hist: h})
	if m == nil {
		return h
	}
	return m.hist
}

// Func registers a metric whose value is read by calling fn at exposition
// time — the bridge for values another subsystem already tracks (cache
// statistics, build info). kind is KindCounter or KindGauge; fn must be
// safe for concurrent use.
func (r *Registry) Func(name, help, kind string, fn func() float64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	r.register(&metric{name: name, labels: renderLabels(labels), help: help, kind: kind, fn: fn})
}

// sorted returns the instruments ordered by (name, labels) — the one
// exposition order, independent of registration order and map iteration.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// formatFloat renders a float64 sample value the one canonical way.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm renders every registered instrument in the Prometheus text
// format: families sorted by name, samples within a family sorted by
// label string, each family preceded by its # HELP and # TYPE lines.
// Histograms render cumulative _bucket lines for all HistBuckets bounds
// (the last as le="+Inf") plus _sum and _count. The output is
// byte-deterministic for a given registry state.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	lastFamily := ""
	for _, m := range r.sorted() {
		if m.name != lastFamily {
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind); err != nil {
				return err
			}
			lastFamily = m.name
		}
		if err := writeSamples(w, m); err != nil {
			return err
		}
	}
	return nil
}

// writeSamples renders one instrument's sample lines.
func writeSamples(w io.Writer, m *metric) error {
	switch {
	case m.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, m.counter.Value())
		return err
	case m.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, m.gauge.Value())
		return err
	case m.fn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", m.name, m.labels, formatFloat(m.fn()))
		return err
	case m.hist != nil:
		return writeHistogram(w, m)
	}
	return nil
}

// writeHistogram renders one histogram's bucket/sum/count lines. The le
// label is appended after the instrument's own labels. When exemplars
// are armed, each bucket that has one gains an OpenMetrics-style
// " # {trace_id=\"...\"} value" suffix; unarmed or empty buckets render
// exactly as before, preserving idle-scrape byte-identity.
func writeHistogram(w io.Writer, m *metric) error {
	open, sep := "{", ""
	if m.labels != "" {
		open, sep = m.labels[:len(m.labels)-1], ","
	}
	var ex [HistBuckets]exemplarSlot
	if m.exemplars != nil {
		ex = m.exemplars.snapshot()
	}
	cum := uint64(0)
	for k := 0; k < HistBuckets; k++ {
		cum += m.hist.Bucket(k)
		le := strconv.FormatUint(BucketUpper(k), 10)
		if k == HistBuckets-1 {
			le = "+Inf"
		}
		suffix := ""
		if ex[k].set {
			suffix = fmt.Sprintf(" # {trace_id=\"%s\"} %d", escapeLabel(ex[k].traceID), ex[k].value)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s%sle=\"%s\"} %d%s\n", m.name, open, sep, le, cum, suffix); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", m.name, m.labels, m.hist.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, m.labels, m.hist.Count())
	return err
}

// BucketSnapshot is one non-empty histogram bucket in a snapshot.
type BucketSnapshot struct {
	Upper uint64 `json:"upper"` // inclusive upper bound of the bucket
	Count uint64 `json:"count"` // observations in this bucket (not cumulative)
}

// ExemplarSnapshot is one bucket's exemplar in a snapshot: the trace ID
// of the slowest observation recorded into that bucket.
type ExemplarSnapshot struct {
	Upper   uint64 `json:"upper"` // inclusive upper bound of the bucket
	Value   uint64 `json:"value"` // the exemplar observation itself
	TraceID string `json:"traceId"`
}

// MetricSnapshot is one instrument's state in a snapshot.
type MetricSnapshot struct {
	Name    string           `json:"name"`
	Labels  string           `json:"labels,omitempty"`
	Kind    string           `json:"kind"`
	Help    string           `json:"help,omitempty"`
	Value   float64          `json:"value"`             // counter/gauge/func value; histogram mean
	Count   uint64           `json:"count,omitempty"`   // histogram observation count
	Sum     uint64           `json:"sum,omitempty"`     // histogram observation sum
	Buckets []BucketSnapshot `json:"buckets,omitempty"` // non-empty histogram buckets

	// Exemplars lists, for histograms armed via AttachExemplars, the
	// trace ID of the slowest recent observation per non-empty bucket.
	Exemplars []ExemplarSnapshot `json:"exemplars,omitempty"`
}

// Snapshot is a point-in-time JSON-friendly view of a registry, in the
// same deterministic order as the text exposition.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot captures every instrument. Histogram buckets are reported
// sparsely (only non-empty ones), with per-bucket rather than cumulative
// counts, which is the friendlier shape for a pretty-printer.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	ms := r.sorted()
	out := Snapshot{Metrics: make([]MetricSnapshot, 0, len(ms))}
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Labels: m.labels, Kind: m.kind, Help: m.help}
		switch {
		case m.counter != nil:
			s.Value = float64(m.counter.Value())
		case m.gauge != nil:
			s.Value = float64(m.gauge.Value())
		case m.fn != nil:
			s.Value = m.fn()
		case m.hist != nil:
			s.Count = m.hist.Count()
			s.Sum = m.hist.Sum()
			if s.Count > 0 {
				s.Value = float64(s.Sum) / float64(s.Count)
			}
			for k := 0; k < HistBuckets; k++ {
				if n := m.hist.Bucket(k); n > 0 {
					s.Buckets = append(s.Buckets, BucketSnapshot{Upper: BucketUpper(k), Count: n})
				}
			}
			if m.exemplars != nil {
				ex := m.exemplars.snapshot()
				for k := 0; k < HistBuckets; k++ {
					if ex[k].set {
						s.Exemplars = append(s.Exemplars, ExemplarSnapshot{Upper: BucketUpper(k), Value: ex[k].value, TraceID: ex[k].traceID})
					}
				}
			}
		}
		out.Metrics = append(out.Metrics, s)
	}
	return out
}
