package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRequestIDEchoed: an inbound X-Request-Id is echoed back (and keys
// the trace), not replaced by a minted one; without one, an ID is minted.
func TestRequestIDEchoed(t *testing.T) {
	h := newTestServer(t).Handler()

	req := httptest.NewRequest("GET", "/v1/healthz", nil)
	req.Header.Set("X-Request-Id", "desk-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "desk-42" {
		t.Errorf("inbound request ID not echoed: got %q, want %q", got, "desk-42")
	}

	rec = do(t, h, "GET", "/v1/healthz", "")
	if rec.Header().Get("X-Request-Id") == "" {
		t.Error("no request ID minted when none was supplied")
	}
}

// TestMetricsScrapeStable is the acceptance criterion: consecutive
// /metrics scrapes of an otherwise-idle daemon are byte-identical — the
// scrape itself is exempt from its own instruments.
func TestMetricsScrapeStable(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	// Some traffic first, so the scrapes carry non-zero counters.
	do(t, h, "GET", "/v1/license?ctp=500&dest=india", "")
	do(t, h, "GET", "/v1/license?ctp=500&dest=india", "")
	do(t, h, "GET", "/v1/healthz", "")

	a := do(t, h, "GET", "/metrics", "")
	b := do(t, h, "GET", "/metrics", "")
	c := do(t, h, "GET", "/metrics", "")
	if a.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", a.Code)
	}
	if ct := a.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) || !bytes.Equal(b.Body.Bytes(), c.Body.Bytes()) {
		t.Error("consecutive scrapes of an idle daemon differ")
	}

	text := a.Body.String()
	for _, want := range []string{
		`http_requests_total{route="/v1/license",class="2xx"} 2`,
		`http_requests_total{route="/v1/healthz",class="2xx"} 1`,
		`cache_hits_total{cache="decisions"} 1`,
		`cache_misses_total{cache="decisions"} 1`,
		`cache_entries{cache="decisions"} 1`,
		`http_panics_total 0`,
		`http_in_flight 0`,
		"# TYPE http_request_ns histogram",
		"build_info{",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsJSONSnapshot: /v1/metrics serves the same registry as a
// parseable snapshot in the same order.
func TestMetricsJSONSnapshot(t *testing.T) {
	h := newTestServer(t).Handler()
	do(t, h, "GET", "/v1/license?ctp=500&dest=france", "")

	rec := do(t, h, "GET", "/v1/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/metrics: %d", rec.Code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot body: %v", err)
	}
	if len(snap.Metrics) == 0 {
		t.Fatal("empty snapshot")
	}
	found := map[string]bool{}
	for i, m := range snap.Metrics {
		found[m.Name] = true
		if i > 0 {
			prev := snap.Metrics[i-1]
			if m.Name < prev.Name || (m.Name == prev.Name && m.Labels < prev.Labels) {
				t.Errorf("snapshot out of order at %d: %s%s after %s%s",
					i, m.Name, m.Labels, prev.Name, prev.Labels)
			}
		}
	}
	for _, name := range []string{"build_info", "http_requests_total", "http_request_ns", "cache_hits_total"} {
		if !found[name] {
			t.Errorf("snapshot missing %s", name)
		}
	}
}

// TestTraceLicenseDecision follows a decision from the HTTP handler
// through the cache lookup into the evaluation: the miss trace carries a
// safeguards.evaluate span, the hit trace only the cache lookup, and the
// /v1/traces read itself never enters the ring.
func TestTraceLicenseDecision(t *testing.T) {
	h := newTestServer(t).Handler()

	for _, id := range []string{"t-miss", "t-hit"} {
		req := httptest.NewRequest("GET", "/v1/license?ctp=500&dest=india", nil)
		req.Header.Set("X-Request-Id", id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %s: %d", id, rec.Code)
		}
	}

	rec := do(t, h, "GET", "/v1/traces", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/traces: %d", rec.Code)
	}
	var tr TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("traces body: %v", err)
	}
	if tr.Count != 2 || len(tr.Traces) != 2 {
		t.Fatalf("got %d traces, want 2", tr.Count)
	}
	if tr.Traces[0].TraceID != "t-hit" || tr.Traces[1].TraceID != "t-miss" {
		t.Fatalf("trace order = %s, %s; want newest first", tr.Traces[0].TraceID, tr.Traces[1].TraceID)
	}

	names := func(tr obs.Trace) []string {
		var out []string
		for _, s := range tr.Spans {
			out = append(out, s.Name)
		}
		return out
	}
	attr := func(s obs.SpanRecord, key string) string {
		for _, a := range s.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}

	miss := tr.Traces[1]
	if got, want := names(miss), []string{"GET /v1/license", "cache.lookup", "safeguards.evaluate"}; len(got) != len(want) ||
		got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("miss trace spans = %v, want %v", got, want)
	}
	root := miss.Spans[0]
	if root.ID != 1 || root.Parent != 0 {
		t.Errorf("root span ID/Parent = %d/%d", root.ID, root.Parent)
	}
	if attr(root, "status") != "200" || attr(root, "cache") != "miss" {
		t.Errorf("root attrs = %v", root.Attrs)
	}
	if lu := miss.Spans[1]; lu.Parent != 1 || attr(lu, "result") != "miss" {
		t.Errorf("cache.lookup span = %+v", lu)
	}

	hit := tr.Traces[0]
	if got := names(hit); len(got) != 2 || got[1] != "cache.lookup" {
		t.Errorf("hit trace spans = %v, want root + cache.lookup only", got)
	}
	if attr(hit.Spans[1], "result") != "hit" || attr(hit.Spans[0], "cache") != "hit" {
		t.Errorf("hit trace attrs: %+v", hit.Spans)
	}
}

// TestTraceThresholdSnapshot: a non-study-date threshold request reaches
// the snapshot substrate under the trace.
func TestTraceThresholdSnapshot(t *testing.T) {
	h := newTestServer(t).Handler()
	req := httptest.NewRequest("GET", "/v1/threshold?date=1994.5", nil)
	req.Header.Set("X-Request-Id", "t-snap")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("threshold request: %d", rec.Code)
	}

	var tr TracesResponse
	if err := json.Unmarshal(do(t, h, "GET", "/v1/traces", "").Body.Bytes(), &tr); err != nil {
		t.Fatalf("traces body: %v", err)
	}
	if tr.Count == 0 || tr.Traces[0].TraceID != "t-snap" {
		t.Fatalf("threshold trace missing: %+v", tr)
	}
	var sawTake bool
	for _, s := range tr.Traces[0].Spans {
		if s.Name == "snapshot.take" {
			sawTake = true
		}
	}
	if !sawTake {
		t.Errorf("no snapshot.take span in %+v", tr.Traces[0].Spans)
	}
}

// TestTracingDisabled: a negative FlightCapacity turns recording, spans
// included, off entirely; requests still work and /v1/traces says so.
func TestTracingDisabled(t *testing.T) {
	s, err := New(Config{Clock: testClock, FlightCapacity: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h := s.Handler()
	if rec := do(t, h, "GET", "/v1/license?ctp=500&dest=india", ""); rec.Code != http.StatusOK {
		t.Fatalf("license with tracing off: %d", rec.Code)
	}
	if rec := do(t, h, "GET", "/v1/traces", ""); rec.Code != http.StatusNotFound {
		t.Errorf("/v1/traces with tracing off: %d, want 404", rec.Code)
	}
}

// TestPprofAbsentFromPublicMux: the profiling endpoints are mounted only
// on the daemon's -debug-addr listener, never on the public handler.
func TestPprofAbsentFromPublicMux(t *testing.T) {
	h := newTestServer(t).Handler()
	for _, p := range []string{"/debug/pprof/", "/debug/pprof/profile", "/debug/pprof/heap"} {
		rec := do(t, h, "GET", p, "")
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d on the public mux, want 404", p, rec.Code)
		}
	}
}

// TestStructuredRequestLog: each request produces one slog record with
// the request ID, route, status, duration, and cache state as attrs.
func TestStructuredRequestLog(t *testing.T) {
	var buf bytes.Buffer
	s, err := New(Config{
		Clock:  testClock,
		Logger: slog.New(slog.NewTextHandler(&buf, nil)),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	req := httptest.NewRequest("GET", "/v1/license?ctp=500&dest=india", nil)
	req.Header.Set("X-Request-Id", "log-1")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("request: %d", rec.Code)
	}

	line := buf.String()
	for _, want := range []string{
		"msg=request", "req=log-1", "method=GET", "route=/v1/license",
		"status=200", "duration=", "cache=miss",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %q: %s", want, line)
		}
	}
}

// TestLRUEvictionAccounting: evictions are counted and surface in both
// the stats struct and the healthz body.
func TestLRUEvictionAccounting(t *testing.T) {
	l := NewLRU[string, int](2)
	l.Put("a", 1)
	l.Put("b", 2)
	l.Put("c", 3) // evicts a
	l.Put("b", 4) // replace, no eviction
	st := l.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Size != 2 {
		t.Errorf("size = %d, want 2", st.Size)
	}

	s, err := New(Config{Clock: testClock, CacheSize: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h := s.Handler()
	do(t, h, "GET", "/v1/license?ctp=500&dest=india", "")
	do(t, h, "GET", "/v1/license?ctp=600&dest=india", "")
	var hr HealthResponse
	if err := json.Unmarshal(do(t, h, "GET", "/v1/healthz", "").Body.Bytes(), &hr); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if hr.Decisions.Evictions != 1 {
		t.Errorf("healthz decision-cache evictions = %d, want 1", hr.Decisions.Evictions)
	}
	text := do(t, h, "GET", "/metrics", "").Body.String()
	if !strings.Contains(text, `cache_evictions_total{cache="decisions"} 1`) {
		t.Error("eviction count missing from /metrics")
	}
}
