package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// selfObservedPaths are the telemetry routes both daemons pass through
// uncounted (SelfObserved).
var selfObservedPaths = []string{"/metrics", "/v1/metrics", "/v1/traces", "/v1/flightrec", "/v1/slo"}

// logLine is the part of a JSON request-log line the tests read.
type logLine struct {
	Level  string `json:"level"`
	Msg    string `json:"msg"`
	Req    string `json:"req"`
	Route  string `json:"route"`
	Status int    `json:"status"`
	Value  string `json:"value"`
}

// logLines decodes every line a JSON slog handler wrote to buf.
func logLines(t *testing.T, buf *bytes.Buffer) []logLine {
	t.Helper()
	var lines []logLine
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var l logLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("log line %q: %v", raw, err)
		}
		lines = append(lines, l)
	}
	return lines
}

// newLoggedServer builds a test server whose request log is JSON in buf.
func newLoggedServer(t *testing.T, buf *bytes.Buffer, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{Clock: testClock, Logger: slog.New(slog.NewJSONHandler(buf, nil))}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// TestSelfObservedReadsAreNotCounted: five reads of each telemetry route
// are answered without an X-Request-Id, even one that sent an ID, and
// leave healthz's requests where it was; healthz's inFlight counts the
// healthz read itself. The reads still take the rest of the path: a log
// line, a semaphore slot and the panic guard.
func TestSelfObservedReadsAreNotCounted(t *testing.T) {
	var buf bytes.Buffer
	s := newLoggedServer(t, &buf, nil)
	h := s.Handler()
	do(t, h, "GET", "/v1/license?ctp=500&dest=india", "")
	before := healthOf(t, s)
	if before.Requests != 2 || before.InFlight != 1 {
		t.Fatalf("healthz requests = %d, inFlight = %d, want 2 and 1 (itself)", before.Requests, before.InFlight)
	}
	for _, path := range selfObservedPaths {
		for i := range 5 {
			sent := ""
			if i%2 == 1 {
				sent = "tel-1"
			}
			if got := getWithID(h, path, sent).Header()["X-Request-Id"]; got != nil {
				t.Errorf("%s read %d answered under X-Request-Id %q", path, i, got)
			}
		}
	}
	if after := healthOf(t, s); after.Requests != before.Requests+1 {
		t.Errorf("healthz requests %d -> %d across the telemetry reads, want only the second healthz read counted",
			before.Requests, after.Requests)
	}
	logged := map[string]int{}
	for _, l := range logLines(t, &buf) {
		if SelfObserved(l.Route) {
			if l.Msg != "request" || l.Req != "" {
				t.Errorf("%s logged as %q under req %q", l.Route, l.Msg, l.Req)
			}
			logged[l.Route]++
		}
	}
	for _, path := range selfObservedPaths {
		if logged[path] != 5 {
			t.Errorf("%s logged %d times, want 5", path, logged[path])
		}
	}

	// A telemetry read waits for a semaphore slot like any request: with
	// the only slot taken, a read whose client gives up is answered 503.
	one, err := New(Config{Clock: testClock, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	one.sem <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	one.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "server at capacity") {
		t.Errorf("/metrics with no free slot: %d %s, want the capacity 503", rec.Code, rec.Body)
	}
	<-one.sem

	// And its handler runs under the panic guard: answered 500, logged,
	// yet not metered, since a self-observed route has no instruments.
	buf.Reset()
	guarded := s.middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("telemetry") }))
	rec = do(t, guarded, "GET", "/v1/traces", "")
	if rec.Code != http.StatusInternalServerError || rec.Header()["X-Request-Id"] != nil {
		t.Errorf("panicking /v1/traces: %d under ID %q, want 500 without one", rec.Code, rec.Header()["X-Request-Id"])
	}
	if lines := logLines(t, &buf); len(lines) != 1 || lines[0].Msg != "panic" || lines[0].Status != 500 {
		t.Errorf("panicking /v1/traces logged %+v, want one panic line with status 500", lines)
	}
	if v := s.met.panics.Value(); v != 0 {
		t.Errorf("http_panics_total = %d after a self-observed panic, want 0", v)
	}
}

// TestPanicGuardFinishesLikeAnyRequest: a handler that panics before
// writing is answered 500; one that wrote 200 and then panicked went out
// 200. Each counts one http_panics_total, and http_requests_total, the
// sealed record and the log line all carry the status the response went
// out with. The first record is pinned with the panic and 5xx anomalies.
func TestPanicGuardFinishesLikeAnyRequest(t *testing.T) {
	var buf bytes.Buffer
	s := newLoggedServer(t, &buf, nil)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/catalog", func(http.ResponseWriter, *http.Request) { panic("before writing") })
	mux.HandleFunc("GET /v1/apps", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, ErrorResponse{Error: "partial"})
		panic("after writing")
	})
	h := s.middleware(mux)

	cases := []struct {
		route, id string
		status    int
		anomalies []string
	}{
		{"/v1/catalog", "p-before", http.StatusInternalServerError, []string{"panic", "5xx"}},
		{"/v1/apps", "p-after", http.StatusOK, []string{"panic"}},
	}
	for i, c := range cases {
		if rec := getWithID(h, c.route, c.id); rec.Code != c.status {
			t.Errorf("%s answered %d, want %d", c.route, rec.Code, c.status)
		}
		if v := s.met.panics.Value(); v != uint64(i+1) {
			t.Errorf("after %s: http_panics_total = %d, want %d", c.route, v, i+1)
		}
	}

	caps, pins := s.flightrec.Snapshot()
	lines := logLines(t, &buf)
	if len(caps) != 2 || len(lines) != 2 {
		t.Fatalf("%d records and %d log lines, want 2 of each", len(caps), len(lines))
	}
	for i, c := range cases {
		ri := s.met.routes[c.route]
		for j, class := range statusClasses {
			want := uint64(0)
			if j == classIdx(c.status) {
				want = 1
			}
			if v := ri.classes[j].Value(); v != want {
				t.Errorf("http_requests_total{route=%q,class=%q} = %d, want %d", c.route, class, v, want)
			}
		}
		got := caps[len(caps)-1-i] // newest first
		if got.TraceID != c.id || got.Status != c.status || strings.Join(got.Anomalies, ",") != strings.Join(c.anomalies, ",") {
			t.Errorf("%s sealed as %s %d %v, want %s %d %v",
				c.route, got.TraceID, got.Status, got.Anomalies, c.id, c.status, c.anomalies)
		}
		if l := lines[i]; l.Req != c.id || l.Status != c.status || l.Level != "ERROR" || l.Msg != "panic" || l.Value == "" {
			t.Errorf("%s logged %+v, want an ERROR panic line under %s with status %d and the value",
				c.route, l, c.id, c.status)
		}
	}
	if len(pins) == 0 || pins[0].Trigger != "request:panic" || pins[0].Captures[len(pins[0].Captures)-1].TraceID != "p-before" {
		t.Errorf("pins = %+v, want the p-before record pinned first by request:panic", pins)
	}
}

// TestMiddlewareReadsClockTwiceBeforeHandler: one read at arrival and
// one when the semaphore admits the request — the end of its wait and
// the start of its latency — then one when the handler returns.
func TestMiddlewareReadsClockTwiceBeforeHandler(t *testing.T) {
	var reads atomic.Int64
	s, err := New(Config{Clock: func() time.Time { reads.Add(1); return testClock() }})
	if err != nil {
		t.Fatal(err)
	}
	var atHandler int64
	h := s.middleware(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		atHandler = reads.Load()
		w.WriteHeader(http.StatusNoContent)
	}))
	for _, target := range []string{"/v1/license?ctp=500&dest=india", "/v1/healthz", "/metrics"} {
		reads.Store(0)
		do(t, h, "GET", target, "")
		if atHandler != 2 || reads.Load() != 3 {
			t.Errorf("%s: %d clock reads before the handler and %d in all, want 2 and 3", target, atHandler, reads.Load())
		}
	}
	caps, _ := s.flightrec.Snapshot()
	if len(caps) != 1 || caps[0].Route != "/v1/license" {
		t.Errorf("records = %+v, want the one /v1/license record", caps)
	}
}
