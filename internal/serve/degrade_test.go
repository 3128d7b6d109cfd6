package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// faultedServer builds a server with a seeded fault plan mounted.
func faultedServer(t testing.TB, seed uint64, spec string, sleep func(time.Duration)) *Server {
	t.Helper()
	prof, err := fault.Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	plan, err := fault.NewPlan(seed, prof)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	s, err := New(Config{Clock: testClock, Fault: plan, Sleep: sleep})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// healthOf fetches and decodes /v1/healthz.
func healthOf(t testing.TB, s *Server) HealthResponse {
	t.Helper()
	rec := do(t, s.Handler(), "GET", "/v1/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var hr HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	return hr
}

// TestPoisonDegradesButAnswersIdentically pins the graceful-degradation
// contract: with every arrival poisoned, the server bypasses its caches
// and memos, marks the response X-Degraded, and still answers byte-for-
// byte what an unfaulted server answers, a batch included.
func TestPoisonDegradesButAnswersIdentically(t *testing.T) {
	degraded := faultedServer(t, 1, "poison=1", nil)
	clean := newTestServer(t)

	for _, tc := range []struct{ method, target, body string }{
		{"GET", "/v1/license?ctp=21125&dest=india", ""},
		{"GET", "/v1/threshold", ""},             // study date: bypasses the report memo
		{"GET", "/v1/threshold?date=1994.2", ""}, // other dates: bypasses the snapshot LRU
		// Valid items, a key repeated within the batch, and an unknown
		// system: every item is computed afresh, the repeat included.
		{"POST", "/v1/license", `{"requests":[{"ctp":21125,"destination":"india"},` +
			`{"system":"Cray C916","destination":"china","endUse":"weather"},` +
			`{"system":"no-such-machine","destination":"india"},` +
			`{"ctp":21125,"destination":" India "}]}`},
	} {
		target := tc.method + " " + tc.target
		want := do(t, clean.Handler(), tc.method, tc.target, tc.body)
		if want.Code != http.StatusOK {
			t.Fatalf("clean %s: %d", target, want.Code)
		}
		for i := 0; i < 2; i++ {
			rec := do(t, degraded.Handler(), tc.method, tc.target, tc.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s pass %d: %d: %s", target, i, rec.Code, rec.Body.String())
			}
			if got := rec.Header().Get("X-Degraded"); got != "cache-bypass" {
				t.Errorf("%s pass %d: X-Degraded = %q", target, i, got)
			}
			if got := rec.Header().Get("X-Fault-Injected"); got != "poison" {
				t.Errorf("%s pass %d: X-Fault-Injected = %q", target, i, got)
			}
			if rec.Body.String() != want.Body.String() {
				t.Errorf("%s pass %d: degraded body differs from the unfaulted answer", target, i)
			}
		}
	}

	// Nothing may have been read from or written to the caches.
	if st := degraded.decisions.Stats(); st.Size != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("decision cache touched while poisoned: %+v", st)
	}
	if st := degraded.snapshots.Stats(); st.Size != 0 || st.Hits != 0 {
		t.Errorf("snapshot cache touched while poisoned: %+v", st)
	}
	// The repeated license request must stay a miss: a poisoned arrival
	// never becomes a cache hit.
	rec := do(t, degraded.Handler(), "GET", "/v1/license?ctp=21125&dest=india", "")
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("poisoned repeat served X-Cache = %q, want miss", got)
	}
}

func TestInjectedErrorAnswers503(t *testing.T) {
	s := faultedServer(t, 2, "error=1", nil)
	rec := do(t, s.Handler(), "GET", "/v1/license?ctp=21125&dest=india", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("X-Fault-Injected"); got != "error" {
		t.Errorf("X-Fault-Injected = %q", got)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error != "injected fault" {
		t.Errorf("body = %s (%v)", rec.Body.String(), err)
	}

	hr := healthOf(t, s)
	if hr.Status != "ok" {
		t.Errorf("status after injected errors = %q; only poison degrades", hr.Status)
	}
	if hr.Faults == nil || hr.Faults.InjectedErrors != 1 {
		t.Errorf("health fault counters = %+v", hr.Faults)
	}
}

func TestInjectedLatencyDelays(t *testing.T) {
	var mu sync.Mutex
	var slept []time.Duration
	s := faultedServer(t, 3, "latency=1,delay=5ms", func(d time.Duration) {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
	})
	rec := do(t, s.Handler(), "GET", "/v1/license?ctp=21125&dest=india", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Fault-Injected"); got != "latency" {
		t.Errorf("X-Fault-Injected = %q", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != 1 || slept[0] != 5*time.Millisecond {
		t.Errorf("injected sleeps = %v, want one 5ms pause", slept)
	}
}

// TestHealthzExemptFromInjection pins that health probes stay reachable
// under total failure and never consume schedule slots.
func TestHealthzExemptFromInjection(t *testing.T) {
	s := faultedServer(t, 4, "error=1", nil)
	for i := 0; i < 5; i++ {
		hr := healthOf(t, s)
		if hr.Status != "ok" {
			t.Fatalf("probe %d: status %q", i, hr.Status)
		}
	}
	if got := s.fault.Taken("/v1/healthz"); got != 0 {
		t.Errorf("health probes consumed %d schedule slots", got)
	}
}

func TestHealthzReportsDegraded(t *testing.T) {
	s := faultedServer(t, 5, "poison=1", nil)
	if hr := healthOf(t, s); hr.Status != "ok" || hr.Faults == nil || hr.Faults.Degraded != 0 {
		t.Fatalf("pre-traffic health = %+v", hr)
	}
	do(t, s.Handler(), "GET", "/v1/license?ctp=21125&dest=india", "")
	hr := healthOf(t, s)
	if hr.Status != "degraded" {
		t.Errorf("status = %q, want degraded", hr.Status)
	}
	if hr.Faults == nil || hr.Faults.Degraded != 1 || hr.Faults.PoisonedLookups != 1 {
		t.Errorf("fault counters = %+v", hr.Faults)
	}
}

// TestFaultMetricsOnlyWhenMounted pins the exposition contract both
// ways: a faulted server exposes the injection families, an unfaulted
// server's scrape shape is unchanged.
func TestFaultMetricsOnlyWhenMounted(t *testing.T) {
	s := faultedServer(t, 6, "error=1", nil)
	do(t, s.Handler(), "GET", "/v1/license?ctp=21125&dest=india", "")
	body := do(t, s.Handler(), "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		`fault_injected_total{route="/v1/license",kind="error"} 1`,
		`fault_injected_total{route="/v1/license",kind="poison"} 0`,
		`fault_injected_total{route="/v1/catalog",kind="error"} 0`,
		"degraded_responses_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("faulted exposition missing %q", want)
		}
	}
	if strings.Contains(body, `fault_injected_total{route="/v1/healthz"`) {
		t.Error("exposition carries fault series for the uninjectable health route")
	}

	clean := do(t, newTestServer(t).Handler(), "GET", "/metrics", "").Body.String()
	if strings.Contains(clean, "fault_injected_total") || strings.Contains(clean, "degraded_responses_total") {
		t.Error("unfaulted exposition grew fault families")
	}

	// A plan that injects nothing is not mounted: after the same traffic,
	// its exposition is an unfaulted server's, byte for byte, and its
	// health carries no faults block.
	none := faultedServer(t, 6, "none", nil)
	plain := newTestServer(t)
	for _, srv := range []*Server{none, plain} {
		do(t, srv.Handler(), "GET", "/v1/license?ctp=21125&dest=india", "")
	}
	got := do(t, none.Handler(), "GET", "/metrics", "").Body.String()
	if want := do(t, plain.Handler(), "GET", "/metrics", "").Body.String(); got != want {
		t.Error("an inactive fault plan changed the exposition")
	}
	if hr := healthOf(t, none); hr.Faults != nil {
		t.Errorf("an inactive fault plan reports a healthz faults block: %+v", hr.Faults)
	}
}
