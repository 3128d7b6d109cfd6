package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/slo"
)

// sloTestProfile is the profile most SLO tests mount: tight enough that
// a latency signal exists, loose enough that clean traffic never burns.
const sloTestProfile = "availability=0.99,latency=50ms"

// sloServer builds a test server with an SLO profile mounted, optionally
// over a fault plan.
func sloServer(t testing.TB, profile, faultSpec string) *Server {
	t.Helper()
	prof, err := slo.Parse(profile)
	if err != nil {
		t.Fatalf("slo.Parse(%q): %v", profile, err)
	}
	cfg := Config{Clock: testClock, SLO: prof}
	if faultSpec != "" {
		fp, err := fault.Parse(faultSpec)
		if err != nil {
			t.Fatalf("fault.Parse(%q): %v", faultSpec, err)
		}
		if cfg.Fault, err = fault.NewPlan(1, fp); err != nil {
			t.Fatalf("fault.NewPlan: %v", err)
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// TestSLOScrapeStableAndGated pins both halves of the exposition
// contract: with an SLO profile mounted the scrape carries the burn
// gauges and slow counters yet consecutive idle scrapes stay
// byte-identical (the SLO evaluation at scrape time is deterministic
// under the fake clock), and without a profile the exposition contains
// no SLO families and no exemplar suffixes at all.
func TestSLOScrapeStableAndGated(t *testing.T) {
	s := sloServer(t, sloTestProfile, "")
	h := s.Handler()

	do(t, h, "GET", "/v1/license?ctp=500&dest=india", "")
	do(t, h, "GET", "/v1/license?ctp=500&dest=india", "")
	do(t, h, "GET", "/v1/healthz", "")

	a := do(t, h, "GET", "/metrics", "")
	b := do(t, h, "GET", "/metrics", "")
	c := do(t, h, "GET", "/metrics", "")
	if a.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", a.Code)
	}
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) || !bytes.Equal(b.Body.Bytes(), c.Body.Bytes()) {
		t.Error("consecutive scrapes of an idle SLO-mounted daemon differ")
	}
	text := a.Body.String()
	for _, want := range []string{
		`slo_burn_rate{route="/v1/license",signal="availability",window="5m"} 0`,
		`slo_burn_rate{route="/v1/license",signal="latency",window="6h"} 0`,
		`slo_budget_remaining{route="/v1/license",signal="availability"} 1`,
		`slo_state{route="/v1/license",signal="availability"} 0`,
		`slo_slow_requests_total{route="/v1/license"} 0`,
		// The fake clock makes every request 0ns, so bucket le="1" of the
		// latency histogram carries the first request's exemplar.
		`# {trace_id="`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("SLO exposition missing %q", want)
		}
	}

	clean := do(t, newTestServer(t).Handler(), "GET", "/metrics", "")
	cleanText := clean.Body.String()
	if strings.Contains(cleanText, "slo_") {
		t.Error("exposition without an SLO profile carries slo_ families")
	}
	if strings.Contains(cleanText, "# {") {
		t.Error("exposition without an SLO profile carries exemplar suffixes")
	}
}

// TestSLOEndpointDeterministic: under the fake clock, two servers given
// the identical request sequence answer /v1/slo byte-identically, and
// repeated asks of an idle server do too. Without a profile the
// endpoint is 404.
func TestSLOEndpointDeterministic(t *testing.T) {
	drive := func(h http.Handler) string {
		do(t, h, "GET", "/v1/license?ctp=21125&dest=india", "")
		do(t, h, "GET", "/v1/license?ctp=500&dest=france", "")
		do(t, h, "GET", "/v1/healthz", "")
		rec := do(t, h, "GET", "/v1/slo", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("/v1/slo: %d %s", rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	runA := drive(sloServer(t, sloTestProfile, "").Handler())
	runB := drive(sloServer(t, sloTestProfile, "").Handler())
	if runA != runB {
		t.Errorf("/v1/slo diverged across identical runs:\nA %s\nB %s", runA, runB)
	}

	s := sloServer(t, sloTestProfile, "")
	first := do(t, s.Handler(), "GET", "/v1/slo", "").Body.String()
	second := do(t, s.Handler(), "GET", "/v1/slo", "").Body.String()
	if first != second {
		t.Errorf("idle /v1/slo not stable:\nfirst  %s\nsecond %s", first, second)
	}

	var resp SLOResponse
	if err := json.Unmarshal([]byte(runA), &resp); err != nil {
		t.Fatalf("decode /v1/slo: %v", err)
	}
	if resp.Profile != sloTestProfile {
		t.Errorf("profile = %q, want %q", resp.Profile, sloTestProfile)
	}
	if len(resp.Routes) == 0 {
		t.Fatal("no judged routes in /v1/slo")
	}

	if rec := do(t, newTestServer(t).Handler(), "GET", "/v1/slo", ""); rec.Code != http.StatusNotFound {
		t.Errorf("/v1/slo without a profile: %d, want 404", rec.Code)
	}
}

// TestSLOBurnUnderFaultsPages: with every request answered by an
// injected 503, the availability signal burns past the page threshold
// in every window and /v1/slo says so.
func TestSLOBurnUnderFaultsPages(t *testing.T) {
	s := sloServer(t, "availability=0.99", "error=1")
	h := s.Handler()
	for i := 0; i < 8; i++ {
		if rec := do(t, h, "GET", "/v1/license?ctp=500&dest=india", ""); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("faulted request %d: %d, want 503", i, rec.Code)
		}
	}
	rec := do(t, h, "GET", "/v1/slo", "")
	var resp SLOResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode /v1/slo: %v", err)
	}
	var found bool
	for _, r := range resp.Routes {
		if r.Route != "/v1/license" {
			continue
		}
		for _, sig := range r.Signals {
			if sig.Signal != slo.SignalAvailability {
				continue
			}
			found = true
			if sig.State != slo.StatePage {
				t.Errorf("availability state = %q, want page", sig.State)
			}
			for _, w := range sig.Windows {
				if w.Burn < 14.4 {
					t.Errorf("window %s burn = %g, want >= 14.4", w.Window, w.Burn)
				}
			}
		}
	}
	if !found {
		t.Fatal("/v1/license availability signal missing from /v1/slo")
	}
}

// TestSLOTransitionStreamsOnWatch: the ok->page transition the faulted
// traffic causes is published as a kind=slo event on /v1/watch.
func TestSLOTransitionStreamsOnWatch(t *testing.T) {
	prof, err := slo.Parse("availability=0.99")
	if err != nil {
		t.Fatalf("slo.Parse: %v", err)
	}
	fp, err := fault.Parse("error=1")
	if err != nil {
		t.Fatalf("fault.Parse: %v", err)
	}
	plan, err := fault.NewPlan(1, fp)
	if err != nil {
		t.Fatalf("fault.NewPlan: %v", err)
	}
	s, l := newWALServer(t, t.TempDir(), func(c *Config) {
		c.SLO = prof
		c.Fault = plan
	})
	defer func() { _ = l.Close() }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events := watchStream(t, ctx, ts.URL, "")

	for i := 0; i < 8; i++ {
		resp, err := http.Get(ts.URL + "/v1/license?ctp=500&dest=india")
		if err != nil {
			t.Fatalf("license: %v", err)
		}
		_ = resp.Body.Close()
	}
	// The engine evaluates at scrape time; the scrape is what notices
	// the burn and fires the transition.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	_ = resp.Body.Close()

	for {
		select {
		case ev := <-events:
			if ev.Kind != EventSLO {
				continue // injected-fault events share the stream
			}
			if ev.Route != "/v1/license" {
				t.Fatalf("slo event route = %q, want /v1/license", ev.Route)
			}
			if want := "availability ok->page"; ev.Detail != want {
				t.Fatalf("slo event detail = %q, want %q", ev.Detail, want)
			}
			return
		case <-ctx.Done():
			t.Fatal("no slo event arrived on /v1/watch")
		}
	}
}

// TestFlightRecPinsFaultAndTraceResolves: an injected 503 becomes a
// pinned capture whose trace ID resolves in /v1/traces, and disabling
// the recorder turns the endpoint into a 404.
func TestFlightRecPinsFaultAndTraceResolves(t *testing.T) {
	s := sloServer(t, sloTestProfile, "error=1")
	h := s.Handler()

	req := httptest.NewRequest("GET", "/v1/license?ctp=500&dest=india", nil)
	req.Header.Set("X-Request-Id", "pin-me")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("faulted request: %d, want 503", rec.Code)
	}

	fr := do(t, h, "GET", "/v1/flightrec", "")
	if fr.Code != http.StatusOK {
		t.Fatalf("/v1/flightrec: %d", fr.Code)
	}
	var dump FlightRecResponse
	if err := json.Unmarshal(fr.Body.Bytes(), &dump); err != nil {
		t.Fatalf("decode /v1/flightrec: %v", err)
	}
	if len(dump.Pins) == 0 {
		t.Fatal("injected 503 produced no pinned group")
	}
	var pinned string
	for _, p := range dump.Pins {
		if !strings.HasPrefix(p.Trigger, "request:") {
			continue
		}
		for _, c := range p.Captures {
			if c.TraceID == "pin-me" {
				pinned = c.TraceID
				if c.Status != http.StatusServiceUnavailable {
					t.Errorf("pinned capture status = %d, want 503", c.Status)
				}
				if c.Fault == "" {
					t.Error("pinned capture missing the injected-fault marker")
				}
				if len(c.Anomalies) == 0 {
					t.Error("pinned capture carries no anomaly verdicts")
				}
			}
		}
	}
	if pinned == "" {
		t.Fatal("no pinned capture with the request's trace ID")
	}

	tr := do(t, h, "GET", "/v1/traces", "")
	var traces TracesResponse
	if err := json.Unmarshal(tr.Body.Bytes(), &traces); err != nil {
		t.Fatalf("decode /v1/traces: %v", err)
	}
	var resolved bool
	for _, trc := range traces.Traces {
		if trc.TraceID == pinned {
			resolved = true
		}
	}
	if !resolved {
		t.Errorf("pinned trace ID %q not present in /v1/traces", pinned)
	}

	off, err := New(Config{Clock: testClock, FlightCapacity: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if rec := do(t, off.Handler(), "GET", "/v1/flightrec", ""); rec.Code != http.StatusNotFound {
		t.Errorf("/v1/flightrec with the recorder disabled: %d, want 404", rec.Code)
	}
}

// TestFlightRecCapturesWALRegimeTransition: the commit that moves the
// decision log to a new threshold regime annotates its request's capture
// (WAL outcome, breaker note) and the regime-transition anomaly pins it.
func TestFlightRecCapturesWALRegimeTransition(t *testing.T) {
	s, l := newWALServer(t, t.TempDir(), nil)
	defer func() { _ = l.Close() }()
	h := s.Handler()

	do(t, h, "GET", "/v1/license?ctp=21125&dest=india&threshold=2000", "")
	do(t, h, "GET", "/v1/license?ctp=21125&dest=india&threshold=7000", "")

	var dump FlightRecResponse
	fr := do(t, h, "GET", "/v1/flightrec", "")
	if err := json.Unmarshal(fr.Body.Bytes(), &dump); err != nil {
		t.Fatalf("decode /v1/flightrec: %v", err)
	}
	if dump.Count < 2 {
		t.Fatalf("flight recorder holds %d captures, want >= 2", dump.Count)
	}
	var transition bool
	for _, p := range dump.Pins {
		if p.Trigger != "request:regime-transition" {
			continue
		}
		for _, c := range p.Captures {
			if c.Breaker == "regime 2000->7000" {
				transition = true
				if c.WAL != "committed" {
					t.Errorf("transition capture WAL = %q, want committed", c.WAL)
				}
				if c.Key == "" {
					t.Error("transition capture missing the canonical decision key")
				}
			}
		}
	}
	if !transition {
		t.Error("regime transition 2000->7000 was not pinned with its breaker note")
	}

	// The first commit merely establishes the regime: its capture carries
	// the WAL outcome but no anomaly.
	for _, c := range dump.Captures {
		if c.Route == "/v1/license" && c.Breaker == "" {
			if c.WAL != "committed" {
				t.Errorf("committed capture WAL = %q, want committed", c.WAL)
			}
		}
	}
}

// TestProfileOverrideRoutesChecked: New refuses a fault or SLO override
// that names a route the policy never applies to, which would otherwise
// be accepted and govern nothing, and its error names the route and
// lists the routes the policy accepts. Overrides of every accepted route
// build.
func TestProfileOverrideRoutesChecked(t *testing.T) {
	const (
		injectable = "/v1/apps, /v1/catalog, /v1/license, /v1/threshold"
		judged     = "/v1/apps, /v1/catalog, /v1/healthz, /v1/license, /v1/threshold"
	)
	build := func(faultSpec, sloSpec string) error {
		t.Helper()
		cfg := Config{Clock: testClock}
		fp, err := fault.Parse(faultSpec)
		if err != nil {
			t.Fatalf("fault.Parse(%q): %v", faultSpec, err)
		}
		if cfg.Fault, err = fault.NewPlan(1, fp); err != nil {
			t.Fatalf("fault.NewPlan: %v", err)
		}
		if cfg.SLO, err = slo.Parse(sloSpec); err != nil {
			t.Fatalf("slo.Parse(%q): %v", sloSpec, err)
		}
		_, err = New(cfg)
		return err
	}
	for _, tc := range []struct{ fault, slo, route, accepted string }{
		{fault: "/v1/licence:error=1", route: "/v1/licence", accepted: injectable},
		{fault: "error=0.5;/v1/healthz:error=0", route: "/v1/healthz", accepted: injectable},
		{slo: "availability=0.99;/metrics:availability=0.999", route: "/metrics", accepted: judged},
	} {
		err := build(tc.fault, tc.slo)
		if err == nil || !strings.Contains(err.Error(), tc.route) || !strings.Contains(err.Error(), tc.accepted) {
			t.Errorf("fault %q, slo %q: New error %v, want one naming %s and listing %s",
				tc.fault, tc.slo, err, tc.route, tc.accepted)
		}
	}
	if err := build("error=0.1;/v1/apps:off;/v1/catalog:off;/v1/license:off;/v1/threshold:off",
		"availability=0.99;/v1/apps:off;/v1/catalog:off;/v1/healthz:off;/v1/license:off;/v1/threshold:off"); err != nil {
		t.Errorf("overrides of every accepted route refused: %v", err)
	}
}
