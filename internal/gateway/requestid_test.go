package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// getWithID sends one GET through the gateway's front under a request ID
// ("" sends none) and returns the status and the answered ID.
func (tc *testCluster) getWithID(path, id string) (int, string) {
	tc.t.Helper()
	req, err := http.NewRequest(http.MethodGet, tc.front.URL+path, nil)
	if err != nil {
		tc.t.Fatal(err)
	}
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := tc.front.Client().Do(req)
	if err != nil {
		tc.t.Errorf("GET %s: %v", path, err)
		return 0, ""
	}
	readAll(tc.t, resp)
	return resp.StatusCode, resp.Header.Get("X-Request-Id")
}

// backendCaptures reads one backend's flight-recorder ring.
func backendCaptures(t *testing.T, s *serve.Server) []obs.Capture {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/flightrec", nil))
	var dump serve.FlightRecResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("decode backend /v1/flightrec: %v", err)
	}
	return dump.Captures
}

// TestGatewayHerdEchoesEachRequestID: a held herd of keyed GETs shares
// one backend answer, yet each request is answered under its own ID —
// the gateway echoes the ID itself instead of forwarding the leader's
// from the shared answer.
func TestGatewayHerdEchoesEachRequestID(t *testing.T) {
	const herd = 4
	tc := newTestCluster(t, 3, Config{NoHedge: true}, nil)
	req := licenseRequest(7)
	key := decisionKeyOf(t, req)
	tc.gw.flightBarrier = func(k string) {
		deadline := time.Now().Add(10 * time.Second)
		for k == key && tc.gw.flights.waitersFor(k) < herd-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	target := "/v1/license?" + req.Values().Encode()
	ids := []string{"h0", "h1", "h2", "h3"}
	got := make([]string, herd)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var code int
			if code, got[i] = tc.getWithID(target, ids[i]); code != http.StatusOK {
				t.Errorf("request %s: %d", ids[i], code)
			}
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if got[i] != id {
			t.Errorf("request %s answered under X-Request-Id %q", id, got[i])
		}
	}
	if v := tc.gw.flightCoalesced.Value(); v != herd-1 {
		t.Errorf("coalesced = %d, want %d: the herd was not held", v, herd-1)
	}
}

// TestGatewayMintsAndForwardsRequestID: a request that came without an
// ID, or with one over the 128-byte bound, is answered under an ID the
// gateway mints from its admission counter, recorded under it, and
// forwarded under it, so the backend's record carries the same ID — one
// that no request the backend numbered itself (a direct call, say) shares.
func TestGatewayMintsAndForwardsRequestID(t *testing.T) {
	tc := newTestCluster(t, 1, Config{NoHedge: true}, nil)
	// A recorded request the backend numbers itself.
	if code, _ := getJSON(t, tc.backends[0].url+"/v1/threshold"); code != http.StatusOK {
		t.Fatalf("direct threshold: %d", code)
	}
	for i, sent := range []string{"", strings.Repeat("x", 129)} {
		code, id := tc.getWithID(licenseTarget(i), sent)
		if code != http.StatusOK {
			t.Fatalf("request %d: %d", i, code)
		}
		if want := []string{"gw-1", "gw-2"}[i]; id != want {
			t.Errorf("request %d answered under %.20q, want the minted %q", i, id, want)
		}
		gwCaps, _ := tc.gw.flightrec.Snapshot()
		if gwCaps[0].TraceID != id {
			t.Errorf("gateway recorded request %d under %.20q, want %q", i, gwCaps[0].TraceID, id)
		}
		if c := backendCaptures(t, tc.backends[0].srv)[0]; c.TraceID != id {
			t.Errorf("backend recorded request %d under %.20q, want the forwarded %q", i, c.TraceID, id)
		}
	}
	seen := map[string]bool{}
	for _, c := range backendCaptures(t, tc.backends[0].srv) {
		if seen[c.TraceID] {
			t.Errorf("backend holds two records under ID %q", c.TraceID)
		}
		seen[c.TraceID] = true
	}
}
