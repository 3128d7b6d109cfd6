package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// getWithID sends one GET to url, the gateway's front or a backend,
// under a request ID ("" sends none) and returns the status and the
// answered ID ("" when the answer carries none).
func getWithID(t *testing.T, url, id string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		return 0, ""
	}
	readAll(t, resp)
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
		for k == key && tc.gw.flights.Waiters(k) < herd-1 && time.Now().Before(deadline) {
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
			if code, got[i] = getWithID(t, tc.front.URL+target, ids[i]); code != http.StatusOK {
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
		code, id := getWithID(t, tc.front.URL+licenseTarget(i), sent)
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

// TestGatewayTelemetryReadsChangeNothing: the gateway answers /metrics,
// /v1/metrics, /v1/traces and /v1/flightrec from its own registry and
// ring, and reading them, or a /v1/slo read it proxies to a backend,
// neither counts nor records anything.
func TestGatewayTelemetryReadsChangeNothing(t *testing.T) {
	tc := newTestCluster(t, 3, Config{NoHedge: true}, nil)
	ids := []string{"tel-0", "tel-1", "tel-2", "tel-3"}
	for i, id := range ids {
		if code, _ := getWithID(t, tc.front.URL+licenseTarget(i), id); code != http.StatusOK {
			t.Fatalf("keyed GET %s: %d", id, code)
		}
	}
	ring, _ := tc.gw.flightrec.Snapshot()
	unchanged := func(after string) {
		t.Helper()
		if v := tc.gw.requests.Value(); v != uint64(len(ids)) {
			t.Errorf("after %s: gateway_requests_total = %d, want %d", after, v, len(ids))
		}
		if now, _ := tc.gw.flightrec.Snapshot(); !reflect.DeepEqual(now, ring) {
			t.Errorf("after %s: the ring holds %d records, want the %d keyed GETs'", after, len(now), len(ring))
		}
	}

	reads := map[string][]byte{}
	for _, path := range []string{"/metrics", "/v1/metrics", "/v1/traces", "/v1/flightrec"} {
		code, h, first := tc.get(path)
		_, _, second := tc.get(path)
		if code != http.StatusOK || h.Get("X-Gw-Backend") != "" {
			t.Fatalf("%s: %d from backend %q, want the gateway's own 200", path, code, h.Get("X-Gw-Backend"))
		}
		if !bytes.Equal(first, second) {
			t.Errorf("two reads of %s differ", path)
		}
		reads[path] = first
		unchanged(path)
	}
	if v := promCounterValue(t, reads["/metrics"], "gateway_requests_total"); v != uint64(len(ids)) {
		t.Errorf("exposition gateway_requests_total = %d, want %d", v, len(ids))
	}
	var traces serve.TracesResponse
	if err := json.Unmarshal(reads["/v1/traces"], &traces); err != nil {
		t.Fatalf("decode /v1/traces: %v", err)
	}
	if traces.Count != len(ids) {
		t.Fatalf("/v1/traces lists %d requests, want %d", traces.Count, len(ids))
	}
	for i, tr := range traces.Traces {
		want := ids[len(ids)-1-i] // newest first
		if tr.TraceID != want || tr.Spans[0].Name != "GET /v1/license" {
			t.Errorf("trace %d = %q %q, want %q GET /v1/license", i, tr.TraceID, tr.Spans[0].Name, want)
		}
	}

	// /v1/slo is the backends' to answer; the gateway passes it through
	// as it passes its own telemetry, unrecorded.
	if _, h, _ := tc.get("/v1/slo"); h.Get("X-Gw-Backend") == "" {
		t.Error("/v1/slo was not proxied to a backend")
	}
	unchanged("/v1/slo")
}

// healthzRequests reads the requests count of a daemon's /v1/healthz,
// a field the gateway's and the server's answers share.
func healthzRequests(t *testing.T, base string) uint64 {
	t.Helper()
	code, body := getJSON(t, base+"/v1/healthz")
	var h struct {
		Requests uint64 `json:"requests"`
	}
	if err := json.Unmarshal(body, &h); code != http.StatusOK || err != nil {
		t.Fatalf("%s/v1/healthz: %d %v", base, code, err)
	}
	return h.Requests
}

// TestTelemetryReadsLeaveHealthzUnchanged: in the gateway and in a
// backend alike, five reads each of the self-observed routes are
// answered without an X-Request-Id and leave healthz's requests where
// it was, while /v1/healthz and /v1/license are counted and echo or mint
// an ID. The gateway's healthz requests is gateway_requests_total.
func TestTelemetryReadsLeaveHealthzUnchanged(t *testing.T) {
	tc := newTestCluster(t, 1, Config{NoHedge: true}, nil)
	for _, d := range []struct{ name, base string }{
		{"gateway", tc.front.URL},
		{"backend", tc.backends[0].url},
	} {
		before := healthzRequests(t, d.base)
		for _, path := range []string{"/v1/healthz", licenseTarget(1)} {
			if _, got := getWithID(t, d.base+path, "sent-1"); got != "sent-1" {
				t.Errorf("%s %s under sent-1 answered under %q", d.name, path, got)
			}
			if _, got := getWithID(t, d.base+path, ""); got == "" {
				t.Errorf("%s %s with no ID answered under %q, want a minted one", d.name, path, got)
			}
		}
		counted := healthzRequests(t, d.base)
		if counted != before+5 {
			t.Errorf("%s healthz requests %d -> %d across four counted requests and a healthz read, want +5",
				d.name, before, counted)
		}
		for _, path := range []string{"/metrics", "/v1/metrics", "/v1/traces", "/v1/flightrec", "/v1/slo"} {
			for i := range 5 {
				if _, got := getWithID(t, d.base+path, ""); got != "" {
					t.Errorf("%s %s read %d answered under X-Request-Id %q", d.name, path, i, got)
				}
			}
		}
		if after := healthzRequests(t, d.base); after != counted+1 {
			t.Errorf("%s healthz requests %d -> %d across 25 telemetry reads, want only the healthz read counted",
				d.name, counted, after)
		}
	}
	if hz, total := healthzRequests(t, tc.front.URL), tc.gw.requests.Value(); hz != total {
		t.Errorf("gateway healthz requests = %d, gateway_requests_total = %d", hz, total)
	}
}
