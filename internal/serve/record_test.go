package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// spanNames lists a capture's child span names in ID order.
func spanNames(c obs.Capture) []string {
	var out []string
	for _, s := range c.Spans {
		out = append(out, s.Name)
	}
	return out
}

// flightRec decodes the server's /v1/flightrec dump.
func flightRec(t *testing.T, h http.Handler) FlightRecResponse {
	t.Helper()
	rec := do(t, h, "GET", "/v1/flightrec", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/flightrec: %d", rec.Code)
	}
	var dump FlightRecResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("decode /v1/flightrec: %v", err)
	}
	return dump
}

// getWithID sends one GET through the full stack under a request ID.
func getWithID(h http.Handler, target, id string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", target, nil)
	req.Header.Set("X-Request-Id", id)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestPinnedRecordKeepsSpansPastRingWrap: a request pinned by an anomaly
// keeps its whole record — capture and span tree — after more than
// FlightCapacity (the default, 256) later requests have wrapped the
// ring, because the span tree is part of the one record the pin freezes.
func TestPinnedRecordKeepsSpansPastRingWrap(t *testing.T) {
	const capacity = obs.DefaultRecorderCapacity
	s, l := newWALServer(t, t.TempDir(), nil)
	defer func() { _ = l.Close() }()
	h := s.Handler()

	if rec := do(t, h, "GET", "/v1/license?ctp=21125&dest=india&threshold=2000", ""); rec.Code != http.StatusOK {
		t.Fatalf("first commit: %d", rec.Code)
	}
	// The commit that moves the log to a new regime is pinned.
	const target = "/v1/license?ctp=21125&dest=india&threshold=7000"
	if rec := getWithID(h, target, "pinned"); rec.Code != http.StatusOK {
		t.Fatalf("transition request: %d", rec.Code)
	}
	for i := 0; i < capacity+capacity/4; i++ {
		if rec := do(t, h, "GET", target, ""); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			t.Fatalf("later request %d: %d %q", i, rec.Code, rec.Header().Get("X-Cache"))
		}
	}

	dump := flightRec(t, h)
	if dump.Count != capacity {
		t.Fatalf("ring holds %d captures, want %d", dump.Count, capacity)
	}
	for _, c := range dump.Captures {
		if c.TraceID == "pinned" {
			t.Fatal("pinned request is still in the live ring; it did not wrap")
		}
		if got := spanNames(c); len(got) != 1 || got[0] != "cache.lookup" {
			t.Errorf("hit capture %d spans = %v, want [cache.lookup]", c.Seq, got)
		}
	}
	var pinned *obs.Capture
	for _, g := range dump.Pins {
		for i := range g.Captures {
			if g.Captures[i].TraceID == "pinned" {
				pinned = &g.Captures[i]
			}
		}
	}
	if pinned == nil {
		t.Fatal("regime-transition request was not pinned")
	}
	if got := spanNames(*pinned); len(got) != 2 || got[0] != "cache.lookup" || got[1] != "safeguards.evaluate" {
		t.Fatalf("pinned capture spans = %v, want [cache.lookup safeguards.evaluate]", got)
	}
	lookup := pinned.Spans[0]
	if lookup.ID != 2 || lookup.Parent != 1 || len(lookup.Attrs) != 1 || lookup.Attrs[0] != (obs.Attr{Key: "result", Value: "miss"}) {
		t.Errorf("pinned cache.lookup span = %+v", lookup)
	}
	if pinned.Cache != "miss" || pinned.WAL != "committed" || pinned.Status != http.StatusOK {
		t.Errorf("pinned capture = %+v, want a 200 miss committed to the WAL", *pinned)
	}
	tr := pinned.Trace()
	if tr.TraceID != "pinned" || len(tr.Spans) != 3 || tr.Spans[0].Name != "GET /v1/license" {
		t.Errorf("pinned capture renders trace %+v", tr)
	}
}

// TestTracesAndFlightRecReadOneRing: /v1/traces and /v1/flightrec render
// the same records — the same requests, newest first, with each trace's
// root span carrying its capture's facts — and reading either changes
// neither: two reads of each are byte-identical.
func TestTracesAndFlightRecReadOneRing(t *testing.T) {
	h := newTestServer(t).Handler()
	for i, target := range []string{
		"/v1/license?ctp=500&dest=india",
		"/v1/license?ctp=500&dest=india",
		"/v1/threshold?date=1994.5",
		"/v1/license?ctp=-5&dest=india",
	} {
		getWithID(h, target, fmt.Sprintf("r%d", i))
	}

	a, b := do(t, h, "GET", "/v1/traces", ""), do(t, h, "GET", "/v1/traces", "")
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Error("two reads of /v1/traces differ")
	}
	fa, fb := do(t, h, "GET", "/v1/flightrec", ""), do(t, h, "GET", "/v1/flightrec", "")
	if !bytes.Equal(fa.Body.Bytes(), fb.Body.Bytes()) {
		t.Error("two reads of /v1/flightrec differ")
	}

	var traces TracesResponse
	if err := json.Unmarshal(a.Body.Bytes(), &traces); err != nil {
		t.Fatalf("decode /v1/traces: %v", err)
	}
	dump := flightRec(t, h)
	if traces.Count != 4 || dump.Count != 4 {
		t.Fatalf("traces = %d, captures = %d, want 4 each", traces.Count, dump.Count)
	}
	for i, c := range dump.Captures {
		tr := traces.Traces[i]
		if want := fmt.Sprintf("r%d", 3-i); c.TraceID != want || tr.TraceID != want {
			t.Fatalf("record %d: capture %q, trace %q, want %q", i, c.TraceID, tr.TraceID, want)
		}
		root := tr.Spans[0]
		if root.Name != c.Method+" "+c.Route || root.StartNs != c.StartNs || root.DurNs != int64(c.LatencyNs) {
			t.Errorf("trace %s root %+v does not match its capture %+v", tr.TraceID, root, c)
		}
		if len(tr.Spans) != len(c.Spans)+1 {
			t.Errorf("trace %s has %d spans, capture %d children", tr.TraceID, len(tr.Spans), len(c.Spans))
		}
		for _, at := range root.Attrs {
			if at.Key == "status" && at.Value != fmt.Sprint(c.Status) {
				t.Errorf("trace %s status attr %q, capture status %d", tr.TraceID, at.Value, c.Status)
			}
		}
	}
	if dump.Captures[3].Cache != "miss" || dump.Captures[2].Cache != "hit" {
		t.Errorf("cache states = %q, %q, want miss then hit", dump.Captures[3].Cache, dump.Captures[2].Cache)
	}
}

// TestHealthzMeteredNotRecorded: health probes are metered like any
// request but leave the recorder's ring alone, so a gateway probing every
// second does not push the real requests out of it.
func TestHealthzMeteredNotRecorded(t *testing.T) {
	h := newTestServer(t).Handler()
	if rec := getWithID(h, "/v1/license?ctp=500&dest=india", "real"); rec.Code != http.StatusOK {
		t.Fatalf("license: %d", rec.Code)
	}
	const probes = obs.DefaultRecorderCapacity + 64
	for i := 0; i < probes; i++ {
		if rec := do(t, h, "GET", "/v1/healthz", ""); rec.Code != http.StatusOK {
			t.Fatalf("probe %d: %d", i, rec.Code)
		}
	}

	dump := flightRec(t, h)
	if dump.Count != 1 || dump.Captures[0].TraceID != "real" {
		t.Fatalf("flight recorder holds %d captures, want only the license request", dump.Count)
	}
	var traces TracesResponse
	if err := json.Unmarshal(do(t, h, "GET", "/v1/traces", "").Body.Bytes(), &traces); err != nil {
		t.Fatalf("decode /v1/traces: %v", err)
	}
	if traces.Count != 1 || traces.Traces[0].TraceID != "real" {
		t.Fatalf("/v1/traces holds %d traces, want only the license request", traces.Count)
	}
	want := fmt.Sprintf(`http_requests_total{route="/v1/healthz",class="2xx"} %d`, probes)
	if prom := do(t, h, "GET", "/metrics", "").Body.String(); !strings.Contains(prom, want+"\n") {
		t.Errorf("/metrics lacks %s", want)
	}
}

// TestRecordSealsInjectedPoison: a poisoned arrival's fault and degraded
// mark reach the record from the fault injector itself, and its span
// tree shows the cache bypassed and the decision recomputed.
func TestRecordSealsInjectedPoison(t *testing.T) {
	h := sloServer(t, sloTestProfile, "poison=1").Handler()
	if rec := getWithID(h, "/v1/license?ctp=500&dest=india", "poisoned"); rec.Code != http.StatusOK {
		t.Fatalf("poisoned request: %d", rec.Code)
	}
	dump := flightRec(t, h)
	if dump.Count != 1 {
		t.Fatalf("ring holds %d captures, want 1", dump.Count)
	}
	c := dump.Captures[0]
	if c.TraceID != "poisoned" || c.Fault != "poison" || !c.Degraded || c.Cache != "miss" {
		t.Errorf("capture = %+v, want a degraded poison miss", c)
	}
	if len(c.Anomalies) != 1 || c.Anomalies[0] != "degraded" || len(dump.Pins) != 1 {
		t.Errorf("anomalies = %v with %d pins, want one degraded pin", c.Anomalies, len(dump.Pins))
	}
	if got := spanNames(c); len(got) != 2 || got[0] != "cache.lookup" || got[1] != "safeguards.evaluate" {
		t.Errorf("spans = %v, want [cache.lookup safeguards.evaluate]", got)
	}
	if a := c.Spans[0].Attrs; len(a) != 1 || a[0].Value != "bypass" {
		t.Errorf("cache.lookup attrs = %v, want result=bypass", a)
	}
}

// TestColdBatchRecord: a cold 64-item batch records one evaluation span
// per fill and no lookup span, in span-ID order, and its record keeps
// only the first 32 of them.
func TestColdBatchRecord(t *testing.T) {
	h := newTestServer(t).Handler()
	var items []string
	for i := 0; i < 64; i++ {
		items = append(items, fmt.Sprintf(`{"ctp":%d,"destination":"india"}`, 1000+i))
	}
	if rec := do(t, h, "POST", "/v1/license", `{"requests":[`+strings.Join(items, ",")+`]}`); rec.Code != http.StatusOK {
		t.Fatalf("batch: %d: %s", rec.Code, rec.Body)
	}
	c := flightRec(t, h).Captures[0]
	if len(c.Spans) != 32 {
		t.Errorf("batch record keeps %d spans, want the bound, 32", len(c.Spans))
	}
	for i, sp := range c.Spans {
		if sp.Name != "safeguards.evaluate" {
			t.Fatalf("batch spans = %v, want only per-fill evaluations", spanNames(c))
		}
		if i > 0 && sp.ID <= c.Spans[i-1].ID {
			t.Fatalf("spans not in ID order: %v", c.Spans)
		}
	}
}

// TestOverlongFieldsRejected: a trimmed destination or end use over
// maxFieldBytes is answered 400 on every path that resolves a decision,
// so no cache entry, WAL record or capture keeps it; at the bound it is
// served.
func TestOverlongFieldsRejected(t *testing.T) {
	h := newTestServer(t).Handler()
	ok := strings.Repeat("a", maxFieldBytes)
	long := strings.Repeat("a", maxFieldBytes+1)
	big := strings.Repeat("e", 300<<10)

	if rec := do(t, h, "GET", "/v1/license?ctp=500&dest="+ok+"&endUse="+ok, ""); rec.Code != http.StatusOK {
		t.Errorf("fields at the bound: %d, want 200: %s", rec.Code, rec.Body)
	}
	for _, tc := range []struct{ name, method, target, body, want string }{
		{"GET dest", "GET", "/v1/license?ctp=500&dest=" + long, "", "destination longer than 256 bytes"},
		{"GET endUse", "GET", "/v1/license?ctp=500&dest=india&endUse=" + long, "", "endUse longer than 256 bytes"},
		{"POST endUse", "POST", "/v1/license", `{"ctp":500,"destination":"india","endUse":"` + big + `"}`, "endUse longer than 256 bytes"},
		{"POST dest", "POST", "/v1/license", `{"ctp":500,"destination":"  ` + long + `  "}`, "destination longer than 256 bytes"},
	} {
		rec := do(t, h, tc.method, tc.target, tc.body)
		var e ErrorResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &e)
		if rec.Code != http.StatusBadRequest || e.Error != tc.want {
			t.Errorf("%s: %d %q, want 400 %q", tc.name, rec.Code, e.Error, tc.want)
		}
	}

	rec := do(t, h, "POST", "/v1/license", `{"requests":[{"ctp":500,"destination":"india"},{"ctp":500,"destination":"india","endUse":"`+big+`"}]}`)
	var br BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || rec.Code != http.StatusOK || len(br.Decisions) != 2 {
		t.Fatalf("batch: %d %v", rec.Code, err)
	}
	if br.Decisions[0].Decision == nil || br.Decisions[1].Error != "endUse longer than 256 bytes" {
		t.Errorf("batch items = %+v, want a decision then the length error", br.Decisions)
	}

	if _, ok := ResolveDecisionKey(nil, &LicenseRequest{CTP: 500, Destination: "india", EndUse: long}); ok {
		t.Error("ResolveDecisionKey resolved an over-long end use")
	}
	if _, ok := ResolveDecisionKey(nil, &LicenseRequest{CTP: 500, Destination: ok}); !ok {
		t.Error("ResolveDecisionKey refused a destination at the bound")
	}
}

// TestOverlongRequestIDIsMinted: an inbound X-Request-Id over
// maxRequestIDBytes is treated as absent — the request is answered and
// recorded under a minted ID — while one at the bound is echoed.
func TestOverlongRequestIDIsMinted(t *testing.T) {
	h := newTestServer(t).Handler()
	atBound := strings.Repeat("i", maxRequestIDBytes)
	if got := getWithID(h, "/v1/healthz", atBound).Header().Get("X-Request-Id"); got != atBound {
		t.Errorf("ID at the bound answered as %q", got)
	}
	rec := getWithID(h, "/v1/license?ctp=500&dest=india", strings.Repeat("i", maxRequestIDBytes+1))
	if got := rec.Header().Get("X-Request-Id"); got != "2" {
		t.Errorf("over-long ID answered as %.20q, want the minted 2", got)
	}
	if c := flightRec(t, h).Captures[0]; c.TraceID != "2" {
		t.Errorf("over-long ID recorded as %.20q, want the minted 2", c.TraceID)
	}
}
