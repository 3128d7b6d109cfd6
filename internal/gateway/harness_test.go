// The in-process cluster harness: K real hpcexportd servers, each
// wrapped in an instrumented httptest shell, fronted by one Gateway —
// all in one process, so the e2e suites (hedging, herds, drains, chaos)
// run under -race with no sockets beyond the loopback and no sleeping
// prober (tests step probeOnce deterministically; Start is never
// called).
package gateway

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/serve"
)

// gwTestClock matches the serve suite's fixed clock (mid-1995).
func gwTestClock() time.Time { return time.Unix(800000000, 0) }

// testBackend is one cluster member: a real serve.Server behind a shell
// that counts per-path arrivals and injects the per-backend fault
// profile the harness owns — an added /v1/license delay, on every
// arrival or on every Nth, and a /v1/healthz override (so drain tests
// flip a backend's self-report without the sticky degradation a real
// fault plan would leave behind).
type testBackend struct {
	srv *serve.Server
	ts  *httptest.Server
	url string

	mu        sync.Mutex
	hits      map[string]int
	delay     time.Duration // extra wall-clock latency on /v1/license
	slowEvery int           // > 0: delay only every slowEvery-th /v1/license arrival
	slowSeen  int           // /v1/license arrivals since setSlowEvery
	healthz   string        // non-empty: override the healthz status
}

func (tb *testBackend) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tb.mu.Lock()
		tb.hits[r.URL.Path]++
		delay, hz := tb.delay, tb.healthz
		if r.URL.Path == "/v1/license" && tb.slowEvery > 0 {
			if tb.slowSeen++; tb.slowSeen%tb.slowEvery != 0 {
				delay = 0
			}
		}
		tb.mu.Unlock()
		if r.URL.Path == "/v1/healthz" && hz != "" {
			w.Header().Set("Content-Type", "application/json")
			_, _ = fmt.Fprintf(w, "{\"status\":%q}\n", hz)
			return
		}
		if r.URL.Path == "/v1/license" && delay > 0 {
			time.Sleep(delay)
		}
		tb.srv.Handler().ServeHTTP(w, r)
	})
}

func (tb *testBackend) pathHits(path string) int {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.hits[path]
}

func (tb *testBackend) setDelay(d time.Duration) {
	tb.mu.Lock()
	tb.delay = d
	tb.mu.Unlock()
}

// setSlowEvery delays every nth /v1/license arrival, counted from this
// call, by d; the arrivals between run at full speed.
func (tb *testBackend) setSlowEvery(n int, d time.Duration) {
	tb.mu.Lock()
	tb.delay, tb.slowEvery, tb.slowSeen = d, n, 0
	tb.mu.Unlock()
}

func (tb *testBackend) setHealthz(status string) {
	tb.mu.Lock()
	tb.healthz = status
	tb.mu.Unlock()
}

// healthzOf fetches a backend's or the gateway's aggregated healthz.
func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, body
}

// promCounterValue parses one un-labelled counter out of a Prometheus
// exposition.
func promCounterValue(t *testing.T, exposition []byte, name string) uint64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindSubmatch(exposition)
	if m == nil {
		t.Fatalf("metric %s not found in exposition", name)
	}
	v, err := strconv.ParseUint(string(m[1]), 10, 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

// testCluster is K instrumented backends and one gateway, with the
// gateway itself also listening on loopback so tests exercise the full
// HTTP path end to end.
type testCluster struct {
	t        testing.TB
	backends []*testBackend
	gw       *Gateway
	front    *httptest.Server
}

// newTestCluster builds the cluster. cfg.Backends is filled in by the
// harness; mkServer builds member i's server (nil for a plain unfaulted
// daemon on the fixed test clock). The gateway's prober is NOT started —
// tests drive probeOnce and reloadMembership directly.
func newTestCluster(t testing.TB, k int, cfg Config, mkServer func(t testing.TB, i int) *serve.Server) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	urls := make([]string, 0, k)
	for i := 0; i < k; i++ {
		var s *serve.Server
		if mkServer != nil {
			s = mkServer(t, i)
		} else {
			var err error
			s, err = serve.New(serve.Config{Clock: gwTestClock})
			if err != nil {
				t.Fatalf("serve.New: %v", err)
			}
		}
		tb := &testBackend{srv: s, hits: make(map[string]int)}
		tb.ts = httptest.NewServer(tb.handler())
		tb.url = tb.ts.URL
		t.Cleanup(tb.ts.Close)
		tc.backends = append(tc.backends, tb)
		urls = append(urls, tb.url)
	}
	cfg.Backends = urls
	if cfg.Clock == nil {
		cfg.Clock = gwTestClock
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	tc.gw = gw
	t.Cleanup(gw.Close)
	tc.front = httptest.NewServer(gw.Handler())
	t.Cleanup(tc.front.Close)
	return tc
}

// backendFor maps a member URL back to its harness shell.
func (tc *testCluster) backendFor(url string) *testBackend {
	tc.t.Helper()
	for _, tb := range tc.backends {
		if tb.url == url {
			return tb
		}
	}
	tc.t.Fatalf("no harness backend for %q", url)
	return nil
}

// get fetches a gateway path and returns status, headers, and body.
func (tc *testCluster) get(path string) (int, http.Header, []byte) {
	tc.t.Helper()
	resp, err := tc.front.Client().Get(tc.front.URL + path)
	if err != nil {
		tc.t.Fatalf("GET %s: %v", path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tc.t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, resp.Header, body
}

// post sends a JSON body to a gateway path.
func (tc *testCluster) post(path, body string) (int, http.Header, []byte) {
	tc.t.Helper()
	resp, err := tc.front.Client().Post(tc.front.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		tc.t.Fatalf("POST %s: %v", path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		tc.t.Fatalf("POST %s: %v", path, err)
	}
	return resp.StatusCode, resp.Header, b
}

// licenseTarget renders the i-th distinct license query of the shared
// test population: unique (ctp, destination) pairs under one explicit
// threshold, mirroring the serve chaos suite's request generator.
func licenseTarget(i int) string {
	return "/v1/license?" + licenseRequest(i).Values().Encode()
}

func licenseRequest(i int) serve.LicenseRequest {
	dests := []string{
		"japan", "france", "sweden", "india",
		"iran", "united states", "taiwan", "russia",
	}
	return serve.LicenseRequest{
		CTP:         serve.CTPValue(500 + 37*i),
		Destination: dests[i%len(dests)],
		Threshold:   1500,
	}
}

// clusterChaosPlan builds a fault plan for the chaos preset at a seed.
func clusterChaosPlan(t testing.TB, seed uint64) *fault.Plan {
	t.Helper()
	prof, err := fault.Parse("chaos")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.NewPlan(seed, prof)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// healthyOwners returns up to n distinct healthy owners for key — the
// primary and the hedge replica.
func (g *Gateway) healthyOwners(key string, n int) []string {
	return g.appendHealthyOwners(nil, key, n)
}

// probeAll steps the gateway's prober once, as the background loop
// would.
func (tc *testCluster) probeAll() {
	tc.t.Helper()
	tc.gw.probeOnce(context.Background())
}
