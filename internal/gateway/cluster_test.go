// End-to-end cluster suites on the in-process harness. All of these run
// under -race in CI: the herd test races 64 goroutines through the
// gateway singleflight, the hedge test races two replicas and the
// verifier, and the chaos acceptance test drives a seeded 1000-request
// mix through three faulted backends.
package gateway

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// decisionKeyOf resolves the canonical decision key the gateway routes
// req by.
func decisionKeyOf(t *testing.T, req serve.LicenseRequest) string {
	t.Helper()
	key, ok := serve.ResolveDecisionKey(nil, &req)
	if !ok {
		t.Fatalf("request %+v did not resolve", req)
	}
	return string(key)
}

// TestGatewayRoutesStably pins the basic contract: the same key always
// lands on the same backend, the second fetch is that backend's cache
// hit, and the key population spreads over more than one member.
func TestGatewayRoutesStably(t *testing.T) {
	tc := newTestCluster(t, 3, Config{NoHedge: true}, nil)
	owners := map[string]bool{}
	for i := 0; i < 20; i++ {
		target := licenseTarget(i)
		code, h1, body1 := tc.get(target)
		if code != http.StatusOK {
			t.Fatalf("%s: %d: %s", target, code, body1)
		}
		code, h2, body2 := tc.get(target)
		if code != http.StatusOK {
			t.Fatalf("%s again: %d", target, code)
		}
		if a, b := h1.Get("X-Gw-Backend"), h2.Get("X-Gw-Backend"); a == "" || a != b {
			t.Fatalf("%s: owner moved %q -> %q", target, a, b)
		}
		if got := h2.Get("X-Cache"); got != "hit" {
			t.Errorf("%s: second fetch X-Cache = %q, want hit", target, got)
		}
		if !bytes.Equal(body1, body2) {
			t.Errorf("%s: cached body differs from cold body", target)
		}
		owners[h1.Get("X-Gw-Backend")] = true
	}
	if len(owners) < 2 {
		t.Errorf("20 keys all landed on one backend: %v", owners)
	}
}

// TestGatewayProxyByURIIsDeterministic pins catch-all routing: an
// unkeyed read (the catalog) goes to exactly one backend, and repeats
// go to the same one, so memo warming stays concentrated.
func TestGatewayProxyByURIIsDeterministic(t *testing.T) {
	tc := newTestCluster(t, 3, Config{NoHedge: true}, nil)
	var owner string
	for i := 0; i < 4; i++ {
		code, h, body := tc.get("/v1/catalog")
		if code != http.StatusOK {
			t.Fatalf("catalog via gateway: %d: %s", code, body)
		}
		if owner == "" {
			owner = h.Get("X-Gw-Backend")
		} else if h.Get("X-Gw-Backend") != owner {
			t.Fatalf("catalog moved %q -> %q", owner, h.Get("X-Gw-Backend"))
		}
	}
	total := 0
	for _, tb := range tc.backends {
		total += tb.pathHits("/v1/catalog")
	}
	if total != 4 || tc.backendFor(owner).pathHits("/v1/catalog") != 4 {
		t.Fatalf("catalog hits not concentrated on %s", owner)
	}

	// Unparseable license queries forward to a backend for the canonical
	// error text rather than dying at the gateway.
	code, _, body := tc.get("/v1/license?ctp=bogus")
	if code != http.StatusBadRequest || !bytes.Contains(body, []byte("error")) {
		t.Fatalf("bogus query: %d: %s", code, body)
	}

	// The event stream does not proxy: the gateway cannot merge N streams.
	code, _, _ = tc.get("/v1/watch")
	if code != http.StatusNotImplemented {
		t.Fatalf("watch via gateway: %d, want 501", code)
	}
}

// TestGatewayHedgeByteIdentity is the hedged-read e2e: one backend gets
// a slow fault profile, a key owned by it is fetched through the
// gateway, and the hedge must win with the replica's byte-identical
// answer while the verifier confirms the determinism contract held.
func TestGatewayHedgeByteIdentity(t *testing.T) {
	verdicts := make(chan bool, 4)
	tc := newTestCluster(t, 3, Config{
		HedgeCold: 5 * time.Millisecond,
		HedgeMin:  time.Millisecond,
	}, nil)
	tc.gw.afterHedgeVerify = func(match bool) { verdicts <- match }

	req := licenseRequest(3)
	key := decisionKeyOf(t, req)
	owners := tc.gw.healthyOwners(key, 2)
	if len(owners) != 2 {
		t.Fatalf("key resolved %d owners, want 2", len(owners))
	}
	primary, replica := owners[0], owners[1]
	tc.backendFor(primary).setDelay(150 * time.Millisecond)

	target := "/v1/license?" + req.Values().Encode()
	code, h, body := tc.get(target)
	if code != http.StatusOK {
		t.Fatalf("%s: %d: %s", target, code, body)
	}
	if got := h.Get("X-Gw-Backend"); got != replica {
		t.Fatalf("winner = %q, want the hedge replica %q", got, replica)
	}

	// The direct (un-hedged) answer from the fast replica must be the
	// same bytes the race returned.
	resp, err := http.Get(replica + target)
	if err != nil {
		t.Fatal(err)
	}
	direct := readAll(t, resp)
	if !bytes.Equal(body, direct) {
		t.Fatalf("hedged body differs from direct fetch:\n got: %s\nwant: %s", body, direct)
	}

	select {
	case match := <-verdicts:
		if !match {
			t.Fatal("hedge verifier reported a mismatch on identical replicas")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hedge verifier never ran")
	}
	if v := tc.gw.hedges.Value(); v < 1 {
		t.Errorf("gateway_hedges_total = %d, want >= 1", v)
	}
	if v := tc.gw.hedgeWins.Value(); v < 1 {
		t.Errorf("gateway_hedge_wins_total = %d, want >= 1", v)
	}
	if v := tc.gw.hedgeIdentical.Value(); v < 1 {
		t.Errorf("gateway_hedge_identical_total = %d, want >= 1", v)
	}
	if v := tc.gw.hedgeMismatch.Value(); v != 0 {
		t.Errorf("gateway_hedge_mismatch_total = %d, want 0", v)
	}
}

// TestHedgingCutsAnOwnersRareStall pins why hedging stays: an owner
// that stalls 200 ms on every 50th /v1/license arrival. Under default
// hedging, on the wall clock so the hedge delay follows the owner's own
// p95, each of 200 sequential keyed GETs of the owner's keys finishes
// under 100 ms: a stalled fetch is raced, and the replica answers it.
// With NoHedge, the stalls reach the caller.
func TestHedgingCutsAnOwnersRareStall(t *testing.T) {
	const gets, every, stall = 200, 50, 200 * time.Millisecond
	for _, noHedge := range []bool{false, true} {
		tc := newTestCluster(t, 3, Config{NoHedge: noHedge, Clock: time.Now}, nil)
		owner := tc.backends[0]
		var targets []string
		for i := 0; len(targets) < 50; i++ {
			req := licenseRequest(i)
			if tc.gw.healthyOwners(decisionKeyOf(t, req), 1)[0] == owner.url {
				targets = append(targets, "/v1/license?"+req.Values().Encode())
			}
		}
		for _, target := range targets {
			if code, _, body := tc.get(target); code != http.StatusOK {
				t.Fatalf("warming %s: %d: %s", target, code, body)
			}
		}
		owner.setSlowEvery(every, stall)

		var slowest time.Duration
		for i := range gets {
			begin := time.Now()
			code, _, body := tc.get(targets[i%len(targets)])
			took := time.Since(begin)
			if code != http.StatusOK {
				t.Fatalf("noHedge=%v GET %d: %d: %s", noHedge, i, code, body)
			}
			if !noHedge && took >= 100*time.Millisecond {
				t.Errorf("hedged GET %d took %v, want under 100ms", i, took)
			}
			slowest = max(slowest, took)
		}
		if noHedge && slowest < stall {
			t.Errorf("NoHedge: slowest of %d GETs took %v, want a %v stall to reach the caller", gets, slowest, stall)
		}
		if hedges := tc.gw.hedges.Value(); noHedge != (hedges == 0) {
			t.Errorf("noHedge=%v: gateway_hedges_total = %d", noHedge, hedges)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGatewayHerdSingleFill is the thundering-herd e2e: 64 goroutines
// hit one cold key at once and exactly one backend computation happens
// cluster-wide. The leader is held at a barrier until all 63 other
// requests are provably coalesced behind it, so the assertion cannot
// pass by lucky timing.
func TestGatewayHerdSingleFill(t *testing.T) {
	const herd = 64
	tc := newTestCluster(t, 3, Config{NoHedge: true}, nil)

	req := licenseRequest(5)
	key := decisionKeyOf(t, req)
	tc.gw.flightBarrier = func(k string) {
		if k != key {
			return
		}
		deadline := time.Now().Add(10 * time.Second)
		for tc.gw.flights.Waiters(k) < herd-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	target := "/v1/license?" + req.Values().Encode()
	bodies := make([][]byte, herd)
	codes := make([]int, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := tc.front.Client().Get(tc.front.URL + target)
			if err != nil {
				t.Error(err)
				return
			}
			codes[i] = resp.StatusCode
			bodies[i] = readAll(t, resp)
		}(i)
	}
	wg.Wait()

	for i := 0; i < herd; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	totalFills := 0
	for _, tb := range tc.backends {
		totalFills += tb.pathHits("/v1/license")
	}
	if totalFills != 1 {
		t.Errorf("herd of %d cost %d backend computations, want exactly 1", herd, totalFills)
	}
	if v := tc.gw.flightLeader.Value(); v != 1 {
		t.Errorf("gateway_flight_leader_total = %d, want 1", v)
	}
	if v := tc.gw.flightCoalesced.Value(); v != herd-1 {
		t.Errorf("gateway_flight_coalesced_total = %d, want %d", v, herd-1)
	}
}

// TestGatewayDrainAndRejoin steps the prober deterministically through a
// backend's self-reported degradation: immediate drain, traffic moving
// to the next ring owner (and ONLY the drained member's keys moving),
// flapping health held out, and rejoin after the configured streak.
func TestGatewayDrainAndRejoin(t *testing.T) {
	tc := newTestCluster(t, 3, Config{NoHedge: true, RejoinAfter: 3}, nil)

	// Pick a key and learn its owner, plus a key owned elsewhere.
	reqA := licenseRequest(0)
	keyA := decisionKeyOf(t, reqA)
	ownerA := tc.gw.healthyOwners(keyA, 1)[0]
	var reqB serve.LicenseRequest
	var ownerB string
	for i := 1; i < 64; i++ {
		reqB = licenseRequest(i)
		ownerB = tc.gw.healthyOwners(decisionKeyOf(t, reqB), 1)[0]
		if ownerB != ownerA {
			break
		}
	}
	if ownerB == ownerA {
		t.Fatal("could not find a key owned by a different backend")
	}

	fetchOwner := func(req serve.LicenseRequest) string {
		code, h, body := tc.get("/v1/license?" + req.Values().Encode())
		if code != http.StatusOK {
			t.Fatalf("license: %d: %s", code, body)
		}
		return h.Get("X-Gw-Backend")
	}
	if got := fetchOwner(reqA); got != ownerA {
		t.Fatalf("keyA served by %q, want %q", got, ownerA)
	}

	clusterHealth := func() HealthResponse {
		code, _, body := tc.get("/v1/healthz")
		if code != http.StatusOK {
			t.Fatalf("gateway healthz: %d", code)
		}
		var h HealthResponse
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("gateway healthz: %v", err)
		}
		return h
	}
	if h := clusterHealth(); h.Status != "ok" || h.Healthy != 3 {
		t.Fatalf("initial cluster health = %s (%d healthy), want ok/3", h.Status, h.Healthy)
	}

	// The owner degrades; one probe drains it.
	tc.backendFor(ownerA).setHealthz("degraded")
	tc.probeAll()
	if h := clusterHealth(); h.Status != "degraded" || h.Healthy != 2 {
		t.Fatalf("after drain: %s (%d healthy), want degraded/2", h.Status, h.Healthy)
	}
	moved := fetchOwner(reqA)
	if moved == ownerA {
		t.Fatal("drained backend still receives new keys")
	}
	if want := tc.gw.healthyOwners(keyA, 1)[0]; moved != want {
		t.Fatalf("keyA moved to %q, want next ring owner %q", moved, want)
	}
	// A key owned by a healthy member does not move: draining never
	// reshuffles the ring.
	if got := fetchOwner(reqB); got != ownerB {
		t.Fatalf("keyB moved %q -> %q on an unrelated drain", ownerB, got)
	}

	// Flapping: one healthy probe, then degraded again — the streak
	// resets and the backend stays out.
	tc.backendFor(ownerA).setHealthz("ok")
	tc.probeAll()
	tc.backendFor(ownerA).setHealthz("degraded")
	tc.probeAll()
	if got := fetchOwner(reqA); got == ownerA {
		t.Fatal("flapping backend rejoined before its streak")
	}

	// Three consecutive healthy probes rejoin it, and keyA returns home.
	tc.backendFor(ownerA).setHealthz("ok")
	tc.probeAll()
	tc.probeAll()
	if got := fetchOwner(reqA); got == ownerA {
		t.Fatal("backend rejoined one probe early")
	}
	tc.probeAll()
	if got := fetchOwner(reqA); got != ownerA {
		t.Fatalf("after rejoin keyA served by %q, want %q", got, ownerA)
	}
	h := clusterHealth()
	if h.Status != "ok" || h.Healthy != 3 {
		t.Fatalf("after rejoin: %s (%d healthy), want ok/3", h.Status, h.Healthy)
	}
	for _, b := range h.Backends {
		if b.URL != ownerA {
			continue
		}
		if b.Drains != 1 || b.Rejoins != 1 {
			t.Fatalf("owner drains/rejoins = %d/%d, want 1/1", b.Drains, b.Rejoins)
		}
	}
}

// TestGatewayFailStaticWhenAllDrained pins the fallback: with every
// member drained the gateway still routes (to the key's primary owner)
// rather than refusing, and counts the fallback.
func TestGatewayFailStaticWhenAllDrained(t *testing.T) {
	tc := newTestCluster(t, 3, Config{NoHedge: true}, nil)
	for _, tb := range tc.backends {
		tb.setHealthz("failing")
	}
	tc.probeAll()
	code, _, body := tc.get("/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "failing" || h.Healthy != 0 {
		t.Fatalf("cluster health = %s (%d healthy), want failing/0", h.Status, h.Healthy)
	}
	code, _, body = tc.get(licenseTarget(1))
	if code != http.StatusOK {
		t.Fatalf("license with all drained: %d: %s", code, body)
	}
	if v := tc.gw.noHealthy.Value(); v == 0 {
		t.Error("fail-static fallback not counted")
	}
}

// TestGatewayConcurrentColdBatches posts cold batches from several
// callers at once, each forwarded whole to its first item's owner;
// every answer must arrive before the deadline, byte-identical to a
// single node's answer to the same batch.
func TestGatewayConcurrentColdBatches(t *testing.T) {
	const callers, rounds, items = 4, 4, 24
	tc := newTestCluster(t, 3, Config{NoHedge: true}, nil)
	single, err := serve.New(serve.Config{Clock: gwTestClock})
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([]string, callers*rounds)
	for b := range bodies {
		bodies[b] = batchBody(t, licenseRange(b*items, items))
	}
	post := func(h http.Handler, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/license", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	// The gateway handler runs in process: a hung batch then fails the
	// deadline below instead of blocking the front server's shutdown.
	got := make([]*httptest.ResponseRecorder, len(bodies))
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got[c*rounds+r] = post(tc.gw.Handler(), bodies[c*rounds+r])
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent cold batches unanswered after 10s")
	}

	for i, rec := range got {
		want := post(single.Handler(), bodies[i])
		if rec.Code != http.StatusOK || want.Code != http.StatusOK {
			t.Fatalf("batch %d: status %d, single node %d: %s", i, rec.Code, want.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("batch %d differs from the single node's answer", i)
		}
	}
}

// TestGatewayMembershipReload pins file-watched membership: the file is
// authoritative once it parses, growing it moves only the keys the new
// member takes over, and shrinking it moves only the departed member's
// keys.
func TestGatewayMembershipReload(t *testing.T) {
	tc := newTestCluster(t, 3, Config{NoHedge: true}, nil)
	all := tc.gw.Members()
	dir := t.TempDir()
	memFile := filepath.Join(dir, "cluster.txt")

	writeMembers := func(urls []string, mtime time.Time) {
		t.Helper()
		data := "# test cluster\n" + strings.Join(urls, "\n") + "\n"
		if err := os.WriteFile(memFile, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(memFile, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}

	// Start a second gateway on two members, file-driven.
	base := time.Unix(900000000, 0)
	writeMembers(all[:2], base)
	gw2, err := New(Config{Backends: nil, MembershipFile: memFile, NoHedge: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw2.Close)
	if got := gw2.Members(); len(got) != 2 {
		t.Fatalf("initial members = %v, want the 2 in the file", got)
	}

	const keys = 200
	ownerOf := func(g *Gateway, i int) string {
		return g.healthyOwners(decisionKeyOf(t, licenseRequest(i)), 1)[0]
	}
	before := make([]string, keys)
	for i := range before {
		before[i] = ownerOf(gw2, i)
	}

	// Grow to three members: keys either stay or move to the newcomer.
	writeMembers(all, base.Add(2*time.Second))
	gw2.reloadMembership()
	if got := gw2.Members(); len(got) != 3 {
		t.Fatalf("members after grow = %v, want 3", got)
	}
	tookOver := 0
	for i := range before {
		after := ownerOf(gw2, i)
		if after == before[i] {
			continue
		}
		if after != all[2] {
			t.Fatalf("key %d moved %q -> %q, not to the new member", i, before[i], after)
		}
		tookOver++
	}
	if tookOver == 0 {
		t.Error("new member took over no keys")
	}

	// Shrink by dropping the first member: only its keys move.
	grown := make([]string, keys)
	for i := range grown {
		grown[i] = ownerOf(gw2, i)
	}
	writeMembers(all[1:], base.Add(4*time.Second))
	gw2.reloadMembership()
	if got := gw2.Members(); len(got) != 2 {
		t.Fatalf("members after shrink = %v, want 2", got)
	}
	for i := range grown {
		after := ownerOf(gw2, i)
		if grown[i] == all[0] {
			if after == all[0] {
				t.Fatalf("key %d still owned by departed member", i)
			}
			continue
		}
		if after != grown[i] {
			t.Fatalf("key %d moved %q -> %q though only %q departed", i, grown[i], after, all[0])
		}
	}

	// A truncated file is an operator slip, not a drain-everything order.
	writeMembers(nil, base.Add(6*time.Second))
	gw2.reloadMembership()
	if got := gw2.Members(); len(got) != 2 {
		t.Fatalf("members after empty file = %v, want the previous 2", got)
	}
}

// TestVerifyHedgeMismatchIsRecorded pins what a determinism violation
// does: the mismatch counter moves and a capture pins in the flight
// recorder under the audited request's ID — and an identical pair does
// neither.
func TestVerifyHedgeMismatchIsRecorded(t *testing.T) {
	tc := newTestCluster(t, 2, Config{}, nil)
	g := tc.gw
	verdicts := make(chan bool, 2)
	g.afterHedgeVerify = func(match bool) { verdicts <- match }

	ok := func(body, from string) hedgeAnswer {
		return hedgeAnswer{res: &proxyResult{status: 200, body: []byte(body), backend: from}, from: from}
	}
	g.verifyHedge("k1", []string{"req-1"}, ok(`{"decision":1}`, "http://a"), ok(`{"decision":1}`, "http://b"))
	if m := <-verdicts; !m {
		t.Fatal("identical bodies reported as mismatch")
	}
	g.verifyHedge("k2", []string{"req-2"}, ok(`{"decision":1}`, "http://a"), ok(`{"decision":2}`, "http://b"))
	if m := <-verdicts; m {
		t.Fatal("differing bodies reported as match")
	}
	if v := g.hedgeIdentical.Value(); v != 1 {
		t.Errorf("identical counter = %d, want 1", v)
	}
	if v := g.hedgeMismatch.Value(); v != 1 {
		t.Errorf("mismatch counter = %d, want 1", v)
	}
	caps, pins := g.flightrec.Snapshot()
	all := append([]obs.Capture(nil), caps...)
	for _, pg := range pins {
		all = append(all, pg.Captures...)
	}
	found := false
	for _, c := range all {
		for _, a := range c.Anomalies {
			if strings.HasPrefix(a, "hedge:mismatch") && c.Key == "k2" {
				found = true
				if c.TraceID != "req-2" {
					t.Errorf("mismatch capture recorded under ID %q, want req-2", c.TraceID)
				}
			}
		}
	}
	if !found {
		t.Error("mismatch capture not recorded in the flight recorder")
	}
	if len(pins) == 0 {
		t.Error("mismatch capture was not pinned")
	}
}

// TestGatewayChaosClusterAcceptance is the cluster's acceptance gate:
// three backends under the chaos fault preset (30% injected errors, 20%
// latency, 10% poisoned caches), a seeded 1000-request mix of singles
// and batches over 50 distinct keys, every request retried to success.
// It must hold simultaneously that
//
//   - every 200 body (single and batch) is byte-identical to an
//     unfaulted single node answering the same request,
//   - each backend computed each key it caches exactly once — its
//     singleflight leader fills equal its decision-cache size — and the
//     cluster caches 50 to 150 entries: singles fill a key only at its
//     owner, but a batch fills its items at its first item's owner, so
//     a key may be cached at every backend, and
//   - gateway_hedge_mismatch_total is zero.
func TestGatewayChaosClusterAcceptance(t *testing.T) {
	const (
		mixSeed     = 7
		mixRequests = 1000
		distinct    = 50
	)
	tc := newTestCluster(t, 3, Config{
		NoHedge:  true, // hedging would double-fill cold keys; its contract has its own suite
		Attempts: 6,    // ride out 0.3^6 injected-error streaks
		Sleep:    func(time.Duration) {},
	}, func(t testing.TB, i int) *serve.Server {
		s, err := serve.New(serve.Config{
			Clock: gwTestClock,
			Fault: clusterChaosPlan(t, uint64(90+i)),
			Sleep: func(time.Duration) {}, // injected latency costs no wall time
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	})

	// The unfaulted reference node answers every request once.
	refSrv, err := serve.New(serve.Config{Clock: gwTestClock})
	if err != nil {
		t.Fatal(err)
	}
	refHTTP := httptest.NewServer(refSrv.Handler())
	t.Cleanup(refHTTP.Close)
	refTS := refHTTP.URL

	refBodies := make(map[string][]byte, distinct)
	for i := 0; i < distinct; i++ {
		resp, err := http.Get(refTS + licenseTarget(i))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference %s: %d: %s", licenseTarget(i), resp.StatusCode, body)
		}
		refBodies[licenseTarget(i)] = body
	}

	// fetch200 retries one gateway request until the chaos schedule lets
	// it through (injected errors surface as relayed 503s).
	client := tc.front.Client()
	fetch200 := func(do func() (*http.Response, error)) []byte {
		t.Helper()
		for try := 0; try < 60; try++ {
			resp, err := do()
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			if resp.StatusCode == http.StatusOK {
				return body
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("unexpected %d: %s", resp.StatusCode, body)
			}
		}
		t.Fatal("request never succeeded in 60 tries")
		return nil
	}

	rng := rand.New(rand.NewSource(mixSeed))
	batches := 0
	for n := 0; n < mixRequests; n++ {
		if rng.Intn(10) < 3 {
			// A batch of 3..12 keys drawn with replacement, compared
			// whole against the reference node.
			reqs := make([]serve.LicenseRequest, 3+rng.Intn(10))
			for j := range reqs {
				reqs[j] = licenseRequest(rng.Intn(distinct))
			}
			raw, err := json.Marshal(serve.BatchRequest{Requests: reqs})
			if err != nil {
				t.Fatal(err)
			}
			got := fetch200(func() (*http.Response, error) {
				return client.Post(tc.front.URL+"/v1/license", "application/json", bytes.NewReader(raw))
			})
			req, _ := http.NewRequest(http.MethodPost, "/v1/license", bytes.NewReader(raw))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			refSrv.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("reference batch: %d", rec.Code)
			}
			if !bytes.Equal(got, rec.Body.Bytes()) {
				t.Fatalf("request %d: batch differs from single node:\n got: %s\nwant: %s", n, got, rec.Body.Bytes())
			}
			batches++
			continue
		}
		target := licenseTarget(rng.Intn(distinct))
		got := fetch200(func() (*http.Response, error) { return client.Get(tc.front.URL + target) })
		if !bytes.Equal(got, refBodies[target]) {
			t.Fatalf("request %d: %s differs from single node:\n got: %s\nwant: %s", n, target, got, refBodies[target])
		}
	}

	// Warm every key past its chaos slots so each is certainly cached on
	// its owner (a poisoned arrival computes but must not fill).
	for i := 0; i < distinct; i++ {
		target := licenseTarget(i)
		warm := false
		for try := 0; try < 100 && !warm; try++ {
			resp, err := client.Get(tc.front.URL + target)
			if err != nil {
				t.Fatal(err)
			}
			hit := resp.Header.Get("X-Cache") == "hit"
			body := readAll(t, resp)
			if resp.StatusCode == http.StatusOK {
				if !bytes.Equal(body, refBodies[target]) {
					t.Fatalf("warm %s differs from single node", target)
				}
				warm = hit
			}
		}
		if !warm {
			t.Fatalf("key %d never became a cache hit", i)
		}
	}

	// Exactly one leader fill per key a backend caches.
	totalCached := 0
	for _, tb := range tc.backends {
		code, exposition := getJSON(t, tb.url+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("backend metrics: %d", code)
		}
		fills := promCounterValue(t, exposition, "singleflight_leader_fills_total")
		code, hz := getJSON(t, tb.url+"/v1/healthz")
		if code != http.StatusOK {
			t.Fatalf("backend healthz: %d", code)
		}
		var h serve.HealthResponse
		if err := json.Unmarshal(hz, &h); err != nil {
			t.Fatal(err)
		}
		if fills != uint64(h.Decisions.Size) {
			t.Errorf("%s: %d leader fills for %d cached decisions, want one each", tb.url, fills, h.Decisions.Size)
		}
		totalCached += h.Decisions.Size
		if h.Faults == nil || h.Faults.InjectedErrors == 0 {
			t.Error("a chaos backend reports no injected faults; the test exercised nothing")
		}
	}
	if totalCached < distinct || totalCached > len(tc.backends)*distinct {
		t.Errorf("cluster-wide cached decisions = %d, want %d to %d", totalCached, distinct, len(tc.backends)*distinct)
	}
	if v := tc.gw.hedgeMismatch.Value(); v != 0 {
		t.Errorf("gateway_hedge_mismatch_total = %d, want 0", v)
	}
	if v := tc.gw.noHealthy.Value(); v != 0 {
		t.Errorf("fail-static fallback fired %d times with all backends up", v)
	}
	if batches == 0 || batches == mixRequests {
		t.Fatalf("degenerate mix: %d batches of %d requests", batches, mixRequests)
	}
	if v := tc.gw.retries.Value(); v == 0 {
		t.Error("chaos run recorded no forwarding retries; the fault path was not exercised")
	}
}
