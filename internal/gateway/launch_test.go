package gateway

import (
	"bytes"
	"net/http"
	"sync"
	"testing"
	"time"
)

// parkedFetchers reports how many fetch goroutines are parked.
func (g *Gateway) parkedFetchers() int {
	g.fetchMu.Lock()
	defer g.fetchMu.Unlock()
	return len(g.parked)
}

// waitParked waits until at least n fetch goroutines are parked and
// returns how many are.
func waitParked(t *testing.T, g *Gateway, n int) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.parkedFetchers() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return g.parkedFetchers()
}

// TestLauncherReusesOneParkedFetcher pins the reuse: sequential keyed
// GETs, each of a cold key, run one after another on one fetch
// goroutine, which stays parked between them. A launcher that started a
// goroutine per fetch would leave one parked per GET, or none.
func TestLauncherReusesOneParkedFetcher(t *testing.T) {
	const n = 8
	tc := newTestCluster(t, 3, Config{NoHedge: true}, nil)
	for i := 0; i < n; i++ {
		target := licenseTarget(i)
		if code, _, body := tc.get(target); code != http.StatusOK {
			t.Fatalf("%s: %d: %s", target, code, body)
		}
		// The fetch goroutine parks just after handing its answer over;
		// the next GET must find it parked.
		if got := waitParked(t, tc.gw, 1); got != 1 {
			t.Fatalf("after GET %d: %d parked fetch goroutines, want 1", i+1, got)
		}
	}
	tc.gw.Close()
	if got := tc.gw.parkedFetchers(); got != 0 {
		t.Fatalf("after Close: %d parked fetch goroutines, want 0", got)
	}
}

// TestLauncherHedgesOnReusedFetchers races hedges on parked goroutines:
// concurrent keyed GETs of cold keys whose owner is slowed, in two
// waves, the second launched onto the goroutines the first one parked.
// Every answer must be byte-identical to a direct fetch, every hedge
// verified as a match, and Close must then return with nothing parked.
func TestLauncherHedgesOnReusedFetchers(t *testing.T) {
	const callers, perCaller = 4, 3
	// At most one verdict per keyed GET, two waves of them.
	verdicts := make(chan bool, 2*callers*perCaller)
	tc := newTestCluster(t, 3, Config{
		HedgeCold: 5 * time.Millisecond,
		HedgeMin:  time.Millisecond,
	}, nil)
	tc.gw.afterHedgeVerify = func(match bool) { verdicts <- match }
	slow := tc.backends[0]

	// Two waves of distinct keys the slow backend owns. Both waves
	// together stay under hedgeMinSamples latency samples on it, so the
	// hedge delay stays HedgeCold, far below the slow answers.
	var targets []string
	for i := 0; len(targets) < 2*callers*perCaller; i++ {
		req := licenseRequest(i)
		if tc.gw.healthyOwners(decisionKeyOf(t, req), 1)[0] == slow.url {
			targets = append(targets, "/v1/license?"+req.Values().Encode())
		}
	}
	slow.setDelay(50 * time.Millisecond)

	wave := func(targets []string) {
		t.Helper()
		bodies := make([][]byte, len(targets))
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c * perCaller; i < (c+1)*perCaller; i++ {
					resp, err := tc.front.Client().Get(tc.front.URL + targets[i])
					if err != nil {
						t.Error(err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s: status %d", targets[i], resp.StatusCode)
					}
					bodies[i] = readAll(t, resp)
				}
			}(c)
		}
		wg.Wait()
		for i, target := range targets {
			resp, err := http.Get(tc.backends[1].url + target)
			if err != nil {
				t.Fatal(err)
			}
			if direct := readAll(t, resp); !bytes.Equal(bodies[i], direct) {
				t.Fatalf("%s: gateway answer differs from a direct fetch:\n got: %s\nwant: %s", target, bodies[i], direct)
			}
		}
	}
	half := len(targets) / 2
	wave(targets[:half])
	if got := waitParked(t, tc.gw, 1); got == 0 {
		t.Fatal("no fetch goroutine parked after the first wave")
	}
	wave(targets[half:])

	tc.gw.Close()
	if got := tc.gw.parkedFetchers(); got != 0 {
		t.Fatalf("after Close: %d parked fetch goroutines, want 0", got)
	}
	hedges := int(tc.gw.hedges.Value())
	if hedges == 0 {
		t.Fatal("no hedge fired against the slowed owner")
	}
	// Close joined every verifier, so every verdict is in.
	if len(verdicts) != hedges {
		t.Fatalf("%d hedge verdicts for %d hedges", len(verdicts), hedges)
	}
	for i := 0; i < hedges; i++ {
		if !<-verdicts {
			t.Fatal("hedge verifier reported a mismatch on identical replicas")
		}
	}
	if v := tc.gw.hedgeMismatch.Value(); v != 0 {
		t.Errorf("gateway_hedge_mismatch_total = %d, want 0", v)
	}
}
