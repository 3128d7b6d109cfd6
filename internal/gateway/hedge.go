package gateway

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
)

// hedgeAnswer is one fetch's outcome in a hedge race, tagged with the
// owner the fetch started at.
type hedgeAnswer struct {
	res  *proxyResult
	err  error
	from string
}

// hedgeDelay derives the hedge trigger from the primary owner's observed
// latency: the hedgeQuantile of its histogram once enough samples
// exist, HedgeCold before that, floored at HedgeMin. A slow shard
// therefore hedges late enough not to double normal traffic, and a
// suddenly-degraded one hedges as soon as it falls off its own tail.
func (g *Gateway) hedgeDelay(owner string) time.Duration {
	g.mu.RLock()
	b := g.backends[owner]
	g.mu.RUnlock()
	d := g.cfg.HedgeCold
	if b != nil && b.latency.Count() >= hedgeMinSamples {
		d = time.Duration(b.latency.Quantile(hedgeQuantile))
	}
	if d < g.cfg.HedgeMin {
		d = g.cfg.HedgeMin
	}
	return d
}

// hedgedFetch fetches one keyed request, racing a second replica if the
// primary has not answered by the hedge delay. The first answer wins and
// is returned immediately; a verifier drains the loser and, when both
// replicas answered 200, asserts the bodies are byte-identical — the
// determinism contract, audited for free on every hedge. The fetches and
// the verifier run on fetch goroutines (launch.go), on a context
// detached from the caller's (bounded by forwardTimeout instead), so
// coalesced waiters sharing this fill do not die with the leader's
// request, and the losing replica completes for verification even after
// the winner is already written.
func (g *Gateway) hedgedFetch(ctx context.Context, key, method, uri string, body []byte, id []string) (*proxyResult, error) {
	fctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), forwardTimeout)
	var ownerBuf [2]string
	owners := g.appendHealthyOwners(ownerBuf[:0], key, 2)
	canHedge := !g.cfg.NoHedge && len(owners) == 2

	ch := make(chan hedgeAnswer, 2)
	fetch := func(exclude, from string) {
		g.launch(func() {
			res, err := g.forwardKeyed(fctx, key, method, uri, body, id, exclude)
			ch <- hedgeAnswer{res: res, err: err, from: from}
		})
	}
	primary := ""
	if len(owners) > 0 {
		primary = owners[0]
	}
	fetch("", primary)
	launched := 1

	var timerC <-chan time.Time
	if canHedge {
		timer := time.NewTimer(g.hedgeDelay(primary))
		defer timer.Stop()
		timerC = timer.C
	}

	var win hedgeAnswer
	haveWin := false
	answered := 0
	for answered < launched && !haveWin {
		select {
		case a := <-ch:
			answered++
			if a.err == nil {
				win, haveWin = a, true
			} else if answered == launched {
				win = a
			}
		case <-timerC:
			timerC = nil
			g.hedges.Inc()
			fetch(owners[0], owners[1])
			launched++
		}
	}
	if haveWin && launched == 2 && win.from == owners[1] {
		g.hedgeWins.Inc()
	}
	if answered < launched {
		// The losing replica is still in flight: a verifier drains it and
		// audits the race before releasing the detached context.
		g.launch(func() {
			defer cancel()
			g.verifyHedge(key, id, win, <-ch)
		})
	} else {
		cancel()
	}
	if win.err != nil {
		return nil, win.err
	}
	return win.res, nil
}

// verifyHedge compares the two answers of a hedge race. Both 200 and
// byte-identical is the contract holding; a difference is a counted,
// flight-recorded determinism violation — surfaced, never masked,
// because a replica disagreeing on a pure function of the request means
// a cache, WAL, or codec bug somewhere upstream. The capture carries the
// request's ID, under which the backends recorded both fetches.
func (g *Gateway) verifyHedge(key string, id []string, a, b hedgeAnswer) {
	match := true
	if a.err == nil && b.err == nil &&
		a.res.status == http.StatusOK && b.res.status == http.StatusOK {
		if bytes.Equal(a.res.body, b.res.body) {
			g.hedgeIdentical.Inc()
		} else {
			match = false
			g.hedgeMismatch.Inc()
			g.logger.Error("hedge mismatch: replicas answered differently",
				"key", key, "a", a.res.backend, "b", b.res.backend)
			if g.flightrec != nil {
				var traceID string
				if len(id) > 0 {
					traceID = id[0]
				}
				g.flightrec.Record(obs.Capture{
					TraceID: traceID,
					Method:  "HEDGE",
					Route:   "/v1/license",
					Key:     key,
					Status:  http.StatusOK,
					Anomalies: []string{fmt.Sprintf("hedge:mismatch %s vs %s",
						a.res.backend, b.res.backend)},
				})
			}
		}
	}
	if g.afterHedgeVerify != nil {
		g.afterHedgeVerify(match)
	}
}
