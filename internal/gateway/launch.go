package gateway

// Every backend exchange a request waits on away from its own goroutine —
// a keyed fetch, its hedge replica, the hedge verifier — runs on a fetch
// goroutine. A keyed fetch cannot run inline on the handler's goroutine:
// a hedge that wins must be returned before the primary's Client.Do
// returns, and the primary must still finish so its answer can be
// byte-compared. A goroutine started per fetch would begin on a minimal
// stack that net/http's exchange regrows on every request, so a fetch
// goroutine parks after its fetch, keeping its grown stack, and the next
// fetch is handed to it.

// maxParkedFetchers bounds the fetch goroutines that stay parked between
// fetches. The goroutines a wider burst starts exit after their fetch.
const maxParkedFetchers = 64

// launch runs job on a parked fetch goroutine when one is idle and on a
// new one otherwise. It never blocks: a parked goroutine waits on a
// one-slot channel of its own, and launch removes that channel from the
// idle list before sending on it, so each slot receives one job per park.
func (g *Gateway) launch(job func()) {
	g.fetchMu.Lock()
	if n := len(g.parked); n > 0 {
		slot := g.parked[n-1]
		g.parked = g.parked[:n-1]
		g.fetchMu.Unlock()
		slot <- job
		return
	}
	g.fetchMu.Unlock()
	g.verifyWG.Add(1)
	go g.fetchLoop(make(chan func(), 1), job)
}

// fetchLoop runs job and then parks on slot for the next one, for as
// long as fewer than maxParkedFetchers are parked and Close has not
// run. Close closes the slots of the parked goroutines, which ends them.
func (g *Gateway) fetchLoop(slot chan func(), job func()) {
	defer g.verifyWG.Done()
	for {
		job()
		g.fetchMu.Lock()
		if g.fetchClosed || len(g.parked) >= maxParkedFetchers {
			g.fetchMu.Unlock()
			return
		}
		g.parked = append(g.parked, slot)
		g.fetchMu.Unlock()
		var ok bool
		if job, ok = <-slot; !ok {
			return
		}
	}
}

// releaseFetchers ends the parked fetch goroutines and makes every fetch
// goroutine exit after its current job instead of parking.
func (g *Gateway) releaseFetchers() {
	g.fetchMu.Lock()
	defer g.fetchMu.Unlock()
	g.fetchClosed = true
	for _, slot := range g.parked {
		close(slot)
	}
	g.parked = nil
}
