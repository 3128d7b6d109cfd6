package serve

import (
	"slices"
	"sync"
)

// EventKind classifies /v1/watch events.
type EventKind string

const (
	// EventRegime is a threshold-regime transition: two consecutive
	// committed decisions were evaluated under different control
	// thresholds.
	EventRegime EventKind = "regime"
	// EventFault is an injected fault observed by the middleware.
	EventFault EventKind = "fault"
	// EventDegraded is a degraded (cache/memo-bypassed) response.
	EventDegraded EventKind = "degraded"
	// EventSLO is an SLO state transition (ok→warn→page and back)
	// reported by the burn-rate engine.
	EventSLO EventKind = "slo"
)

// WatchEvent is one entry of the /v1/watch stream. Seq is assigned by
// the hub at publish time and is strictly increasing for the life of the
// process; it is the cursor clients pass back as ?since= to resume after
// a dropped connection.
type WatchEvent struct {
	Seq       uint64    `json:"seq"`
	Kind      EventKind `json:"kind"`
	Key       string    `json:"key,omitempty"`
	Mtops     float64   `json:"mtops,omitempty"`
	PrevMtops float64   `json:"prev_mtops,omitempty"`
	Route     string    `json:"route,omitempty"`
	Detail    string    `json:"detail,omitempty"`
}

// Watch-stream bounds.
const (
	// hubRing is how many recent events the hub keeps for ?since=
	// resumption.
	hubRing = 256
	// maxWatchers bounds concurrent /v1/watch streams: they bypass the
	// in-flight semaphore precisely so they cannot starve it, and need
	// their own limit.
	maxWatchers = 16
	// watchBuffer is each stream's channel buffer: the events a stream
	// may fall behind by before the hub drops them for it.
	watchBuffer = 64
)

// hub fans events out to /v1/watch streams. It exists while a decision
// log is mounted. publish never blocks: a stream that cannot keep up has
// events dropped and counted rather than stalling the commit path. A
// ring of the last hubRing events backs ?since= resumption.
type hub struct {
	mu     sync.Mutex
	seq    uint64
	ring   [hubRing]WatchEvent
	start  int               // index of the oldest event in ring
	count  int               // live events in ring
	subs   []chan WatchEvent // live streams, in subscription order
	drops  uint64
	closed bool
}

// publish assigns the event its sequence number, records it in the
// resumption ring, and fans it out. A nil hub (no log mounted) drops the
// event.
func (h *hub) publish(ev WatchEvent) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	ev.Seq = h.seq
	if h.count == len(h.ring) {
		h.ring[h.start] = ev
		h.start = (h.start + 1) % len(h.ring)
	} else {
		h.ring[(h.start+h.count)%len(h.ring)] = ev
		h.count++
	}
	for _, c := range h.subs {
		select {
		case c <- ev:
		default:
			h.drops++
		}
	}
}

// subscribe registers a new stream, whose events arrive on c, and
// returns it along with the ringed backlog of events with sequence
// numbers greater than since (0 for live-only). The backlog is returned
// rather than queued so the caller can write it ahead of live events
// without loss or duplication: every ringed event after since is either
// in the backlog or will arrive on c. c closes when the hub closes
// (server drain) or the stream unsubscribes; after close it is returned
// already closed. ok is false, and nothing is registered, when
// maxWatchers streams are already live.
func (h *hub) subscribe(since uint64) (c chan WatchEvent, backlog []WatchEvent, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) >= maxWatchers {
		return nil, nil, false
	}
	for i := 0; i < h.count; i++ {
		ev := h.ring[(h.start+i)%len(h.ring)]
		if ev.Seq > since {
			backlog = append(backlog, ev)
		}
	}
	c = make(chan WatchEvent, watchBuffer)
	if h.closed {
		close(c)
		return c, backlog, true
	}
	h.subs = append(h.subs, c)
	return c, backlog, true
}

// unsubscribe removes the stream and closes its channel.
func (h *hub) unsubscribe(c chan WatchEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i := slices.Index(h.subs, c); i >= 0 {
		h.subs = slices.Delete(h.subs, i, i+1)
		close(c)
	}
}

// close shuts the hub down: every stream's channel closes and further
// publishes are dropped. Watch handlers observe the close and return, so
// a graceful drain does not wait out long-lived streams. A nil hub is a
// no-op.
func (h *hub) close() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, c := range h.subs {
		close(c)
	}
	h.subs = nil
}

// subscribers returns the live stream count, which both the subscriber
// bound and the watch_subscribers gauge read.
func (h *hub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// dropped returns the cumulative count of events lost to slow streams.
func (h *hub) dropped() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.drops
}
