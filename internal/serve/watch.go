package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// handleWatch streams the server's watch events — threshold-regime
// transitions of committed decisions, injected fault/degraded events and
// SLO state changes — as Server-Sent Events. The endpoint exists only
// when a decision log is mounted (404 otherwise).
//
// Watch streams deliberately sidestep two pieces of the standard request
// machinery (see middleware): they are long-lived, so holding an
// in-flight semaphore slot would let a handful of watchers starve the
// query endpoints, and the request deadline would cut a stream that is
// meant to last until its client leaves or the server drains. They get
// their own concurrency bound (maxWatchers, enforced by the hub) and
// their own instruments (watch_subscribers, watch_events_total,
// watch_events_dropped_total), registered only when a WAL is mounted —
// which is also why this endpoint is exempt from the idle-scrape
// byte-identity rule only in WAL-mounted deployments, as documented in
// DESIGN.md.
//
// Wire format, one frame per event:
//
//	id: <seq>
//	event: <regime|fault|degraded|slo>
//	data: <JSON WatchEvent>
//
// ?since=N replays ring-buffered events with Seq > N first, so a client
// that reconnects after a drop resumes from its last-seen cursor (bounded
// by the hub's ring; older events are gone).
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if s.hub == nil {
		WriteError(w, http.StatusNotFound, "no decision log mounted; start the daemon with -data-dir")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad since cursor %q", v)
			return
		}
		since = n
	}

	events, backlog, ok := s.hub.subscribe(since)
	if !ok {
		WriteError(w, http.StatusServiceUnavailable,
			"watch subscriber limit (%d) reached", maxWatchers)
		return
	}
	defer s.hub.unsubscribe(events)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// An immediate comment frame commits the headers so clients observe
	// the stream as established before the first event arrives.
	_, _ = w.Write([]byte(": stream established\n\n"))
	flusher.Flush()

	for _, ev := range backlog {
		if !writeWatchEvent(w, ev) {
			return
		}
	}
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-events:
			if !ok {
				// Hub closed: the server is draining. Ending the stream
				// here is what lets graceful shutdown complete without
				// waiting out long-lived watchers.
				return
			}
			if !writeWatchEvent(w, ev) {
				return
			}
			s.watchEvents.Add(1)
			flusher.Flush()
		}
	}
}

// writeWatchEvent renders one SSE frame; false means the client is gone.
func writeWatchEvent(w http.ResponseWriter, ev WatchEvent) bool {
	data, err := json.Marshal(ev)
	if err != nil {
		return false
	}
	buf := make([]byte, 0, len(data)+64)
	buf = append(buf, "id: "...)
	buf = strconv.AppendUint(buf, ev.Seq, 10)
	buf = append(buf, "\nevent: "...)
	buf = append(buf, string(ev.Kind)...)
	buf = append(buf, "\ndata: "...)
	buf = append(buf, data...)
	buf = append(buf, '\n', '\n')
	_, werr := w.Write(buf)
	return werr == nil
}
