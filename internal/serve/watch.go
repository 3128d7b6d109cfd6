package serve

import (
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/wal"
)

// handleWatch streams WAL commit events — threshold-regime transitions
// and injected fault/degraded events — as Server-Sent Events. The
// endpoint exists only when a decision log is mounted (404 otherwise).
//
// Watch streams deliberately sidestep two pieces of the standard request
// machinery (see middleware): they are long-lived, so holding an
// in-flight semaphore slot would let a handful of watchers starve the
// query endpoints, and the request deadline would cut a stream that is
// meant to last until its client leaves or the server drains. They get
// their own concurrency bound (Config.MaxWatchers) and their own
// instruments (watch_subscribers, watch_events_total,
// watch_events_dropped_total), registered only when a WAL is mounted —
// which is also why this endpoint is exempt from the idle-scrape
// byte-identity rule only in WAL-mounted deployments, as documented in
// DESIGN.md.
//
// Wire format, one frame per event:
//
//	id: <seq>
//	event: <regime|fault|degraded>
//	data: <JSON wal.Event>
//
// ?since=N replays ring-buffered events with Seq > N first, so a client
// that reconnects after a drop resumes from its last-seen cursor (bounded
// by the hub's ring; older events are gone).
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if s.wal == nil {
		writeError(w, http.StatusNotFound, "no decision log mounted; start the daemon with -data-dir")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	if n := s.watchers.Add(1); int(n) > s.cfg.MaxWatchers {
		s.watchers.Add(-1)
		writeError(w, http.StatusServiceUnavailable,
			"watch subscriber limit (%d) reached", s.cfg.MaxWatchers)
		return
	}
	defer s.watchers.Add(-1)

	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad since cursor %q", v)
			return
		}
		since = n
	}

	sub, backlog := s.wal.Events().Subscribe(since, 64)
	defer s.wal.Events().Unsubscribe(sub)

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
		case ev, ok := <-sub.C:
			if !ok {
				// Hub closed: the daemon is draining. Ending the stream
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
func writeWatchEvent(w http.ResponseWriter, ev wal.Event) bool {
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

// WatchEvent is the decoded form of one /v1/watch event, re-exported so
// API consumers need not import internal/wal.
type WatchEvent = wal.Event
