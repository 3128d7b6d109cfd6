package serve

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// statusWriter records the status code and whether a body write happened,
// so the middleware can log the outcome and recover cleanly from a
// handler panic without double-writing headers.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// middleware wraps the endpoint mux with, outermost first: request-ID
// assignment, the in-flight semaphore, tracing, flight-recorder capture,
// observability, structured logging, a panic guard, fault injection, and
// the per-request deadline. The semaphore queues excess requests rather
// than rejecting them — a request waits for a slot until its client
// gives up — so MaxInFlight bounds concurrency, not throughput. A slot is
// held until the handler returns, so MaxInFlight bounds running handlers
// too.
//
// The deadline is Config.RequestTimeout on the request context, started
// after admission and fault injection. It bounds waits, not work: a
// request coalesced onto another's computation stops waiting at the
// deadline and is answered 503 {"error":"request timed out"}, while a
// computation that overruns runs to completion, is answered when it
// returns, and holds its slot until then. The handler runs on the
// connection's goroutine; no goroutine or response buffer is added per
// request.
//
// The middleware derives the request's context once — deadline, trace
// root, capture state, and the degraded mark of a poisoned arrival — and
// attaches it with a single WithContext.
//
// An inbound X-Request-Id header is echoed (and used as the trace ID) so
// client-side and server-side traces correlate; otherwise the request is
// assigned the next value of the admission counter. The observability
// endpoints themselves (/metrics, /v1/metrics, /v1/traces, /v1/slo,
// /v1/flightrec) pass through unrecorded, untraced, and uncaptured,
// which is what keeps a scrape from perturbing the telemetry it reads.
func (s *Server) middleware(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq := s.requests.Add(1)
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = strconv.FormatUint(seq, 10)
		}
		w.Header().Set("X-Request-Id", id)

		// /v1/watch is a long-lived event stream and takes a different
		// path through the stack: no deadline (a stream lives until its
		// client leaves or the server drains), no in-flight semaphore
		// slot (watchers would starve the query endpoints), no per-route
		// latency instruments (a stream's "latency" is its lifetime). It
		// has its own concurrency bound and its own metrics, registered
		// only when a WAL is mounted.
		if r.URL.Path == "/v1/watch" {
			if r.Method != http.MethodGet {
				writeError(w, http.StatusMethodNotAllowed, "watch supports GET only")
				return
			}
			s.handleWatch(w, r)
			return
		}

		route := routeOf(r.URL.Path)
		observed := !selfObserved(route)

		semStart := s.clock()
		select {
		case s.sem <- struct{}{}:
		case <-r.Context().Done():
			writeJSON(w, http.StatusServiceUnavailable,
				ErrorResponse{Error: "server at capacity; client gave up waiting"})
			return
		}
		if observed && s.met != nil {
			s.met.semWait.ObserveDuration(s.clock().Sub(semStart))
			s.met.inFlight.Add(1)
		}
		s.inFlight.Add(1)
		defer func() {
			s.inFlight.Add(-1)
			if observed && s.met != nil {
				s.met.inFlight.Add(-1)
			}
			<-s.sem
		}()

		ctx := r.Context()
		var span *obs.Span
		if observed && s.tracer != nil {
			ctx, span = s.tracer.StartRoot(ctx, id, r.Method+" "+route)
			span.SetAttr("target", r.URL.RequestURI())
		}

		// The flight recorder captures every observed request in full
		// detail; the capture state travels in the context so the layers
		// below (decision fill, WAL commit) can annotate it.
		var cs *obs.CaptureState
		if observed && s.flightrec != nil {
			cs = obs.NewCaptureState(r.Method, route, id)
			ctx = obs.WithCaptureState(ctx, cs)
		}

		sw := &statusWriter{ResponseWriter: w}
		start := s.clock()
		defer func() {
			dur := s.clock().Sub(start)
			if rec := recover(); rec != nil {
				if !sw.wrote {
					writeJSON(sw, http.StatusInternalServerError,
						ErrorResponse{Error: "internal error"})
				}
				if observed && s.met != nil {
					s.met.panics.Inc()
					s.met.requestDone(route, http.StatusInternalServerError, int64(dur), id)
				}
				s.recordCapture(cs, sw, route, int64(dur), true)
				span.SetAttr("panic", "true")
				span.End()
				if s.logger != nil {
					s.logger.LogAttrs(ctx, slog.LevelError, "panic",
						slog.String("req", id), slog.String("route", route),
						slog.String("method", r.Method), slog.Any("value", rec))
				}
				return
			}
			if observed && s.met != nil {
				s.met.requestDone(route, sw.code, int64(dur), id)
			}
			s.recordCapture(cs, sw, route, int64(dur), false)
			cache := sw.Header().Get("X-Cache")
			if span != nil {
				span.SetAttr("status", statusText(sw.code))
				if cache != "" {
					span.SetAttr("cache", cache)
				}
				span.End()
			}
			if s.logger != nil {
				attrs := []slog.Attr{
					slog.String("req", id),
					slog.String("method", r.Method),
					slog.String("route", route),
					slog.String("target", r.URL.RequestURI()),
					slog.Int("status", sw.code),
					slog.Duration("duration", dur),
				}
				if cache != "" {
					attrs = append(attrs, slog.String("cache", cache))
				}
				s.logger.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
			}
		}()
		// Fault injection sits inside the full bookkeeping stack, so an
		// injected 503 or delay is metered, traced, and logged exactly
		// like an organic one.
		if s.fault != nil && faultInjectable(route) {
			degraded, handled := s.injectFault(sw, route, span)
			if handled {
				return
			}
			if degraded {
				ctx = withDegraded(ctx)
			}
		}
		ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
		inner.ServeHTTP(sw, r.WithContext(ctx))
	})
}

// recordCapture seals one request's flight-recorder capture with the
// response-side facts and the anomaly verdicts: a recovered panic, a
// server-error status, latency over the route's SLO objective, or a
// degraded (cache-bypassed) response. Any anomaly — these or one added
// below the middleware, like a WAL regime transition — makes the
// recorder pin the capture with its surrounding context. A nil capture
// state (self-observed route, or recorder disabled) is a no-op.
func (s *Server) recordCapture(cs *obs.CaptureState, sw *statusWriter, route string, durNs int64, panicked bool) {
	if cs == nil || s.flightrec == nil {
		return
	}
	if durNs < 0 {
		durNs = 0
	}
	h := sw.Header()
	injected := h.Get("X-Fault-Injected")
	degraded := h.Get("X-Degraded") != ""
	var anomalies []string
	if panicked {
		anomalies = append(anomalies, "panic")
	}
	if sw.code >= 500 {
		anomalies = append(anomalies, "5xx")
	}
	if ns := s.slowNsFor(route); ns > 0 && uint64(durNs) > ns {
		anomalies = append(anomalies, "slow")
	}
	if degraded {
		anomalies = append(anomalies, "degraded")
	}
	s.flightrec.Record(cs.Finish(sw.code, uint64(durNs), injected, degraded, anomalies))
}

// slowNsFor returns the route's latency objective in nanoseconds, 0 when
// the route has none (or no SLO profile is mounted).
func (s *Server) slowNsFor(route string) uint64 {
	if s.met == nil {
		return 0
	}
	if ri, ok := s.met.routes[route]; ok {
		return ri.slowNs
	}
	return 0
}
