package serve

import (
	"context"
	"log/slog"
	"net/http"
	"time"

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
// assignment, the in-flight semaphore, the request's flight-recorder
// record, observability, structured logging, a panic guard, fault
// injection, and the per-request deadline. The semaphore queues excess
// requests rather than rejecting them — a request waits for a slot until
// its client gives up — so MaxInFlight bounds concurrency, not
// throughput. A slot is held until the handler returns, so MaxInFlight
// bounds running handlers too.
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
// Each observed request has one record, opened here and carried in one
// context value: the layers below add its decision key, WAL outcome and
// child spans, and the middleware seals it with the status, latency,
// cache state, fault and degraded mark — timed by the same two clock
// reads as the request's metrics and log line. The middleware derives
// the request's context once — deadline, record, and the degraded mark
// of a poisoned arrival — and attaches it with a single WithContext.
//
// An inbound X-Request-Id header is echoed (and used as the trace ID) so
// client-side and server-side traces correlate; otherwise, or when it is
// longer than maxRequestIDBytes, the request is assigned the next value
// of the admission counter. The observability endpoints themselves
// (/metrics, /v1/metrics, /v1/traces, /v1/slo, /v1/flightrec) pass
// through unrecorded, which is what keeps a scrape from perturbing the
// telemetry it reads. /v1/healthz is metered like any route but gets no
// record: a gateway probes every member each second, and recording the
// probes would push every real request out of the recorder's ring.
func (s *Server) middleware(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		idv := RequestID(r.Header, "", s.requests.Add(1))
		id := idv[0]
		w.Header()["X-Request-Id"] = idv

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

		route := RouteOf(r.URL.Path)
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
		start := s.clock()
		var rec *obs.Record
		if observed && route != "/v1/healthz" {
			ctx, rec = s.flightrec.Open(ctx, s.clock, start, r.Method, route, id)
		}
		sw := &statusWriter{ResponseWriter: w}
		var fault string
		var degraded bool
		defer func() {
			dur := s.clock().Sub(start)
			cache := sw.Header().Get("X-Cache")
			if v := recover(); v != nil {
				if !sw.wrote {
					writeJSON(sw, http.StatusInternalServerError,
						ErrorResponse{Error: "internal error"})
				}
				if observed && s.met != nil {
					s.met.panics.Inc()
					s.met.requestDone(route, http.StatusInternalServerError, int64(dur), id)
				}
				s.seal(rec, route, sw.code, dur, cache, fault, degraded, true)
				if s.logger != nil {
					s.logger.LogAttrs(ctx, slog.LevelError, "panic",
						slog.String("req", id), slog.String("route", route),
						slog.String("method", r.Method), slog.Any("value", v))
				}
				return
			}
			if observed && s.met != nil {
				s.met.requestDone(route, sw.code, int64(dur), id)
			}
			s.seal(rec, route, sw.code, dur, cache, fault, degraded, false)
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
		// injected 503 or delay is metered, recorded, and logged exactly
		// like an organic one.
		if s.fault != nil && faultInjectable(route) {
			var handled bool
			if fault, degraded, handled = s.injectFault(sw, route); handled {
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

// seal completes one request's record with the response-side facts and
// the anomaly verdicts: a recovered panic, a server-error status,
// latency over the route's SLO objective, or a degraded (cache-bypassed)
// response. Any anomaly — these or one added below the middleware, like
// a WAL regime transition — makes the recorder pin the capture with its
// surrounding context. A nil record (self-observed route, or recorder
// disabled) is a no-op.
func (s *Server) seal(rec *obs.Record, route string, code int, dur time.Duration, cache, fault string, degraded, panicked bool) {
	if rec == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	var anomalies []string
	if panicked {
		anomalies = append(anomalies, "panic")
	}
	if code >= 500 {
		anomalies = append(anomalies, "5xx")
	}
	if ns := s.slowNsFor(route); ns > 0 && uint64(dur) > ns {
		anomalies = append(anomalies, "slow")
	}
	if degraded {
		anomalies = append(anomalies, "degraded")
	}
	rec.Seal(code, uint64(dur), cache, fault, degraded, anomalies)
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
