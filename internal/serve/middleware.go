package serve

import (
	"context"
	"log/slog"
	"net/http"

	"repro/internal/obs"
)

// StatusWriter records the status code and whether a body write happened,
// so a middleware can log and record the outcome and recover cleanly from
// a handler panic without double-writing headers. Code is the status the
// response went out with, 0 until the handler writes. The server's and
// the gateway's middleware both wrap their handlers in one.
type StatusWriter struct {
	http.ResponseWriter
	Code  int
	wrote bool
}

func (w *StatusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.Code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.Code = http.StatusOK
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
// Each request is accounted once. The clock is read at arrival, when
// the semaphore admits the request (ending its wait and starting its
// latency), and when the handler returns. An observed request is counted
// at arrival in requests (healthz's requests, and the number of a minted
// ID) and in flight in the http_in_flight gauge (healthz's inFlight).
// One completion, on return or on a recovered panic, gives the metrics,
// the record and the log line the same status and latency: 500 for a
// panic before the handler wrote, else the status it wrote.
//
// Each observed request has one record, opened here and carried in one
// context value: the layers below add its decision key, WAL outcome and
// child spans, and the middleware seals it with the status, latency,
// cache state, fault and degraded mark. The middleware derives the
// request's context once — deadline, record, and the degraded mark of a
// poisoned arrival — and attaches it with a single WithContext.
//
// An inbound X-Request-Id header is echoed (and used as the trace ID) so
// client-side and server-side traces correlate; otherwise, or when it is
// longer than maxRequestIDBytes, the request is assigned the next value
// of the admission counter. The observability endpoints themselves
// (/metrics, /v1/metrics, /v1/traces, /v1/slo, /v1/flightrec;
// SelfObserved) are neither counted nor recorded and get no request ID,
// the gateway's rule too, which is what keeps a scrape from perturbing
// the telemetry it reads; they still take a semaphore slot, the panic
// guard and a log line. /v1/healthz is metered like any route but gets
// no record: a gateway probes every member each second, and recording
// the probes would push every real request out of the recorder's ring.
func (s *Server) middleware(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := RouteOf(r.URL.Path)
		observed := !SelfObserved(route)
		var id string
		if observed {
			idv := RequestID(r.Header, "", s.requests.Add(1))
			id = idv[0]
			w.Header()["X-Request-Id"] = idv
		}

		// /v1/watch is a long-lived event stream and takes a different
		// path through the stack: no deadline (a stream lives until its
		// client leaves or the server drains), no in-flight semaphore
		// slot (watchers would starve the query endpoints), no per-route
		// latency instruments (a stream's "latency" is its lifetime). It
		// has its own concurrency bound and its own metrics, registered
		// only when a WAL is mounted.
		if r.URL.Path == "/v1/watch" {
			if r.Method != http.MethodGet {
				WriteError(w, http.StatusMethodNotAllowed, "watch supports GET only")
				return
			}
			s.handleWatch(w, r)
			return
		}

		arrived := s.clock()
		select {
		case s.sem <- struct{}{}:
		case <-r.Context().Done():
			WriteJSON(w, http.StatusServiceUnavailable,
				ErrorResponse{Error: "server at capacity; client gave up waiting"})
			return
		}
		defer func() { <-s.sem }()
		start := s.clock()

		ctx := r.Context()
		var ri *routeInstruments
		var rec *obs.Record
		if observed {
			ri = s.met.admit(route, start.Sub(arrived))
			if route != "/v1/healthz" {
				ctx, rec = s.flightrec.Open(ctx, s.clock, start, r.Method, route, id)
			}
		}
		sw := &StatusWriter{ResponseWriter: w}
		var fault string
		var degraded bool
		defer func() {
			v := recover()
			panicked := v != nil
			if panicked && !sw.wrote {
				WriteJSON(sw, http.StatusInternalServerError, ErrorResponse{Error: "internal error"})
			}
			dur := max(s.clock().Sub(start), 0)
			slow := s.met.done(ri, sw.Code, dur, id, panicked)
			cache := sw.Header().Get("X-Cache")
			if rec != nil {
				var anomalies []string
				if panicked {
					anomalies = append(anomalies, "panic")
				}
				if sw.Code >= 500 {
					anomalies = append(anomalies, "5xx")
				}
				if slow {
					anomalies = append(anomalies, "slow")
				}
				if degraded {
					anomalies = append(anomalies, "degraded")
				}
				rec.Seal(sw.Code, uint64(dur), cache, fault, degraded, anomalies)
			}
			if s.logger != nil {
				level, msg := slog.LevelInfo, "request"
				attrs := []slog.Attr{
					slog.String("req", id),
					slog.String("method", r.Method),
					slog.String("route", route),
					slog.String("target", r.URL.RequestURI()),
					slog.Int("status", sw.Code),
					slog.Duration("duration", dur),
				}
				if cache != "" {
					attrs = append(attrs, slog.String("cache", cache))
				}
				if panicked {
					level, msg = slog.LevelError, "panic"
					attrs = append(attrs, slog.Any("value", v))
				}
				s.logger.LogAttrs(ctx, level, msg, attrs...)
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
