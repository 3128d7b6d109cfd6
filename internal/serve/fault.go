package serve

import (
	"context"
	"net/http"

	"repro/internal/fault"
)

// degradedKey marks a request whose caches are poisoned for this arrival.
type degradedKey struct{}

// withDegraded marks the context degraded: read paths must treat every
// cache and memo as poisoned and recompute directly.
func withDegraded(ctx context.Context) context.Context {
	return context.WithValue(ctx, degradedKey{}, true)
}

// isDegraded reports whether this request must bypass caches.
func isDegraded(ctx context.Context) bool {
	v, _ := ctx.Value(degradedKey{}).(bool)
	return v
}

// faultInjectable reports whether a route is subject to fault injection.
// The observability endpoints are exempt (injection there would perturb
// the telemetry that reports on injection), and so is /v1/healthz: the
// health probe must stay reachable while everything else burns, and a
// readiness poll must not consume schedule slots out from under the
// routes whose fault sequence the chaos suite replays.
func faultInjectable(route string) bool {
	return !SelfObserved(route) && route != "/v1/healthz"
}

// injectFault consumes the plan's next schedule slot for the route and
// applies the decision. It reports which fault fired ("" for none),
// whether the arrival is poisoned (the caller marks the request's
// context degraded), and whether the request was fully handled here —
// true only for an injected error, which has already been written as a
// 503. The injected-fault headers make every perturbed response
// self-describing:
//
//	X-Fault-Injected: error|latency|poison   which fault fired
//	X-Degraded: cache-bypass                 served without caches
func (s *Server) injectFault(w http.ResponseWriter, route string) (fired string, degraded, handled bool) {
	d := s.fault.Next(route)
	if d.Kind == fault.None {
		return "", false, false
	}
	fired = d.Kind.String()
	w.Header().Set("X-Fault-Injected", fired)
	s.met.faultInjected(route, d.Kind)
	s.publishFaultEvent(route, d.Kind)
	switch d.Kind {
	case fault.Error:
		WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "injected fault"})
		return fired, false, true
	case fault.Latency:
		s.sleep(d.Delay)
	case fault.Poison:
		w.Header().Set("X-Degraded", "cache-bypass")
		s.met.degradedResponse()
		return fired, true, false
	}
	return fired, false, false
}

// publishFaultEvent surfaces an injected fault on the watch stream when
// a decision log is mounted. Poison faults publish as degraded — the
// observable consequence — and everything else under its fault kind.
func (s *Server) publishFaultEvent(route string, kind fault.Kind) {
	ev := WatchEvent{Kind: EventFault, Route: route, Detail: kind.String()}
	if kind == fault.Poison {
		ev.Kind = EventDegraded
		ev.Detail = "cache-bypass"
	}
	s.hub.publish(ev)
}

// FaultStats is the cumulative fault-injection accounting /v1/healthz
// reports while a fault plan is mounted.
type FaultStats struct {
	InjectedErrors  uint64 `json:"injectedErrors"`
	InjectedLatency uint64 `json:"injectedLatency"`
	PoisonedLookups uint64 `json:"poisonedLookups"`
	Degraded        uint64 `json:"degraded"`
}
