package serve

import (
	"net/http"

	"repro/internal/obs"
	"repro/internal/slo"
)

// The SLO integration: a passive burn-rate engine over the per-route
// instruments the middleware already maintains. Nothing here runs on its
// own schedule — the engine evaluates when something reads it (/v1/slo,
// /metrics, /v1/metrics), at the server's injected clock, so the same
// traffic under the same fake clock yields the same verdicts on every
// run. State transitions observed during an evaluation fan out to the
// watch stream (kind "slo") and pin the flight recorder's recent
// captures, so the requests that burned the budget are preserved next to
// the verdict they caused.

// initSLO mounts the burn-rate engine: one judged route per active
// objective, each sourced from the route's status-class and slow
// counters, plus the read-at-scrape slo_* gauges. Called from New after
// newServerMetrics, only when the profile is active.
func (s *Server) initSLO() {
	s.slo = slo.New(0, s.onSLOTransition)
	for _, route := range obsRoutes {
		if selfObserved(route) {
			continue
		}
		obj := s.cfg.SLO.For(route)
		ri, ok := s.met.routes[route]
		if !ok {
			continue
		}
		s.slo.Add(route, slo.Objective{
			Availability: obj.Availability,
			Latency:      obj.Latency,
			PageBurn:     obj.PageBurn,
			TicketBurn:   obj.TicketBurn,
		}, routeTotals(ri))
	}
	s.registerSLOMetrics()
}

// routeTotals builds one route's Totals source: total answered requests
// across the status classes, server errors, and requests over the
// latency objective. Counters are monotone, which is all the engine
// needs.
func routeTotals(ri *routeInstruments) slo.Source {
	return func() slo.Totals {
		var t slo.Totals
		for _, c := range ri.classes {
			t.Total += c.Value()
		}
		t.Errors = ri.classes[3].Value() // 5xx
		if ri.slow != nil {
			t.Slow = ri.slow.Value()
		}
		return t
	}
}

// registerSLOMetrics exposes the engine's cached verdicts as
// read-at-scrape gauges. Registered only when an SLO profile is mounted,
// so an unjudged daemon's exposition shape is unchanged; under a mounted
// profile the gauges read the evaluation the scrape itself just ran, so
// idle scrapes stay byte-identical (zero traffic means zero burn,
// whatever the clock says).
func (s *Server) registerSLOMetrics() {
	reg := s.met.reg
	for _, re := range s.slo.Routes() {
		route := re.Route
		l := obs.L("route", route)
		for _, se := range re.Signals {
			signal := se.Signal
			sl := obs.L("signal", signal)
			for _, w := range slo.Windows {
				window := w.Name
				reg.Func("slo_burn_rate", "error-budget burn rate, by route, signal, and window", obs.KindGauge,
					func() float64 { return s.slo.LastBurn(route, signal, window) },
					l, sl, obs.L("window", window))
			}
			reg.Func("slo_budget_remaining", "fraction of the shortest window's error budget left", obs.KindGauge,
				func() float64 { return s.slo.LastBudget(route, signal) }, l, sl)
			reg.Func("slo_state", "burn-rate severity: 0 ok, 1 warn, 2 page", obs.KindGauge,
				func() float64 { return s.slo.LastState(route, signal) }, l, sl)
		}
	}
}

// onSLOTransition handles one state change observed during an
// evaluation: it is published on the watch stream (when a decision log
// is mounted) and pins the flight recorder's most recent captures, so
// the requests that moved the burn rate are frozen alongside the
// verdict.
func (s *Server) onSLOTransition(t slo.Transition) {
	s.hub.publish(WatchEvent{
		Kind:   EventSLO,
		Route:  t.Route,
		Detail: t.Signal + " " + t.From + "->" + t.To,
	})
	if s.flightrec != nil {
		s.flightrec.Pin("slo:" + t.String())
	}
}

// sloEval runs one read-at-scrape evaluation at the server's clock. The
// metrics handlers call it before rendering so the slo_* gauges reflect
// the scrape instant, and /v1/slo serves the returned evaluation
// directly. A nil engine is a no-op.
func (s *Server) sloEval() slo.Evaluation {
	if s.slo == nil {
		return slo.Evaluation{}
	}
	return s.slo.Eval(s.clock())
}

// handleSLO serves the burn-rate verdicts for every judged route. The
// endpoint exists only when an SLO profile is mounted (404 otherwise).
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		writeError(w, http.StatusNotFound, "no SLO profile mounted; start the daemon with -slo")
		return
	}
	writeJSON(w, http.StatusOK, SLOResponse{
		Profile:    s.cfg.SLO.String(),
		Evaluation: s.sloEval(),
	})
}

// handleFlightRec dumps the flight recorder: the live capture ring
// newest-first plus every pinned anomaly group oldest-first. 404 when
// the recorder is disabled (Config.FlightCapacity < 0).
func (s *Server) handleFlightRec(w http.ResponseWriter, r *http.Request) {
	if s.flightrec == nil {
		writeError(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	caps, pins := s.flightrec.Snapshot()
	writeJSON(w, http.StatusOK, FlightRecResponse{
		Count:    len(caps),
		Captures: caps,
		Pins:     pins,
	})
}
