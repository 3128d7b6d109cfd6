package serve

import (
	"repro/internal/fault"
	"repro/internal/obs"
)

// obsRoutes are the route labels per-endpoint metrics are pre-registered
// under. Pre-registration (rather than on-demand creation) keeps the
// request hot path free of registry lookups and makes the /metrics
// exposition shape a constant from the first scrape: every family is
// present, at zero, before any traffic arrives.
var obsRoutes = []string{
	"/metrics",
	"/v1/apps",
	"/v1/catalog",
	"/v1/flightrec",
	"/v1/healthz",
	"/v1/license",
	"/v1/metrics",
	"/v1/slo",
	"/v1/threshold",
	"/v1/traces",
	"other",
}

// statusClasses are the response status classes counted per route.
var statusClasses = []string{"2xx", "3xx", "4xx", "5xx"}

// RouteOf maps a request path to its route label. Unknown paths collapse
// into "other" so an URL-shaped scan cannot grow the metric space or the
// flight recorder; the gateway records its requests under the same
// labels.
func RouteOf(path string) string {
	for _, r := range obsRoutes {
		if r != "other" && path == r {
			return r
		}
	}
	return "other"
}

// SelfObserved reports whether a route is one of the observability
// endpoints. Those are exempt from their own instruments — a /metrics
// scrape that counted itself would make two consecutive scrapes of an
// idle daemon differ, a traced /v1/traces request would change the very
// ring it reports, and a /v1/flightrec dump that recorded itself would
// push real captures out of the ring it is dumping — so reading the
// telemetry never changes it. The server's and the gateway's middleware
// both pass a request through unobserved by SelfObserved(RouteOf(path)).
func SelfObserved(route string) bool {
	switch route {
	case "/metrics", "/v1/metrics", "/v1/traces", "/v1/slo", "/v1/flightrec":
		return true
	}
	return false
}

// classIdx buckets a status code into its statusClasses index.
func classIdx(code int) int {
	switch {
	case code >= 200 && code < 300:
		return 0
	case code >= 300 && code < 400:
		return 1
	case code >= 400 && code < 500:
		return 2
	default:
		return 3
	}
}

// routeInstruments is one route's hot-path instrument set: the latency
// histogram plus one counter per status class, indexed by classIdx so a
// request records itself without building a lookup key.
type routeInstruments struct {
	latency *obs.Histogram
	classes [4]*obs.Counter

	// SLO instrumentation, live only under an active SLO profile: slowNs
	// is the route's latency objective in nanoseconds (0 when the route
	// has none), slow counts requests over it, and exemplars links the
	// latency histogram's buckets to the trace IDs of their slowest
	// observations.
	slowNs    uint64
	slow      *obs.Counter
	exemplars *obs.Exemplars
}

// serverMetrics is the service's instrument set, created once at New. A
// nil *serverMetrics disables recording entirely (the benchmarks use that
// to price the instrumentation); every recording site nil-checks.
type serverMetrics struct {
	reg      *obs.Registry
	inFlight *obs.Gauge
	semWait  *obs.Histogram
	panics   *obs.Counter
	routes   map[string]*routeInstruments

	// Singleflight accounting for the decision cache: how many cold
	// fills were computed as coalescing leader, and how many requests
	// rode along on another request's in-flight computation.
	flightLeaders *obs.Counter
	flightWaiters *obs.Counter

	// Fault-injection instruments, registered only when a fault plan is
	// mounted so an unfaulted daemon's exposition shape is unchanged.
	// faults indexes [kind-1] for Error, Latency, Poison.
	faults   map[string]*[3]*obs.Counter
	degraded *obs.Counter
}

// newServerMetrics registers the full instrument set and the read-through
// cache statistics of the two LRUs.
func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:      reg,
		inFlight: reg.Gauge("http_in_flight", "requests admitted past the semaphore and not yet answered"),
		semWait:  reg.Histogram("http_semaphore_wait_ns", "time spent queued for an in-flight slot"),
		panics:   reg.Counter("http_panics_total", "handler panics recovered by the middleware"),
		routes:   make(map[string]*routeInstruments, len(obsRoutes)),
	}
	m.flightLeaders = reg.Counter("singleflight_leader_fills_total",
		"cold decision fills computed as the coalescing leader")
	m.flightWaiters = reg.Counter("singleflight_coalesced_waits_total",
		"decision requests coalesced onto another request's in-flight fill")
	for _, route := range obsRoutes {
		if SelfObserved(route) {
			continue
		}
		ri := &routeInstruments{
			latency: reg.Histogram("http_request_ns", "request latency through the full middleware stack",
				obs.L("route", route)),
		}
		for i, class := range statusClasses {
			ri.classes[i] = reg.Counter("http_requests_total", "requests answered, by route and status class",
				obs.L("route", route), obs.L("class", class))
		}
		// SLO instrumentation registers only under an active profile, so
		// an unjudged daemon's exposition shape — and its idle-scrape
		// byte-identity against pre-SLO expositions — is unchanged.
		if obj := s.cfg.SLO.For(route); s.cfg.SLO.Active() && obj.Availability > 0 {
			ri.exemplars = reg.AttachExemplars("http_request_ns", obs.L("route", route))
			if obj.Latency > 0 {
				ri.slowNs = uint64(obj.Latency)
				ri.slow = reg.Counter("slo_slow_requests_total",
					"requests slower than the route's latency objective", obs.L("route", route))
			}
		}
		m.routes[route] = ri
	}
	if s.fault != nil {
		m.faults = make(map[string]*[3]*obs.Counter)
		m.degraded = reg.Counter("degraded_responses_total",
			"requests served cache-bypassed because a poison fault fired")
		for _, route := range obsRoutes {
			if !faultInjectable(route) {
				continue
			}
			var kinds [3]*obs.Counter
			for i, kind := range []string{"error", "latency", "poison"} {
				kinds[i] = reg.Counter("fault_injected_total", "faults injected, by route and kind",
					obs.L("route", route), obs.L("kind", kind))
			}
			m.faults[route] = &kinds
		}
	}
	registerCacheMetrics(reg, "decisions", s.decisions.Stats)
	registerCacheMetrics(reg, "snapshots", s.snapshots.Stats)
	if s.wal != nil {
		registerWALMetrics(reg, s)
	}
	obs.RegisterBuildInfo(reg, obs.BuildInfo())
	return m
}

// registerWALMetrics exposes the mounted decision log's accounting as
// read-at-scrape metrics. Registered only when a WAL is mounted, so a
// logless daemon's exposition shape — and the idle-scrape byte-identity
// the obs tests pin — is unchanged. In a WAL-mounted daemon idle scrapes
// remain byte-identical (the instruments read counters that only move
// with traffic); the documented exemption is /v1/watch delivery, whose
// counters advance as events stream.
func registerWALMetrics(reg *obs.Registry, s *Server) {
	reg.Func("wal_appends_total", "decision records committed to the log", obs.KindCounter,
		func() float64 { return float64(s.wal.Stats().Appends) })
	reg.Func("wal_fsyncs_total", "durability barriers issued by the log", obs.KindCounter,
		func() float64 { return float64(s.wal.Stats().Fsyncs) })
	reg.Func("wal_rotations_total", "segment rotations", obs.KindCounter,
		func() float64 { return float64(s.wal.Stats().Rotations) })
	reg.Func("snapshot_compactions_total", "snapshot compactions completed", obs.KindCounter,
		func() float64 { return float64(s.wal.Stats().Compactions) })
	reg.Func("wal_replayed_records", "decisions admitted to the cache by warm-start replay", obs.KindGauge,
		func() float64 { return float64(s.walReplayed.Load()) })
	reg.Func("wal_replay_mismatches_total", "log records rejected at replay (unparseable or hash mismatch)", obs.KindCounter,
		func() float64 { return float64(s.walMismatches.Load()) })
	reg.Func("wal_append_errors_total", "decision commits the log failed to persist", obs.KindCounter,
		func() float64 { return float64(s.walAppendErrs.Load()) })
	reg.Func("watch_subscribers", "live /v1/watch streams", obs.KindGauge,
		func() float64 { return float64(s.hub.subscribers()) })
	reg.Func("watch_events_total", "events delivered to /v1/watch streams", obs.KindCounter,
		func() float64 { return float64(s.watchEvents.Load()) })
	reg.Func("watch_events_dropped_total", "events dropped at slow /v1/watch subscribers", obs.KindCounter,
		func() float64 { return float64(s.hub.dropped()) })
}

// flightLead records one cold fill computed as coalescing leader.
func (m *serverMetrics) flightLead() {
	if m == nil {
		return
	}
	m.flightLeaders.Inc()
}

// flightWait records one request coalesced onto an in-flight fill.
func (m *serverMetrics) flightWait() {
	if m == nil {
		return
	}
	m.flightWaiters.Inc()
}

// faultInjected records one injected fault. kind must be a real fault
// (never fault.None); unknown routes and a nil receiver are ignored.
func (m *serverMetrics) faultInjected(route string, kind fault.Kind) {
	if m == nil || m.faults == nil {
		return
	}
	if kinds, ok := m.faults[route]; ok && kind >= fault.Error && kind <= fault.Poison {
		kinds[kind-1].Inc()
	}
}

// degradedResponse records one cache-bypassed (poisoned) response.
func (m *serverMetrics) degradedResponse() {
	if m == nil || m.degraded == nil {
		return
	}
	m.degraded.Inc()
}

// faultTotals sums the fault counters across routes for /v1/healthz.
func (m *serverMetrics) faultTotals() FaultStats {
	var fs FaultStats
	if m == nil || m.faults == nil {
		return fs
	}
	for _, route := range obsRoutes {
		kinds, ok := m.faults[route]
		if !ok {
			continue
		}
		fs.InjectedErrors += kinds[fault.Error-1].Value()
		fs.InjectedLatency += kinds[fault.Latency-1].Value()
		fs.PoisonedLookups += kinds[fault.Poison-1].Value()
	}
	fs.Degraded = m.degraded.Value()
	return fs
}

// registerCacheMetrics exposes one LRU's statistics as read-at-scrape
// metrics, so the exposition always reflects the cache's own accounting
// with no double bookkeeping on the request path.
func registerCacheMetrics(reg *obs.Registry, name string, stats func() CacheStats) {
	l := obs.L("cache", name)
	reg.Func("cache_entries", "entries currently cached", obs.KindGauge,
		func() float64 { return float64(stats().Size) }, l)
	reg.Func("cache_hits_total", "lookups answered from the cache", obs.KindCounter,
		func() float64 { return float64(stats().Hits) }, l)
	reg.Func("cache_misses_total", "lookups that fell through to computation", obs.KindCounter,
		func() float64 { return float64(stats().Misses) }, l)
	reg.Func("cache_evictions_total", "entries dropped to stay within capacity", obs.KindCounter,
		func() float64 { return float64(stats().Evictions) }, l)
}

// requestDone records one answered request. route must be a RouteOf
// result; self-observed routes never reach here. traceID feeds exemplar
// collection when the route's histogram is armed.
func (m *serverMetrics) requestDone(route string, code int, durNs int64, traceID string) {
	if m == nil {
		return
	}
	ri, ok := m.routes[route]
	if !ok {
		return
	}
	ri.classes[classIdx(code)].Inc()
	if durNs < 0 {
		durNs = 0
	}
	ri.latency.Observe(uint64(durNs))
	ri.exemplars.Observe(uint64(durNs), traceID)
	if ri.slowNs > 0 && uint64(durNs) > ri.slowNs {
		ri.slow.Inc()
	}
}
