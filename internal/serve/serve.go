// Package serve is the query service over the reproduction's framework:
// a long-lived, stdlib-only HTTP JSON API that answers the question every
// one-shot CLI in cmd/ answers once — "given a system, a destination, and
// a date, what does the regime say?" — concurrently and repeatedly, the
// way a licensing desk (or a million self-screening exporters) would ask
// it.
//
// Endpoints:
//
//	POST /v1/license    one license decision, or a batch under "requests"
//	GET  /v1/license    the single-decision path as query parameters
//	GET  /v1/catalog    filterable system-catalog queries
//	GET  /v1/apps       filterable application-requirement queries
//	GET  /v1/threshold  the basic-premises snapshot (+ projections)
//	GET  /v1/healthz    liveness, counters, cache statistics
//	GET  /v1/watch      SSE stream of regime, fault and SLO events (needs Config.WAL)
//	GET  /metrics       Prometheus text exposition (deterministic order)
//	GET  /v1/metrics    the same registry as a JSON snapshot
//	GET  /v1/traces     span trees of the flight recorder's recent requests
//	GET  /v1/slo        burn-rate verdicts per judged route (needs Config.SLO)
//	GET  /v1/flightrec  flight-recorder captures and pinned anomaly groups
//
// The service is layered over the memoized exhibit substrates of
// internal/report (the study-date snapshot is computed once per process,
// whichever exhibit or request asks first) plus two LRU caches: license
// decisions keyed by the canonicalized (CTP, destination, end use,
// threshold) tuple, and framework snapshots keyed by date. Cached values
// are immutable after first build, so a cache hit is byte-identical to
// the cold computation it replaced — a property the test suite enforces
// under -race.
//
// Everything is error-returning and clock-injected: the only wall-clock
// read in the package is the documented default when no Config.Clock is
// supplied, so tests pin time completely. (The request deadline's timer
// also runs on the wall clock; it decides whether a wait is cut, never
// what a decision says.)
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/singleflight"
	"repro/internal/slo"
	"repro/internal/threshold"
	"repro/internal/trend"
	"repro/internal/wal"
)

// DefaultAddr is hpcexportd's default listen address.
const DefaultAddr = "localhost:8095"

// Defaults applied by New for zero Config fields.
const (
	DefaultMaxInFlight    = 64
	DefaultRequestTimeout = 10 * time.Second
	DefaultMaxBatch       = 256
	DefaultCacheSize      = 4096
	DefaultDrainTimeout   = 5 * time.Second
	DefaultSnapshotEvery  = 1024
)

// MaxBodyBytes caps the request bodies the server and the gateway read,
// and the backend answers the gateway buffers; a license batch at the
// default limits is far below this.
const MaxBodyBytes = 1 << 20

// Config configures a Server. The zero value selects the default limits,
// the wall clock, and no request log. The listener is the caller's: Serve
// takes one.
type Config struct {
	MaxInFlight    int           // concurrent requests admitted past the semaphore
	RequestTimeout time.Duration // per-request deadline on waits (not on work in progress); see middleware
	MaxBatch       int           // largest accepted /v1/license batch
	CacheSize      int           // capacity of each LRU cache
	DrainTimeout   time.Duration // how long Shutdown waits for in-flight requests

	// Clock supplies the service's notion of time (request durations,
	// uptime, span timing). Tests inject a fixed or scripted clock; nil
	// means the wall clock.
	Clock func() time.Time

	// Logger receives one structured record per request (request ID,
	// route, status, duration, cache state as attrs). Nil disables
	// request logging.
	Logger *slog.Logger

	// Fault, when its profile is active, mounts deterministic fault
	// injection in the middleware: each arrival on a route the profile
	// injects consumes the plan's next schedule slot and may be answered
	// with an injected 503, delayed, or served with poisoned caches
	// (degraded mode). The observability endpoints and /v1/healthz are
	// never injected, so scrapes and health probes neither consume
	// schedule slots nor lose reachability, and New refuses a profile
	// overriding them or any route it does not serve. Nil or an inactive
	// profile disables injection entirely, and the exposition and
	// /v1/healthz carry no fault accounting.
	Fault *fault.Plan

	// Sleep performs injected latency pauses. Nil means time.Sleep; the
	// chaos tests inject a recorder so injected delays cost no wall time.
	Sleep func(time.Duration)

	// WAL, when non-nil, mounts the durable decision log: every cached
	// license decision is written through to it, the newest records of
	// the keys the decision cache can hold are recomputed into the cache
	// at New (warm start), and the server opens /v1/watch, the stream of
	// regime transitions between committed decisions and of fault,
	// degraded and SLO events. The caller owns the log's lifecycle (Open
	// before New, Close after Serve returns); the watch streams belong to
	// the server, and Serve's drain ends them.
	WAL *wal.Log

	// SnapshotEvery triggers snapshot compaction after that many logged
	// decisions; 0 means DefaultSnapshotEvery when a WAL is mounted, and
	// a negative value disables compaction.
	SnapshotEvery int

	// SLO, when active, mounts the burn-rate engine: every judged route
	// gets multi-window burn rates over its availability (and optional
	// latency) objective, evaluated read-at-scrape, served at /v1/slo,
	// exposed as slo_* gauges in /metrics, and published to the watch
	// stream on state transitions. Exemplar collection on the per-route
	// latency histograms is armed with it. An inactive profile leaves
	// the exposition byte-identical to a pre-SLO daemon's. New refuses
	// an override of an observability endpoint or of a route it does not
	// serve.
	SLO slo.Profile

	// FlightCapacity sizes the flight recorder's ring: one record per
	// observed request, its capture and its span tree, behind both
	// /v1/flightrec and /v1/traces. 0 selects obs.DefaultRecorderCapacity;
	// negative disables the recorder, and both endpoints answer 404.
	FlightCapacity int
}

// Server is the query service: an http.Handler plus the caches and
// counters behind it. Create one with New.
type Server struct {
	cfg     Config
	clock   func() time.Time
	logger  *slog.Logger
	start   time.Time
	handler http.Handler

	met *serverMetrics // nil disables metric recording

	// slo is the mounted burn-rate engine (nil without an active SLO
	// profile); flightrec is the always-on black-box recorder of every
	// observed request (nil only when Config.FlightCapacity is negative).
	slo       *slo.Engine
	flightrec *obs.Recorder

	fault *fault.Plan         // the mounted plan: nil disables fault injection
	sleep func(time.Duration) // performs injected latency

	// wal is the mounted decision log (nil when Config.WAL is nil), with
	// the serve layer's accounting of its integration: replay admissions,
	// replay rejections, append failures, commits since the last snapshot,
	// and the single-compactor latch.
	wal           *wal.Log
	walReplayed   atomic.Uint64
	walMismatches atomic.Uint64
	walAppendErrs atomic.Uint64
	walSinceSnap  atomic.Uint64
	walSnapBusy   atomic.Bool

	// walMu is held across each commit's Append, its cache Put and the
	// regime detector behind them: lastRegime is the threshold of the
	// newest committed decision (haveRegime once there is one), seeded by
	// warm start from the decision record appended last before the
	// restart, so regime events publish in log order and a transition
	// across a restart is still one. A compaction holds it too, from
	// collecting the live set through the snapshot write (maybeSnapshot).
	walMu      sync.Mutex
	lastRegime float64
	haveRegime bool

	// hub carries the /v1/watch stream (nil without a log); watchEvents
	// counts the events delivered live to streams.
	hub         *hub
	watchEvents atomic.Uint64

	// sem is the in-flight semaphore; requests counts observed requests
	// at arrival, numbers their minted IDs, and is healthz's requests.
	sem      chan struct{}
	requests atomic.Uint64

	decisions *decisionLRU
	snapshots *LRU[string, *threshold.Snapshot]

	// flights coalesces concurrent cold fills of one decision key;
	// flightBarrier is a test hook invoked by the coalescing leader
	// between winning the key and computing, nil outside tests.
	flights       singleflight.Group[*cachedDecision]
	flightBarrier func(key string)

	projOnce sync.Once
	projFit  trend.Exponential
	projErr  error
}

// New builds a Server from the config, applying defaults to zero fields.
func New(cfg Config) (*Server, error) {
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxInFlight < 1 {
		return nil, errors.New("serve: MaxInFlight must be at least 1")
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.RequestTimeout < 0 {
		return nil, errors.New("serve: RequestTimeout must be positive")
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBatch < 1 {
		return nil, errors.New("serve: MaxBatch must be at least 1")
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	clock := cfg.Clock
	if clock == nil {
		//hpcvet:allow detrand the daemon's documented default is the wall clock; deterministic callers inject Config.Clock
		clock = time.Now
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	if cfg.WAL != nil && cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	s := &Server{
		cfg:       cfg,
		clock:     clock,
		logger:    cfg.Logger,
		sleep:     sleep,
		wal:       cfg.WAL,
		sem:       make(chan struct{}, cfg.MaxInFlight),
		decisions: newDecisionLRU(cfg.CacheSize),
		snapshots: NewLRU[string, *threshold.Snapshot](cfg.CacheSize),
	}
	if err := cfg.SLO.Validate(); err != nil {
		return nil, err
	}
	if err := checkOverrides("SLO", cfg.SLO.Routes, func(r string) bool { return !SelfObserved(r) }); err != nil {
		return nil, err
	}
	if cfg.Fault != nil {
		if err := checkOverrides("fault", cfg.Fault.Profile().Routes, faultInjectable); err != nil {
			return nil, err
		}
		// A plan that injects nothing is not mounted, like an inactive SLO
		// profile: no fault series, no healthz block, no slots taken.
		if cfg.Fault.Profile().Active() {
			s.fault = cfg.Fault
		}
	}
	if cfg.FlightCapacity >= 0 {
		s.flightrec = obs.NewRecorder(cfg.FlightCapacity)
	}
	// Warm start precedes metric registration so the read-at-scrape WAL
	// instruments report the replay's accounting from the first scrape.
	if s.wal != nil {
		s.hub = &hub{}
		s.warmStart()
	}
	s.met = newServerMetrics(s)
	s.flights.OnWait = s.met.flightWait
	s.flights.Abandoned = httpErr(http.StatusInternalServerError, "license fill failed")
	// The SLO engine mounts after the instrument set it reads from, so
	// its sources and gauges can bind to the registered counters.
	if cfg.SLO.Active() {
		s.initSLO()
	}
	s.start = clock()
	s.handler = s.middleware(s.routes())
	return s, nil
}

// checkOverrides refuses a profile override naming a route the policy
// never applies to, which would otherwise be accepted and govern
// nothing: a misspelled route, or one the policy exempts. The policy
// applies to the served routes that applies accepts; the error lists
// them.
func checkOverrides[R any](policy string, overrides map[string]R, applies func(string) bool) error {
	var accepted, bad []string
	for _, r := range obsRoutes {
		if r != "other" && applies(r) {
			accepted = append(accepted, r)
		}
	}
	for _, route := range report.SortedKeys(overrides) {
		if !slices.Contains(accepted, route) {
			bad = append(bad, route)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("serve: %s profile overrides %s, which it never applies to; it applies to %s",
		policy, strings.Join(bad, ", "), strings.Join(accepted, ", "))
}

// Handler returns the service's http.Handler: the routed endpoints behind
// the bounded-concurrency, timeout, and logging middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// routes builds the endpoint mux.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/license", s.handleLicensePost)
	mux.HandleFunc("GET /v1/license", s.handleLicenseGet)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	mux.HandleFunc("GET /v1/apps", s.handleApps)
	mux.HandleFunc("GET /v1/threshold", s.handleThreshold)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	MountTelemetry(mux, s.met.reg, s.flightrec, func() { s.sloEval() })
	return mux
}

// Serve accepts connections on ln until ctx is cancelled, then shuts down
// gracefully: every /v1/watch stream ends immediately, the listener
// closes, in-flight requests get up to DrainTimeout to complete, and
// stragglers are cut off. It returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// Closing the watch hub before the drain ends every /v1/watch stream,
	// so long-lived watchers never hold the drain open.
	return ServeHandler(ctx, ln, s.handler, s.cfg.DrainTimeout, s.hub.close)
}

// canonicalFloat renders a float the one way cache keys use.
func canonicalFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
