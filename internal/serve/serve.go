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
//	GET  /metrics       Prometheus text exposition (deterministic order)
//	GET  /v1/metrics    the same registry as a JSON snapshot
//	GET  /v1/traces     ring buffer of recent request traces
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
// supplied, so tests pin time completely.
package serve

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parpool"
	"repro/internal/singleflight"
	"repro/internal/slo"
	"repro/internal/threshold"
	"repro/internal/trend"
	"repro/internal/wal"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultAddr           = "localhost:8095"
	DefaultMaxInFlight    = 64
	DefaultRequestTimeout = 10 * time.Second
	DefaultMaxBatch       = 256
	DefaultCacheSize      = 4096
	DefaultDrainTimeout   = 5 * time.Second
	DefaultTraceCapacity  = 64
	DefaultSnapshotEvery  = 1024
	DefaultMaxWatchers    = 16
)

// maxBodyBytes caps request bodies; a license batch at the default limits
// is far below this.
const maxBodyBytes = 1 << 20

// Config configures a Server. The zero value serves on DefaultAddr with
// the default limits, the wall clock, and no request log.
type Config struct {
	Addr           string        // listen address for ListenAndServe
	MaxInFlight    int           // concurrent requests admitted past the semaphore
	RequestTimeout time.Duration // per-request deadline enforced by the middleware
	MaxBatch       int           // largest accepted /v1/license batch
	BatchWorkers   int           // workers evaluating large batches in parallel; 1 forces inline
	CacheSize      int           // capacity of each LRU cache
	DrainTimeout   time.Duration // how long Shutdown waits for in-flight requests
	TraceCapacity  int           // completed traces kept for /v1/traces; < 0 disables tracing

	// Clock supplies the service's notion of time (request durations,
	// uptime, span timing). Tests inject a fixed or scripted clock; nil
	// means the wall clock.
	Clock func() time.Time

	// Logger receives one structured record per request (request ID,
	// route, status, duration, cache state as attrs). Nil disables
	// request logging.
	Logger *slog.Logger

	// Fault, when non-nil, mounts deterministic fault injection in the
	// middleware: each arrival on an injectable route consumes the plan's
	// next schedule slot and may be answered with an injected 503,
	// delayed, or served with poisoned caches (degraded mode). The
	// observability endpoints and /v1/healthz are never injected, so
	// scrapes and health probes neither consume schedule slots nor lose
	// reachability. Nil disables injection entirely.
	Fault *fault.Plan

	// Sleep performs injected latency pauses. Nil means time.Sleep; the
	// chaos tests inject a recorder so injected delays cost no wall time.
	Sleep func(time.Duration)

	// WAL, when non-nil, mounts the durable decision log: every cached
	// license decision is written through to it, its recovery stream is
	// replayed into the decision cache at New (warm start), and the
	// /v1/watch endpoint streams its commit events. The caller owns the
	// log's lifecycle (Open before New, Close after Serve returns).
	WAL *wal.Log

	// SnapshotEvery triggers snapshot compaction after that many logged
	// decisions; 0 means DefaultSnapshotEvery when a WAL is mounted, and
	// a negative value disables compaction.
	SnapshotEvery int

	// MaxWatchers bounds concurrent /v1/watch streams (they bypass the
	// in-flight semaphore precisely so they cannot starve it, and need
	// their own limit). 0 means DefaultMaxWatchers.
	MaxWatchers int

	// SLO, when active, mounts the burn-rate engine: every judged route
	// gets multi-window burn rates over its availability (and optional
	// latency) objective, evaluated read-at-scrape, served at /v1/slo,
	// exposed as slo_* gauges in /metrics, and published to the watch
	// stream on state transitions. Exemplar collection on the per-route
	// latency histograms is armed with it. An inactive profile leaves
	// the exposition byte-identical to a pre-SLO daemon's.
	SLO slo.Profile

	// SLOSampleEvery is the minimum spacing between retained burn-rate
	// history samples; 0 selects the engine default (15s).
	SLOSampleEvery time.Duration

	// FlightCapacity sizes the flight recorder's capture ring; 0 selects
	// obs.DefaultRecorderCapacity, negative disables the recorder (and
	// /v1/flightrec answers 404).
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

	met    *serverMetrics // nil disables metric recording
	tracer *obs.Tracer    // nil disables tracing

	// slo is the mounted burn-rate engine (nil without an active SLO
	// profile); flightrec is the always-on black-box recorder (nil only
	// when Config.FlightCapacity is negative).
	slo       *slo.Engine
	flightrec *obs.Recorder

	// walRegimeKnown/walRegimeBits track the threshold regime of the last
	// committed decision, so the capture of the commit that changes it
	// records the transition as a breaker anomaly.
	walRegimeKnown atomic.Bool
	walRegimeBits  atomic.Uint64

	fault *fault.Plan         // nil disables fault injection
	sleep func(time.Duration) // performs injected latency

	// wal is the mounted decision log (nil when Config.WAL is nil), with
	// the serve layer's accounting of its integration: replay admissions,
	// replay rejections, append failures, commits since the last snapshot,
	// the single-compactor latch, live watch streams, and delivered watch
	// events.
	wal           *wal.Log
	walReplayed   atomic.Uint64
	walMismatches atomic.Uint64
	walAppendErrs atomic.Uint64
	walSinceSnap  atomic.Uint64
	walSnapBusy   atomic.Bool
	watchers      atomic.Int64
	watchEvents   atomic.Uint64

	sem      chan struct{}
	requests atomic.Uint64 // request ids / total admitted
	inFlight atomic.Int64

	decisions *decisionLRU
	snapshots *LRU[string, *threshold.Snapshot]

	// flights coalesces concurrent cold fills of one decision key;
	// flightBarrier is a test hook invoked by the coalescing leader
	// between winning the key and computing, nil outside tests.
	flights       singleflight.Group[*cachedDecision]
	flightBarrier func(key string)

	// systemsByName indexes the catalog by exact name, short-circuiting
	// the linear scan for the common named-system request.
	systemsByName map[string]catalog.System

	// pool evaluates large license batches in parallel; built lazily by
	// batchPool on the first batch big enough to want it. poolBusy is
	// held by the one batch running on it.
	pool     *parpool.Pool
	poolOnce sync.Once
	poolBusy atomic.Bool

	projOnce sync.Once
	projFit  trend.Exponential
	projErr  error
}

// New builds a Server from the config, applying defaults to zero fields.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = DefaultAddr
	}
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
	if cfg.BatchWorkers == 0 {
		cfg.BatchWorkers = defaultBatchWorkers()
	}
	if cfg.BatchWorkers < 1 {
		return nil, errors.New("serve: BatchWorkers must be at least 1")
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
	if cfg.TraceCapacity == 0 {
		cfg.TraceCapacity = DefaultTraceCapacity
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	if cfg.WAL != nil && cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.MaxWatchers == 0 {
		cfg.MaxWatchers = DefaultMaxWatchers
	}
	if cfg.MaxWatchers < 1 {
		return nil, errors.New("serve: MaxWatchers must be at least 1")
	}
	s := &Server{
		cfg:       cfg,
		clock:     clock,
		logger:    cfg.Logger,
		fault:     cfg.Fault,
		sleep:     sleep,
		wal:       cfg.WAL,
		sem:       make(chan struct{}, cfg.MaxInFlight),
		decisions: newDecisionLRU(cfg.CacheSize),
		snapshots: NewLRU[string, *threshold.Snapshot](cfg.CacheSize),
	}
	all := catalog.All()
	s.systemsByName = make(map[string]catalog.System, len(all))
	for _, sys := range all {
		s.systemsByName[sys.Name] = sys
	}
	if err := cfg.SLO.Validate(); err != nil {
		return nil, err
	}
	if cfg.FlightCapacity >= 0 {
		s.flightrec = obs.NewRecorder(cfg.FlightCapacity)
	}
	// Warm start precedes metric registration so the read-at-scrape WAL
	// instruments report the replay's accounting from the first scrape.
	if s.wal != nil {
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
	if cfg.TraceCapacity > 0 {
		s.tracer = obs.NewTracer(cfg.TraceCapacity, clock)
	}
	s.start = clock()
	s.handler = s.middleware(s.routes())
	return s, nil
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
	mux.HandleFunc("GET /metrics", s.handleMetricsProm)
	mux.HandleFunc("GET /v1/metrics", s.handleMetricsJSON)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	mux.HandleFunc("GET /v1/flightrec", s.handleFlightRec)
	return mux
}

// Serve accepts connections on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests get up
// to DrainTimeout to complete, and stragglers are cut off. It returns nil
// on a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Close the event hub before draining: every /v1/watch stream observes
	// its channel close and returns, so long-lived watchers never hold the
	// drain open. (wal.Log.Close is idempotent about this — the daemon
	// closing the log afterwards is fine.)
	if s.wal != nil {
		s.wal.Events().Close()
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		closeErr := hs.Close()
		<-errc
		if closeErr != nil {
			return closeErr
		}
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ListenAndServe listens on Config.Addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// canonicalFloat renders a float the one way cache keys use.
func canonicalFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// defaultBatchWorkers sizes the batch evaluation pool: one worker per
// CPU, capped at 8 — license evaluations are short, so more workers buy
// contention, not throughput.
func defaultBatchWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// batchPool returns the lazily built batch evaluation pool, nil when the
// configuration forces inline evaluation. Building it lazily keeps every
// single-request daemon and test server at zero extra goroutines.
func (s *Server) batchPool() *parpool.Pool {
	s.poolOnce.Do(func() {
		if s.cfg.BatchWorkers > 1 {
			s.pool = parpool.New(s.cfg.BatchWorkers)
		}
	})
	return s.pool
}
