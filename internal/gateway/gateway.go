// Package gateway implements hpcexportgw, the cluster front door: a
// stdlib-only reverse proxy that consistent-hashes canonical decision
// keys — the same keys the backends' LRU, singleflight group, and WAL
// already agree on — across N hpcexportd replicas.
//
//	GET/POST /v1/license  keyed routing, gateway singleflight, hedged reads;
//	                      a batch goes whole to its first item's owner
//	GET  /v1/healthz      aggregated cluster health (gateway + every backend)
//	GET  /metrics         the gateway's own Prometheus exposition
//	GET  /v1/metrics      the same registry as a JSON snapshot
//	GET  /v1/traces       span trees of the gateway's own request records
//	GET  /v1/flightrec    the gateway's own request records (hedge mismatches pin)
//	GET  /v1/watch        501: streams don't merge; connect to a backend
//	anything else         proxied to the URI-hash owner (deterministic warming)
//
// The four telemetry routes are serve.MountTelemetry's over the gateway's
// registry and recorder, and the middleware passes them through uncounted
// and unrecorded by the backends' own list, serve.SelfObserved. That list
// also holds /v1/slo, which is proxied to a backend without being counted
// or recorded; every other proxied route is recorded, an unknown path
// under "other".
//
// The determinism contract is what makes the interesting parts safe:
// because every replica answers a decision key with byte-identical
// bytes, the gateway may race a second replica after a latency-derived
// hedge delay and take whichever answers first. Both answers arriving is
// not wasted work — it is a free audit: the bodies are compared, and a
// difference increments gateway_hedge_mismatch_total and pins a flight-
// recorder capture. A mismatch is recorded, never masked, because it
// means a replica violated the contract the whole design rests on.
package gateway

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/singleflight"
)

// DefaultAddr is hpcexportgw's default listen address.
const DefaultAddr = "localhost:8094"

// Defaults applied by New to zero Config fields.
const (
	DefaultProbeEvery   = time.Second
	DefaultProbeTimeout = 500 * time.Millisecond
	DefaultRejoinAfter  = 3
	DefaultAttempts     = 4
	DefaultHedgeCold    = 10 * time.Millisecond
	DefaultHedgeMin     = time.Millisecond
	DefaultDrainTimeout = 5 * time.Second
)

// Forwarding constants. retryBackoff is the pause before a retryable
// status (429/5xx overload) is retried at the same owner; hedgeQuantile
// picks the hedge delay from the primary owner's latency histogram;
// forwardTimeout bounds one whole keyed fetch, all attempts and the
// hedge race included.
const (
	retryBackoff   = 2 * time.Millisecond
	hedgeQuantile  = 0.95
	forwardTimeout = 10 * time.Second
)

// hedgeMinSamples is how many latency observations a backend needs
// before its histogram quantile is trusted for the hedge delay; below
// it the configured cold delay applies.
const hedgeMinSamples = 32

// Config configures a Gateway. The zero value of any field selects the
// documented default. The listener is the caller's: Serve takes one.
type Config struct {
	// Backends is the static member list: base URLs of hpcexportd
	// instances ("http://host:port"). At least one of Backends and
	// MembershipFile must be given.
	Backends []string

	// MembershipFile, when set, is the authoritative member list: one
	// backend URL per line, blank lines and #-comments ignored. The file
	// is re-read when its mtime changes (checked on the probe cadence);
	// Backends seeds the member set until the file first parses. A
	// missing or empty file never drops the cluster to zero members.
	MembershipFile string

	// VNodes is the virtual-node count per member on the hash ring.
	VNodes int

	// ProbeEvery is the health-probe (and membership-check) cadence;
	// ProbeTimeout bounds one probe exchange.
	ProbeEvery   time.Duration
	ProbeTimeout time.Duration

	// RejoinAfter is how many consecutive healthy probes a drained
	// backend must pass before new keys route to it again. Draining is
	// immediate on the first bad probe; rejoining is deliberately slower
	// so a flapping backend stays out.
	RejoinAfter int

	// Attempts bounds forwarding attempts per request: transport errors
	// fail over to the next ring owner immediately, retryable statuses
	// (429/5xx overload) retry the same owner after retryBackoff.
	Attempts int

	// The hedge delay is the hedgeQuantile of the primary owner's
	// latency histogram, HedgeCold until enough samples accumulate, and
	// HedgeMin floors it. NoHedge disables hedged reads entirely.
	HedgeCold time.Duration
	HedgeMin  time.Duration
	NoHedge   bool

	// DrainTimeout bounds graceful shutdown.
	DrainTimeout time.Duration

	// FlightCapacity sizes the gateway's flight-recorder ring; 0 selects
	// obs.DefaultRecorderCapacity, negative disables the recorder.
	FlightCapacity int

	// Logger receives membership, drain, and mismatch events. Nil
	// discards them.
	Logger *slog.Logger

	// Clock supplies the time base for uptime and latency accounting;
	// nil means the wall clock. Sleep performs retry-backoff pauses; nil
	// means time.Sleep.
	Clock func() time.Time
	Sleep func(time.Duration)

	// HTTPClient performs backend exchanges; nil builds a pooled default.
	HTTPClient *http.Client
}

// Gateway is the routing front door. Create one with New, start its
// background prober with Start, serve with Serve or Handler, and join
// everything with Close.
type Gateway struct {
	cfg     Config
	clock   func() time.Time
	sleep   func(time.Duration)
	logger  *slog.Logger
	start   time.Time
	handler http.Handler
	client  *http.Client

	reg       *obs.Registry
	flightrec *obs.Recorder

	// mu guards the member set and the ring built over it; the two only
	// change together.
	mu       sync.RWMutex
	backends map[string]*backend
	members  []string // sorted
	ring     *ring

	// membership-file state, also under mu.
	memberMtime  time.Time
	memberLoaded bool

	// flights coalesces concurrent fetches of one canonical key, so a
	// thundering herd costs one backend computation cluster-wide; waiters
	// share the leader's *proxyResult, whose body is never mutated.
	flights singleflight.Group[*proxyResult]

	// loopWG joins the prober goroutine; verifyWG joins every fetch
	// goroutine (launch.go), running or parked. Close waits on both.
	loopWG   sync.WaitGroup
	verifyWG sync.WaitGroup

	// fetchMu guards the hand-off slots of the parked fetch goroutines
	// and fetchClosed, which Close sets.
	fetchMu     sync.Mutex
	parked      []chan func()
	fetchClosed bool

	requests        *obs.Counter // gateway_requests_total: admissions, the gw-N sequence, healthz requests
	hedges          *obs.Counter
	hedgeWins       *obs.Counter
	hedgeIdentical  *obs.Counter
	hedgeMismatch   *obs.Counter
	flightLeader    *obs.Counter
	flightCoalesced *obs.Counter
	retries         *obs.Counter
	noHealthy       *obs.Counter
	reloads         *obs.Counter

	// flightBarrier is a test hook invoked by the singleflight leader
	// between winning a key and fetching; afterHedgeVerify is invoked
	// after every hedge verification with whether the bodies matched.
	// Both are nil outside tests.
	flightBarrier    func(key string)
	afterHedgeVerify func(match bool)
}

// New builds a Gateway from the config, applying defaults to zero
// fields, and seeds the member set (Backends, or the membership file if
// it already parses).
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 && cfg.MembershipFile == "" {
		return nil, errors.New("gateway: no backends: give Backends or MembershipFile")
	}
	if cfg.VNodes == 0 {
		cfg.VNodes = defaultVNodes
	}
	if cfg.VNodes < 1 {
		return nil, errors.New("gateway: VNodes must be at least 1")
	}
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = DefaultProbeEvery
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.RejoinAfter == 0 {
		cfg.RejoinAfter = DefaultRejoinAfter
	}
	if cfg.RejoinAfter < 1 {
		return nil, errors.New("gateway: RejoinAfter must be at least 1")
	}
	if cfg.Attempts == 0 {
		cfg.Attempts = DefaultAttempts
	}
	if cfg.Attempts < 1 {
		return nil, errors.New("gateway: Attempts must be at least 1")
	}
	if cfg.HedgeCold == 0 {
		cfg.HedgeCold = DefaultHedgeCold
	}
	if cfg.HedgeMin == 0 {
		cfg.HedgeMin = DefaultHedgeMin
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	clock := cfg.Clock
	if clock == nil {
		//hpcvet:allow detrand the gateway's documented default is the wall clock; deterministic callers inject Config.Clock
		clock = time.Now
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}

	g := &Gateway{
		cfg:      cfg,
		clock:    clock,
		sleep:    sleep,
		logger:   logger,
		client:   client,
		reg:      obs.NewRegistry(),
		backends: make(map[string]*backend),
		ring:     buildRing(nil, cfg.VNodes),
	}
	if cfg.FlightCapacity >= 0 {
		g.flightrec = obs.NewRecorder(cfg.FlightCapacity)
	}
	g.flights.Abandoned = errors.New("gateway: keyed fetch panicked")
	g.requests = g.reg.Counter("gateway_requests_total", "requests admitted through the gateway")
	g.hedges = g.reg.Counter("gateway_hedges_total", "hedged second fetches launched")
	g.hedgeWins = g.reg.Counter("gateway_hedge_wins_total", "hedged fetches that answered before the primary")
	g.hedgeIdentical = g.reg.Counter("gateway_hedge_identical_total", "hedge races where both replicas answered byte-identically")
	g.hedgeMismatch = g.reg.Counter("gateway_hedge_mismatch_total", "hedge races where the replicas' bodies differed (determinism violation)")
	g.flightLeader = g.reg.Counter("gateway_flight_leader_total", "keyed fetches that led a singleflight fill")
	g.flightCoalesced = g.reg.Counter("gateway_flight_coalesced_total", "keyed fetches coalesced onto an in-flight leader")
	g.retries = g.reg.Counter("gateway_retries_total", "forwarding retries (transport failover and retryable statuses)")
	g.noHealthy = g.reg.Counter("gateway_no_healthy_fallback_total", "keyed routes that fell back to a drained member because none were healthy")
	g.reloads = g.reg.Counter("gateway_membership_reloads_total", "membership changes applied (including the initial set)")
	g.reg.Func("gateway_members", "current member count", obs.KindGauge, func() float64 {
		g.mu.RLock()
		defer g.mu.RUnlock()
		return float64(len(g.members))
	})
	g.reg.Func("gateway_healthy_backends", "members currently accepting new keys", obs.KindGauge, func() float64 {
		g.mu.RLock()
		defer g.mu.RUnlock()
		n := 0
		for _, m := range g.members {
			if g.backends[m].state.Load() == stateHealthy {
				n++
			}
		}
		return float64(n)
	})

	g.setMembers(cfg.Backends)
	g.reloadMembership()
	if len(g.memberList()) == 0 {
		return nil, errors.New("gateway: member set resolved empty")
	}
	g.start = clock()
	g.handler = g.middleware(g.routes())
	return g, nil
}

// Handler returns the gateway's http.Handler.
func (g *Gateway) Handler() http.Handler { return g.handler }

// Members returns the current member URLs, sorted.
func (g *Gateway) Members() []string { return g.memberList() }

// Registry exposes the gateway's metrics registry (tests and the
// daemon's own reporting read it).
func (g *Gateway) Registry() *obs.Registry { return g.reg }

// Start launches the background prober: one goroutine, bound to ctx,
// that re-reads membership and probes every backend's /v1/healthz on the
// ProbeEvery cadence. Tests drive probeOnce / reloadMembership directly
// instead and never call Start.
func (g *Gateway) Start(ctx context.Context) {
	g.loopWG.Add(1)
	go func() {
		defer g.loopWG.Done()
		t := time.NewTicker(g.cfg.ProbeEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				g.reloadMembership()
				g.probeOnce(ctx)
			}
		}
	}()
}

// Close joins every goroutine the gateway owns: the prober (after its
// context is cancelled), the fetches and hedge verifiers in flight, and
// the parked fetch goroutines, which it releases.
func (g *Gateway) Close() {
	g.loopWG.Wait()
	g.releaseFetchers()
	g.verifyWG.Wait()
}

// routes builds the endpoint mux.
func (g *Gateway) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/license", g.handleLicenseGet)
	mux.HandleFunc("POST /v1/license", g.handleLicensePost)
	mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	mux.HandleFunc("GET /v1/watch", g.handleWatch)
	mux.HandleFunc("/", g.handleProxy)
	serve.MountTelemetry(mux, g.reg, g.flightrec, nil)
	return mux
}

// middleware counts each admitted request once, in
// gateway_requests_total, whose new value also numbers the request ID
// the gateway mints ("gw-N" by serve.RequestID, unless the request
// brought one), and which healthz reports as requests. Every backend
// exchange for the request forwards that ID, and each routed request is
// recorded into the flight recorder. A self-observed route
// (serve.SelfObserved) passes through untouched — uncounted, unrecorded,
// answered without an ID — so reading the gateway's telemetry never
// changes it; the server's middleware follows the same rule.
func (g *Gateway) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := serve.RouteOf(r.URL.Path)
		if serve.SelfObserved(route) {
			next.ServeHTTP(w, r)
			return
		}
		id := serve.RequestID(r.Header, "gw-", g.requests.Inc())
		w.Header()["X-Request-Id"] = id
		if g.flightrec == nil {
			next.ServeHTTP(w, r)
			return
		}
		begin := g.clock()
		ctx, rec := g.flightrec.Open(r.Context(), g.clock, begin, r.Method, route, id[0])
		sw := &serve.StatusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))
		var anomalies []string
		if sw.Code >= http.StatusInternalServerError {
			anomalies = []string{"gateway:5xx"}
		}
		rec.Seal(sw.Code, uint64(g.clock().Sub(begin)), "", "", false, anomalies)
	})
}

// Serve accepts connections on ln until ctx is cancelled, then drains
// gracefully for up to DrainTimeout.
func (g *Gateway) Serve(ctx context.Context, ln net.Listener) error {
	return serve.ServeHandler(ctx, ln, g.handler, g.cfg.DrainTimeout, nil)
}

// discardHandler is a no-op slog handler for the nil-Logger default.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
