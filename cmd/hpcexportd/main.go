// hpcexportd serves the reproduction's framework as a long-lived HTTP
// JSON API: license decisions under the regime, filterable catalog and
// application queries, and the basic-premises threshold snapshot, layered
// over the memoized exhibit substrates and per-request LRU caches.
//
// Usage:
//
//	hpcexportd                         # serve on localhost:8095
//	hpcexportd -addr :9000             # another address
//	hpcexportd -inflight 128 -timeout 5s -batch 512 -cache 65536
//	hpcexportd -quiet                  # no per-request log lines
//	hpcexportd -debug-addr localhost:6060   # pprof on a separate listener
//	hpcexportd -fault-seed 7 -fault-profile chaos   # deterministic fault injection
//	hpcexportd -data-dir /var/lib/hpcexportd        # durable decision log + warm start
//	hpcexportd -data-dir d -fsync every=64 -snapshot-every 4096
//	hpcexportd -slo availability=0.99,latency=50ms      # burn-rate SLO engine
//	hpcexportd -flightrec 512          # request records kept for /v1/flightrec and /v1/traces (-1 disables)
//	hpcexportd -version                # print build info and exit
//
// The daemon drains gracefully on SIGTERM or SIGINT: the listener closes
// at once, in-flight requests get -drain to finish, and the process exits
// zero on a clean drain.
//
// Profiling endpoints (net/http/pprof) are never mounted on the public
// listener; they appear only on the loopback-intended -debug-addr
// listener when one is given.
//
// -fault-profile mounts deterministic fault injection (see README
// "Running under faults"): a preset (none, flaky, slow, chaos) or a spec
// like "error=0.3,latency=0.2,delay=2ms,poison=0.1", optionally with
// per-route overrides ("error=0.1;/v1/license:error=0.5;/v1/threshold:off").
// An override may name only an injectable route (/v1/apps, /v1/catalog,
// /v1/license, /v1/threshold); any other is refused at start-up. The
// same -fault-seed replays the identical fault sequence; injected errors
// answer 503 with X-Fault-Injected, poisoned arrivals recompute without
// caches and mark X-Degraded, and /v1/healthz reports the fault totals.
// A profile that injects nothing, such as none, mounts nothing.
//
// -data-dir mounts the durable decision log (see README "Durability and
// warm-start"): every decision that fills the decision cache is
// committed to a checksummed append-only segment, and on restart the
// daemon recomputes the newest records of the keys its cache can hold
// back into it, so the first response to a previously-decided request
// is byte-identical to the pre-restart one. -fsync picks the
// durability barrier (always, never, or every=N records), and
// -snapshot-every bounds replay time by compacting the live decision set
// into a snapshot every N commits. A mounted log also enables GET
// /v1/watch, a Server-Sent-Events stream of threshold-regime transitions
// and injected fault/degraded events.
//
// -slo mounts the burn-rate SLO engine (see README "SLOs and the flight
// recorder"): a profile like "availability=0.999,latency=50ms" with
// optional per-route overrides ("...;/v1/healthz:off") sets error-budget
// objectives per route, evaluated over 5m/1h/6h windows at every scrape.
// Its grammar is the fault profile's; an override may name a judged
// route (an injectable one or /v1/healthz), and any other is refused.
// GET /v1/slo reports burn rates and page/ticket verdicts, /metrics
// gains slo_burn_rate / slo_budget_remaining / slo_state gauges, and SLO
// state transitions are published on /v1/watch when a log is mounted.
//
// The flight recorder is always on: a fixed ring of recent requests
// (health probes are counted, not recorded), one record each (capture
// and span tree), dumped at GET /v1/flightrec and rendered as traces at
// GET /v1/traces. Anomalous requests (5xx,
// over-objective latency, degraded recompute, WAL regime transition) are
// pinned, spans included, with the records that preceded them so the
// context survives ring wrap. -flightrec resizes the ring (default 256);
// a negative capacity disables recording and both endpoints.
//
// Endpoints (see README "Serving the framework" for curl examples):
//
//	POST /v1/license    {"system":"Cray C916","destination":"india"}
//	GET  /v1/license    ?ctp=21125&dest=france&threshold=1500
//	GET  /v1/catalog    ?origin=russia&minctp=100
//	GET  /v1/apps      ?mission=cryptology&deployed=false
//	GET  /v1/threshold  ?date=1995.45&project=true
//	GET  /v1/healthz
//	GET  /v1/watch      ?since=N — SSE regime/fault event stream (needs -data-dir)
//	GET  /metrics       Prometheus text exposition
//	GET  /v1/metrics    the same registry as JSON
//	GET  /v1/traces     span trees of the flight recorder's recent requests
//	GET  /v1/slo        burn-rate evaluation (needs -slo)
//	GET  /v1/flightrec  flight-recorder captures and pinned anomalies
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/wal"
)

func main() {
	var (
		addr      = flag.String("addr", serve.DefaultAddr, "listen address")
		debugAddr = flag.String("debug-addr", "", "optional pprof listener address (keep it loopback); empty disables profiling")
		inflight  = flag.Int("inflight", serve.DefaultMaxInFlight, "maximum concurrent requests")
		timeout   = flag.Duration("timeout", serve.DefaultRequestTimeout, "per-request deadline on waits (a wait past it answers 503); work in progress runs to completion")
		batch     = flag.Int("batch", serve.DefaultMaxBatch, "largest accepted license batch")
		cache     = flag.Int("cache", serve.DefaultCacheSize, "entries per LRU cache")
		drain     = flag.Duration("drain", serve.DefaultDrainTimeout, "shutdown drain window")
		quiet     = flag.Bool("quiet", false, "disable per-request logging")
		faultSeed = flag.Uint64("fault-seed", 0, "seed for the deterministic fault schedule (with -fault-profile)")
		faultSpec = flag.String("fault-profile", "", "fault profile: none, flaky, slow, chaos, or an error=/latency=/delay=/poison= spec with optional ROUTE: overrides (ROUTE:off exempts a route); empty disables injection")
		dataDir   = flag.String("data-dir", "", "directory for the durable decision log; empty runs without durability")
		fsyncSpec = flag.String("fsync", "always", "decision-log durability barrier: always, never, or every=N (with -data-dir)")
		snapEvery = flag.Int("snapshot-every", serve.DefaultSnapshotEvery, "decision commits between snapshot compactions (with -data-dir)")
		sloSpec   = flag.String("slo", "", "SLO profile, e.g. availability=0.999,latency=50ms;/v1/healthz:off (ROUTE:off exempts a route); empty disables the burn-rate engine")
		flightCap = flag.Int("flightrec", 0, "request records kept for /v1/flightrec and /v1/traces; 0 uses the default (256), negative disables both")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("hpcexportd", obs.BuildInfo())
		return
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	var plan *fault.Plan
	if *faultSpec != "" {
		prof, err := fault.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hpcexportd:", err)
			os.Exit(1)
		}
		if plan, err = fault.NewPlan(*faultSeed, prof); err != nil {
			fmt.Fprintln(os.Stderr, "hpcexportd:", err)
			os.Exit(1)
		}
	}

	var sloProf slo.Profile
	if *sloSpec != "" {
		var err error
		if sloProf, err = slo.Parse(*sloSpec); err != nil {
			fmt.Fprintln(os.Stderr, "hpcexportd:", err)
			os.Exit(1)
		}
	}

	var log *wal.Log
	if *dataDir != "" {
		policy, err := wal.ParseFsyncPolicy(*fsyncSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hpcexportd:", err)
			os.Exit(1)
		}
		if log, err = wal.Open(wal.Options{Dir: *dataDir, Fsync: policy}); err != nil {
			fmt.Fprintln(os.Stderr, "hpcexportd:", err)
			os.Exit(1)
		}
		defer func() { _ = log.Close() }()
		rec := log.Recovery()
		fmt.Fprintf(os.Stderr,
			"hpcexportd: decision log %s: %d records recovered (%d from snapshot, %d segments, fsync %s)\n",
			*dataDir, len(rec.Records), rec.SnapshotRecords, rec.Segments, policy)
		if rec.TornRecords > 0 || rec.CorruptRecords > 0 || rec.DroppedSnapshots > 0 {
			fmt.Fprintf(os.Stderr,
				"hpcexportd: decision log recovery skipped damage: %d torn, %d corrupt, %d unreadable snapshots\n",
				rec.TornRecords, rec.CorruptRecords, rec.DroppedSnapshots)
		}
	}

	s, err := serve.New(serve.Config{
		MaxInFlight:    *inflight,
		RequestTimeout: *timeout,
		MaxBatch:       *batch,
		CacheSize:      *cache,
		DrainTimeout:   *drain,
		Clock:          time.Now,
		Logger:         logger,
		Fault:          plan,
		WAL:            log,
		SnapshotEvery:  *snapEvery,
		SLO:            sloProf,
		FlightCapacity: *flightCap,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpcexportd:", err)
		os.Exit(1)
	}
	// Announced once New has accepted the profiles' override routes.
	if plan != nil && plan.Profile().Active() {
		fmt.Fprintf(os.Stderr, "hpcexportd: fault injection active: seed %d, profile %s\n",
			*faultSeed, plan.Profile())
	}
	if sloProf.Active() {
		fmt.Fprintf(os.Stderr, "hpcexportd: SLO engine active: %s\n", sloProf)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpcexportd:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "hpcexportd: serving on http://%s\n", ln.Addr())

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hpcexportd: debug listener:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hpcexportd: pprof on http://%s/debug/pprof/\n", dln.Addr())
		go func() {
			dsrv := &http.Server{
				Handler:           debugMux(),
				ReadHeaderTimeout: 5 * time.Second,
			}
			if err := dsrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "hpcexportd: debug listener:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := s.Serve(ctx, ln); err != nil {
		fmt.Fprintln(os.Stderr, "hpcexportd:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "hpcexportd: drained cleanly")
}

// debugMux builds the profiling mux served only on -debug-addr. The
// import of net/http/pprof is deliberately confined to this file so the
// serve package can assert its public handler never exposes it.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
