// hpcexportgw is the cluster front door: a consistent-hash routing
// gateway over N hpcexportd backends. Canonical decision keys — the same
// keys the backends' decision cache, singleflight group, and WAL use —
// route to a stable owner shard; a thundering herd on one key costs one
// backend computation cluster-wide; slow shards are hedged against a
// second replica and the two answers are compared byte-for-byte.
//
// Usage:
//
//	hpcexportgw -backends http://localhost:8095,http://localhost:8096
//	hpcexportgw -membership cluster.txt      # file-watched member list
//	hpcexportgw -addr :8094 -vnodes 128 -probe-every 1s -rejoin-after 3
//	hpcexportgw -no-hedge                    # disable hedged reads
//	hpcexportgw -version                     # print build info and exit
//
// The gateway drains gracefully on SIGTERM or SIGINT, like the backends.
//
// A backend whose /v1/healthz reports degraded or stops answering is
// drained: no new keys route to it, in-flight exchanges complete, and it
// rejoins only after -rejoin-after consecutive healthy probes. With
// -membership, the file (one backend URL per line, # comments) is
// re-read whenever its mtime changes; -backends seeds the member set
// until the file first parses.
//
// Endpoints (see README "Running a cluster"):
//
//	GET/POST /v1/license  keyed routing, singleflight, hedged reads;
//	                      a batch goes whole to its first item's owner
//	GET  /v1/healthz      aggregated cluster health
//	GET  /metrics         the gateway's Prometheus exposition
//	GET  /v1/metrics      the same registry as JSON
//	GET  /v1/traces       span trees of the gateway's request records
//	GET  /v1/flightrec    the gateway's record of every routed request;
//	                      hedge mismatches pin
//	everything else       proxied to the URI-hash owner backend
//
// The batch limit is the backends' -batch: the owner a batch goes to
// answers it as a single node would, an over-limit 413 included.
//
// Reading the four telemetry routes counts and records nothing. /v1/slo
// is proxied to a backend the same way, uncounted and unrecorded; every
// other proxied route is recorded, an unknown path under "other".
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/obs"
)

func main() {
	var (
		addr       = flag.String("addr", gateway.DefaultAddr, "listen address")
		backends   = flag.String("backends", "", "comma-separated backend base URLs (http://host:port)")
		membership = flag.String("membership", "", "membership file: one backend URL per line, re-read on change")
		vnodes     = flag.Int("vnodes", 0, "virtual nodes per backend on the hash ring (0 = default)")
		probeEvery = flag.Duration("probe-every", gateway.DefaultProbeEvery, "health-probe and membership-check cadence")
		probeTO    = flag.Duration("probe-timeout", gateway.DefaultProbeTimeout, "single health-probe deadline")
		rejoin     = flag.Int("rejoin-after", gateway.DefaultRejoinAfter, "consecutive healthy probes before a drained backend rejoins")
		attempts   = flag.Int("attempts", gateway.DefaultAttempts, "forwarding attempts per request")
		noHedge    = flag.Bool("no-hedge", false, "disable hedged reads")
		hedgeCold  = flag.Duration("hedge-cold", gateway.DefaultHedgeCold, "hedge delay before latency history accumulates")
		drain      = flag.Duration("drain", gateway.DefaultDrainTimeout, "shutdown drain window")
		flightCap  = flag.Int("flightrec", 0, "flight-recorder ring capacity; 0 uses the default, negative disables capture")
		quiet      = flag.Bool("quiet", false, "disable event logging")
		version    = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("hpcexportgw", obs.BuildInfo())
		return
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	var list []string
	if *backends != "" {
		list = strings.Split(*backends, ",")
	}
	g, err := gateway.New(gateway.Config{
		Backends:       list,
		MembershipFile: *membership,
		VNodes:         *vnodes,
		ProbeEvery:     *probeEvery,
		ProbeTimeout:   *probeTO,
		RejoinAfter:    *rejoin,
		Attempts:       *attempts,
		NoHedge:        *noHedge,
		HedgeCold:      *hedgeCold,
		DrainTimeout:   *drain,
		FlightCapacity: *flightCap,
		Logger:         logger,
		Clock:          time.Now,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpcexportgw:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpcexportgw:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "hpcexportgw: routing for %d backends on http://%s\n",
		len(g.Members()), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	g.Start(ctx)
	err = g.Serve(ctx, ln)
	stop()
	g.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpcexportgw:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "hpcexportgw: drained cleanly")
}
