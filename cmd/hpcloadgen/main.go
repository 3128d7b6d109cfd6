// hpcloadgen drives a running hpcexportd with a sustained, reproducible
// license workload and reports throughput and tail latency — the
// cluster-era figure of merit the microbenchmarks in BENCH_baseline.json
// cannot see. It is the measurement half of the zero-allocation license
// hot path: BENCH_throughput.json is produced by this tool.
//
// Two load models:
//
//	-mode closed    N workers (-conc) issue requests back-to-back: the
//	                classic closed loop, measuring peak sustainable qps.
//	-mode open      arrivals are scheduled at a fixed rate (-qps) and
//	                latency is measured from the scheduled arrival time,
//	                so queueing delay under overload is charged to the
//	                tail instead of silently thinning the arrival stream
//	                (no coordinated omission).
//
// The request mix is generated deterministically from -seed over the
// system catalog, destination tiers, and end-use strings: the same seed
// always produces the same -mix distinct requests in the same order, so
// two runs against the same daemon exercise identical key populations.
// A -warmup phase runs the same mix unrecorded first, which both fills
// the decision cache and steadies the connection pool.
//
// Scenarios (comma-separated in -scenario):
//
//	get     warm GET /v1/license with query parameters
//	post    single-decision POST /v1/license
//	batch   POST /v1/license with a -batch-size request batch
//
// Usage:
//
//	hpcloadgen -serve http://localhost:8095                 # all scenarios
//	hpcloadgen -scenario batch -conc 32 -duration 10s
//	hpcloadgen -mode open -qps 5000 -scenario get
//	hpcloadgen -o BENCH_throughput.json                     # write baseline
//	hpcloadgen -against BENCH_throughput.json -tolerance 0.9
//	hpcloadgen -prefix prechange_                           # namespace keys
//
// Output is a JSON object keyed by scenario: requests, errors, qps,
// p50/p99 nanoseconds (from an internal/obs power-of-two histogram, so
// quantiles are order-of-magnitude bounds), and client-side allocations
// per request (runtime.MemStats delta across the measured phase — the
// generator's own cost, reported so regressions on the client path are
// visible too). With -against, shared scenarios are compared by qps
// and the run fails if any falls below (1 - tolerance) of the baseline.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/units"
)

// Result is one scenario's measurement.
type Result struct {
	Mode             string  `json:"mode"`
	Requests         uint64  `json:"requests"`
	Errors           uint64  `json:"errors"`
	QPS              float64 `json:"qps"`
	P50Ns            uint64  `json:"p50_ns"`
	P99Ns            uint64  `json:"p99_ns"`
	AllocsPerRequest float64 `json:"allocs_per_request"`
}

// workload is one scenario's precomputed request population: either GET
// targets or POST bodies, never both.
type workload struct {
	name    string
	targets []string // GET URLs
	postURL string   // POST endpoint when bodies is the population
	bodies  [][]byte // POST bodies for /v1/license
}

// destinations spans the safeguard tiers so the mix exercises every row
// of the decision table.
var destinations = []string{
	"japan", "france", "germany", "india", "israel", "brazil",
	"china", "russia", "egypt", "south korea", "iran", "poland",
}

var endUses = []string{
	"", "weather modeling", "crash simulation", "reservoir modeling",
	"computational chemistry", "aerodynamics",
}

func main() {
	var (
		base      = flag.String("serve", "http://localhost:8095", "base URL of the daemon under load")
		mode      = flag.String("mode", "closed", "load model: closed (back-to-back workers) or open (fixed arrival rate)")
		conc      = flag.Int("conc", 16, "closed-loop workers / open-loop max in-flight")
		qps       = flag.Float64("qps", 2000, "open-loop target arrival rate")
		duration  = flag.Duration("duration", 5*time.Second, "measured phase length per scenario")
		warmup    = flag.Duration("warmup", time.Second, "unrecorded warmup length per scenario")
		seed      = flag.Uint64("seed", 1, "request-mix seed; same seed, same mix")
		scenarios = flag.String("scenario", "get,post,batch", "comma-separated scenarios: get, post, batch")
		batchSize = flag.Int("batch-size", 64, "requests per batch in the batch scenario")
		mix       = flag.Int("mix", 256, "distinct requests in the generated population")
		prefix    = flag.String("prefix", "", "prefix for output keys (e.g. prechange_)")
		out       = flag.String("o", "", "write results to this file instead of stdout")
		against   = flag.String("against", "", "baseline file to compare against (optional)")
		tolerance = flag.Float64("tolerance", 0, "fail if a shared scenario's qps falls below (1-tolerance) of the baseline; 0 = report only")
	)
	flag.Parse()
	if *mode != "closed" && *mode != "open" {
		fmt.Fprintf(os.Stderr, "hpcloadgen: unknown -mode %q (want closed or open)\n", *mode)
		os.Exit(2)
	}
	if *conc < 1 || *batchSize < 1 || *mix < 1 {
		fmt.Fprintln(os.Stderr, "hpcloadgen: -conc, -batch-size, and -mix must be at least 1")
		os.Exit(2)
	}

	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
			MaxIdleConns:        *conc * 2,
			MaxIdleConnsPerHost: *conc * 2,
			IdleConnTimeout:     90 * time.Second,
		},
	}

	results := map[string]Result{}
	for _, name := range strings.Split(*scenarios, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		w, err := buildWorkload(name, *base, *seed, *mix, *batchSize)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hpcloadgen:", err)
			os.Exit(2)
		}
		r := run(client, w, *mode, *conc, *qps, *warmup, *duration)
		results[*prefix+name] = r
		fmt.Fprintf(os.Stderr, "%-18s %s  %9.0f qps  p50 %8s  p99 %8s  %6.1f allocs/req  (%d requests, %d errors)\n",
			*prefix+name, *mode, r.QPS,
			time.Duration(r.P50Ns), time.Duration(r.P99Ns),
			r.AllocsPerRequest, r.Requests, r.Errors)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "hpcloadgen: no scenarios selected")
		os.Exit(2)
	}

	blob, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpcloadgen:", err)
		os.Exit(2)
	}
	blob = append(blob, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "hpcloadgen:", err)
			os.Exit(2)
		}
	} else {
		os.Stdout.Write(blob)
	}

	if *against != "" {
		if !compare(results, *against, *tolerance) {
			os.Exit(1)
		}
	}
}

// buildWorkload generates a scenario's deterministic request population.
// Every draw comes from the seeded splitmix64 stream, so the population
// is a pure function of (seed, mix, batch size).
func buildWorkload(name, base string, seed uint64, mix, batchSize int) (*workload, error) {
	systems := catalog.All()
	next := fault.Stream(seed)
	pick := func(n int) int { return int(next() * float64(n)) }
	genReq := func() serve.LicenseRequest {
		var req serve.LicenseRequest
		if pick(4) == 0 { // a quarter of the mix resolves by catalog name
			req.System = systems[pick(len(systems))].Name
		} else {
			req.CTP = serve.CTPValue(float64(100 + pick(500000)))
		}
		req.Destination = destinations[pick(len(destinations))]
		req.EndUse = endUses[pick(len(endUses))]
		if pick(8) == 0 { // occasionally pin an explicit threshold
			req.Threshold = serve.CTPValue(float64(units.Mtops(1500 + pick(9000))))
		}
		return req
	}

	w := &workload{name: name, postURL: base + "/v1/license"}
	switch name {
	case "get":
		for i := 0; i < mix; i++ {
			req := genReq()
			var sb strings.Builder
			sb.WriteString(base)
			sb.WriteString("/v1/license?")
			if req.System != "" {
				sb.WriteString("system=")
				sb.WriteString(strings.ReplaceAll(req.System, " ", "+"))
			} else {
				fmt.Fprintf(&sb, "ctp=%g", float64(req.CTP))
			}
			fmt.Fprintf(&sb, "&dest=%s", strings.ReplaceAll(req.Destination, " ", "+"))
			if req.EndUse != "" {
				fmt.Fprintf(&sb, "&endUse=%s", strings.ReplaceAll(req.EndUse, " ", "+"))
			}
			if req.Threshold != 0 {
				fmt.Fprintf(&sb, "&threshold=%g", float64(req.Threshold))
			}
			w.targets = append(w.targets, sb.String())
		}
	case "post":
		for i := 0; i < mix; i++ {
			req := genReq()
			body, err := json.Marshal(req)
			if err != nil {
				return nil, fmt.Errorf("scenario post: unencodable generated request %+v: %w", req, err)
			}
			w.bodies = append(w.bodies, body)
		}
	case "batch":
		for i := 0; i < mix; i++ {
			reqs := make([]serve.LicenseRequest, batchSize)
			for j := range reqs {
				reqs[j] = genReq()
			}
			body, err := json.Marshal(serve.BatchRequest{Requests: reqs})
			if err != nil {
				return nil, fmt.Errorf("scenario batch: unencodable generated batch: %w", err)
			}
			w.bodies = append(w.bodies, body)
		}
	default:
		return nil, fmt.Errorf("unknown scenario %q (want get, post, or batch)", name)
	}
	return w, nil
}

// issue sends the i-th request of the population and reports success.
func (w *workload) issue(client *http.Client, i int) bool {
	var (
		resp *http.Response
		err  error
	)
	if w.targets != nil {
		resp, err = client.Get(w.targets[i%len(w.targets)])
	} else {
		body := w.bodies[i%len(w.bodies)]
		resp, err = client.Post(w.postURL, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// run measures one scenario under the chosen load model.
func run(client *http.Client, w *workload, mode string, conc int, qps float64, warmup, duration time.Duration) Result {
	runPhase := func(d time.Duration, record bool, hist *obs.Histogram, reqs, errs *atomic.Uint64) {
		deadline := time.Now().Add(d)
		if mode == "open" && record {
			runOpen(client, w, conc, qps, deadline, hist, reqs, errs)
			return
		}
		var wg sync.WaitGroup
		for g := 0; g < conc; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				i := g * 7919 // co-prime stride start so workers spread over the mix
				for time.Now().Before(deadline) {
					start := time.Now()
					ok := w.issue(client, i)
					if record {
						hist.ObserveDuration(time.Since(start))
						reqs.Add(1)
						if !ok {
							errs.Add(1)
						}
					}
					i++
				}
			}(g)
		}
		wg.Wait()
	}

	var (
		hist obs.Histogram
		reqs atomic.Uint64
		errs atomic.Uint64
	)
	if warmup > 0 {
		runPhase(warmup, false, &hist, &reqs, &errs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	runPhase(duration, true, &hist, &reqs, &errs)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	n := reqs.Load()
	res := Result{
		Mode:     mode,
		Requests: n,
		Errors:   errs.Load(),
		QPS:      float64(n) / elapsed.Seconds(),
		P50Ns:    hist.Quantile(0.50),
		P99Ns:    hist.Quantile(0.99),
	}
	if n > 0 {
		res.AllocsPerRequest = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	return res
}

// runOpen schedules arrivals at the target rate and measures each
// request's latency from its scheduled arrival time: a late start caused
// by every worker being busy counts against the tail, so overload shows
// up as latency rather than as a quietly slower arrival stream.
func runOpen(client *http.Client, w *workload, conc int, qps float64, deadline time.Time, hist *obs.Histogram, reqs, errs *atomic.Uint64) {
	if qps <= 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / qps)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	arrivals := make(chan time.Time, 1<<16)
	var wg sync.WaitGroup
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g * 7919
			for scheduled := range arrivals {
				ok := w.issue(client, i)
				hist.ObserveDuration(time.Since(scheduled))
				reqs.Add(1)
				if !ok {
					errs.Add(1)
				}
				i++
			}
		}(g)
	}
	for next := time.Now(); next.Before(deadline); next = next.Add(interval) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		select {
		case arrivals <- next:
		default:
			// The arrival buffer is full: the system is hopelessly behind
			// the target rate. Count the arrival as an error rather than
			// blocking the scheduler (which would close the loop).
			reqs.Add(1)
			errs.Add(1)
		}
	}
	close(arrivals)
	wg.Wait()
}

// compare prints qps ratios against a baseline file and reports whether
// every shared scenario stayed above (1 - tolerance) of its baseline.
func compare(now map[string]Result, path string, tolerance float64) bool {
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpcloadgen:", err)
		return false
	}
	var base map[string]Result
	if err := json.Unmarshal(blob, &base); err != nil {
		fmt.Fprintf(os.Stderr, "hpcloadgen: parsing %s: %v\n", path, err)
		return false
	}
	names := make([]string, 0, len(now))
	for name := range now {
		if _, ok := base[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		b, n := base[name], now[name]
		if b.QPS <= 0 {
			continue
		}
		ratio := n.QPS / b.QPS
		verdict := ""
		if tolerance > 0 && ratio < 1-tolerance {
			verdict = "  REGRESSION"
			ok = false
		}
		fmt.Fprintf(os.Stderr, "%-18s %9.0f qps vs %9.0f baseline  (%.2fx)%s\n",
			name, n.QPS, b.QPS, ratio, verdict)
	}
	return ok
}
