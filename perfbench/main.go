// Command perfbench is the repository's serving benchmark. In one
// process it builds hpcexportd servers, the hpcexportgw gateway and the
// decision WAL through their public constructors, drives them over
// loopback from one closed-loop caller with a request stream generated
// from the seed, and byte-checks every answer against a plain
// single-node server's. A run is a series of rounds, each on fresh
// servers, until the measured phases add up to -seconds; every metric is
// the median over the rounds.
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// alternates untraced and traced rounds, writes the traced spans to a
// file and prints the per-layer ledger. NOTES.md gives the workloads'
// reasons and what is deliberately left out.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hot-get --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"

	"repro/internal/serve"
)

// heldOutSeed is the seed kept aside for checking a claim on inputs its
// change was not developed against.
const heldOutSeed = 7919

// metric is one reported figure with the base it was computed over.
type metric struct {
	name  string
	unit  string
	value float64
	base  string
}

func main() {
	var (
		name    = flag.String("workload", "hot-get", "workload: hot-get, cold-post-wal or gateway-get")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
		seconds = flag.Int("seconds", 25, "measured time to accumulate over rounds")
		trace   = flag.Int("trace", 0, "1 alternates untraced and traced rounds and prints the per-layer ledger")
		out     = flag.String("out", ".bench_build/perfbench", "directory for span files and scratch data")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, out string) error {
	var w workload
	for _, cand := range workloads {
		if cand.name == name {
			w = cand
		}
	}
	if w.name == "" || seconds < 1 {
		return fmt.Errorf("unknown workload %q or seconds %d", name, seconds)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	b, err := newBench(w, seed, tmp)
	if err != nil {
		return err
	}
	printParams(b, seed, seconds, traced)

	var (
		rounds   []*roundResult
		spans    []span
		l        ledger
		measured float64
		rec      = &recorder{epoch: b.epoch}
	)
	minRounds := 3
	if traced {
		minRounds = 4
	}
	for i := 0; measured < float64(seconds) || len(rounds) < minRounds; i++ {
		var r *recorder
		if traced && i%2 == 1 {
			r = rec
		}
		res, err := b.round(r)
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, res)
		measured += res.wall
		if traced {
			spans = append(spans, stitch(rec.take(), i, len(spans), &l)...)
			for _, s := range res.spans {
				s.ID, s.Round = len(spans), i
				spans = append(spans, s)
			}
		}
	}
	printRounds(b, rounds)

	var metrics []metric
	if traced {
		comp, err := b.components(&l)
		if err != nil {
			return err
		}
		for _, s := range comp {
			s.ID = len(spans)
			spans = append(spans, s)
		}
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s; %d serve.handle spans found no exchange\n", len(spans), path, l.unmatched)
		metrics = perLayer(b, rounds, &l)
	} else {
		metrics = endToEnd(rounds)
	}
	printMetrics(w.name, metrics)
	return printResult(rounds, metrics)
}

// endToEnd is the median over rounds of each figure a user sees.
func endToEnd(rounds []*roundResult) []metric {
	col := func(f func(r *roundResult) float64) []float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(r)
		}
		return xs
	}
	samples := fmt.Sprintf("median of %d rounds of %d requests", len(rounds), streamLen)
	return []metric{
		{"decisions_per_s", "1/s", median(col((*roundResult).perSecond)), samples},
		{"latency_p50_us", "us", median(col(func(r *roundResult) float64 { return r.p50 })), samples},
		{"latency_p90_us", "us", median(col(func(r *roundResult) float64 { return r.p90 })), samples},
		{"cpu_us_per_decision", "us", median(col(func(r *roundResult) float64 { return r.cpu })), samples},
		{"heap_live_mib", "MiB", median(col(func(r *roundResult) float64 { return r.heap })), samples},
		{"setup_s", "s", median(col(func(r *roundResult) float64 { return r.setup })), samples},
	}
}

// perLayer assembles the ledger: span timings from the traced rounds
// and component calls, counts from the untraced rounds' deltas, set-up
// spans from every round.
func perLayer(b *bench, rounds []*roundResult, l *ledger) []metric {
	var d counts
	var decisions, lookups float64
	var plain, tracedP50, newS, openS, retained []float64
	var mismatches, recovered float64
	for _, r := range rounds {
		newS = append(newS, r.spans.sum("serve.new"))
		openS = append(openS, r.spans.sum("wal.open"))
		retained = append(retained, ratio(float64(r.replay.cacheSize), float64(r.replay.replayed)))
		mismatches = max(mismatches, float64(r.replay.mismatches))
		recovered = float64(r.replay.recovered)
		if r.traced {
			tracedP50 = append(tracedP50, r.p50)
			continue
		}
		plain = append(plain, r.p50)
		decisions += float64(r.decisions)
		a, z := &r.after, &r.before
		d.hits += a.hits - z.hits
		d.misses += a.misses - z.misses
		d.evictions += a.evictions - z.evictions
		d.fills += a.fills - z.fills
		d.semWaitNs += a.semWaitNs - z.semWaitNs
		d.semWaits += a.semWaits - z.semWaits
		d.appendErrs += a.appendErrs - z.appendErrs
		d.wal.Appends += a.wal.Appends - z.wal.Appends
		d.wal.Fsyncs += a.wal.Fsyncs - z.wal.Fsyncs
		d.wal.Compactions += a.wal.Compactions - z.wal.Compactions
		d.gwRequests += a.gwRequests - z.gwRequests
		d.hedges += a.hedges - z.hedges
		d.hedgeWins += a.hedgeWins - z.hedgeWins
		d.retries += a.retries - z.retries
		d.mallocs += a.mallocs - z.mallocs
		d.allocBytes += a.allocBytes - z.allocBytes
		d.numGC += a.numGC - z.numGC
		d.gcCPU += a.gcCPU - z.gcCPU
		d.allCPU += a.allCPU - z.allCPU
		d.writeBytes += a.writeBytes - z.writeBytes
	}
	lookups = d.hits + d.misses
	perDec := func(x float64) float64 { return ratio(x, decisions) }
	decBase := fmt.Sprintf("%.0f decisions (untraced rounds)", decisions)
	handle, serveTrans := sortedCopy(l.handle), sortedCopy(l.serveTrans)
	gwSelf, gwTrans, exchange := sortedCopy(l.gwSelf), sortedCopy(l.gwTrans), sortedCopy(l.exchange)
	spanBase := func(n int, what string) string { return fmt.Sprintf("%d %s (traced rounds)", n, what) }
	compBase := fmt.Sprintf("%d calls on the stream's inputs", l.componentRuns)
	fills, appends := perDec(d.fills), perDec(float64(d.wal.Appends))
	decode, resolve, evaluate, walAppend := mean(l.decode), mean(l.resolve), mean(l.evaluate), mean(l.walAppend)
	setupBase := fmt.Sprintf("median of %d set-ups", len(rounds))
	noWAL, noGW := "", ""
	if !b.w.wal {
		noWAL = "; n/a: no WAL on this workload's path"
	}
	if !b.w.gateway {
		noGW = "; n/a: no gateway on this workload's path"
	}
	return []metric{
		{"serve.handle_us_p50", "us", quantile(handle, 0.50), spanBase(len(handle), "serve.handle spans")},
		{"serve.handle_us_p99", "us", quantile(handle, 0.99), spanBase(len(handle), "serve.handle spans")},
		{"serve.transport_us_p50", "us", quantile(serveTrans, 0.50), spanBase(len(serveTrans), "parent span minus serve.handle")},
		{"serve.decode_us", "us", decode, compBase},
		{"serve.resolve_key_us", "us", resolve, compBase},
		{"serve.unattributed_us", "us", mean(l.handle) - decode - resolve - fills*evaluate - appends*walAppend,
			fmt.Sprintf("mean serve.handle minus decode, resolve_key, %.3g x evaluate, %.3g x wal.append", fills, appends)},
		{"serve.cache_hit_ratio", "ratio", ratio(d.hits, lookups),
			fmt.Sprintf("%.0f decision-cache lookups (cache_hits_total delta)", lookups)},
		{"serve.cache_evictions_per_decision", "count/decision", perDec(d.evictions), decBase},
		{"serve.flight_fills_per_decision", "count/decision", fills, decBase},
		{"serve.sem_wait_us_mean", "us", ratio(d.semWaitNs, d.semWaits) / 1e3,
			fmt.Sprintf("%.0f semaphore waits (http_semaphore_wait_ns delta)", d.semWaits)},
		{"serve.new_s", "s", median(newS), setupBase + ", summed over a set-up's servers"},
		{"serve.replay_retained_ratio", "ratio", median(retained), "decision-cache size / wal.replayed after set-up" + noWAL},
		{"serve.replay_mismatches", "count", mismatches, "replayMismatches after set-up" + noWAL},
		{"safeguards.evaluate_us", "us", evaluate, compBase},
		{"wal.append_us", "us", walAppend, compBase + ", side log, fsync " + fsyncPolicy.String()},
		{"wal.appends_per_decision", "count/decision", appends, decBase + noWAL},
		{"wal.fsyncs_per_1k_decisions", "count/1k", 1e3 * perDec(float64(d.wal.Fsyncs)), decBase + noWAL},
		{"wal.compactions_per_1k_decisions", "count/1k", 1e3 * perDec(float64(d.wal.Compactions)), decBase + noWAL},
		{"wal.write_bytes_per_decision", "B/decision", perDec(float64(d.writeBytes)), decBase + ", /proc/self/io write_bytes"},
		{"wal.append_errors", "count", d.appendErrs, "wal_append_errors_total delta" + noWAL},
		{"wal.open_s", "s", median(openS), setupBase + noWAL},
		{"wal.recovered_records", "count", recovered, "len(Recovery().Records)" + noWAL},
		{"gateway.handle_self_us_p50", "us", quantile(gwSelf, 0.50), spanBase(len(gwSelf), "gateway.handle spans") + noGW},
		{"gateway.transport_us_p50", "us", quantile(gwTrans, 0.50), spanBase(len(gwTrans), "requests") + noGW},
		{"gateway.exchange_us_p50", "us", quantile(exchange, 0.50), spanBase(len(exchange), "exchanges") + noGW},
		{"gateway.exchanges_per_request", "ratio", ratio(float64(l.exchanges), float64(l.requests)),
			spanBase(l.requests, "requests") + noGW},
		{"gateway.hedge_rate", "ratio", ratio(d.hedges, d.gwRequests),
			fmt.Sprintf("%.0f gateway requests", d.gwRequests) + noGW},
		{"gateway.hedge_win_ratio", "ratio", ratio(d.hedgeWins, d.hedges), fmt.Sprintf("%.0f hedges", d.hedges) + noGW},
		{"gateway.retries_per_request", "ratio", ratio(d.retries, d.gwRequests),
			fmt.Sprintf("%.0f gateway requests", d.gwRequests) + noGW},
		{"runtime.allocs_per_decision", "count/decision", perDec(float64(d.mallocs)), decBase},
		{"runtime.alloc_bytes_per_decision", "B/decision", perDec(float64(d.allocBytes)), decBase},
		{"runtime.gc_cycles_per_1k_decisions", "count/1k", 1e3 * perDec(float64(d.numGC)), decBase},
		{"runtime.gc_cpu_share", "ratio", ratio(d.gcCPU, d.allCPU),
			fmt.Sprintf("%.3f CPU-seconds (runtime/metrics)", d.allCPU)},
		{"trace.overhead_pct", "%", 100 * (ratio(median(tracedP50), median(plain)) - 1),
			fmt.Sprintf("median p50 of %d traced vs %d untraced rounds", len(tracedP50), len(plain))},
	}
}

func printParams(b *bench, seed uint64, seconds int, traced bool) {
	fsync := "n/a (no WAL)"
	if b.w.wal {
		fsync = fsyncPolicy.String() + fmt.Sprintf(", snapshot every %d commits, log of %d decisions",
			serve.DefaultSnapshotEvery, logKeys)
	}
	fmt.Printf("perfbench %s: seed %d (held-out seed %d), trace %v, %d s measured\n",
		b.w.name, seed, heldOutSeed, traced, seconds)
	fmt.Printf("  %s %s/%s, GOMAXPROCS %d, nproc %d, cpu %q, kernel %s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		cpuModel(), readTrim("/proc/sys/kernel/osrelease"))
	fmt.Printf("  %d distinct inputs, %d requests per round, %d backend(s), gateway %v, fsync %s\n",
		len(b.inputs), streamLen, b.w.backends, b.w.gateway, fsync)
}

func printRounds(b *bench, rounds []*roundResult) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "round\ttraced\tsetup_s\tdecisions/s\tp50_us\tp90_us\tp99_us\tp999_us\tcpu_us/dec\theap_MiB\tattempted\tfailed\tmismatches\tX-Cache hit\t")
	var cols [8][]float64
	for i, r := range rounds {
		row := []float64{r.setup, r.perSecond(), r.p50, r.p90, r.p99, r.p999, r.cpu, r.heap}
		fmt.Fprintf(tw, "%d\t%v\t%.4f\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.3f\t%d\t%d\t%d\t%d\t\n",
			i, r.traced, row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7],
			r.attempted, r.failed, r.mismatches, r.hits)
		if !r.traced {
			for j, v := range row {
				cols[j] = append(cols[j], v)
			}
		}
	}
	for _, agg := range []struct {
		name string
		f    func([]float64) float64
	}{{"median", median}, {"IQR/median", spread}} {
		fmt.Fprintf(tw, "%s\tuntraced", agg.name)
		for _, c := range cols {
			fmt.Fprintf(tw, "\t%.4g", agg.f(c))
		}
		fmt.Fprintln(tw, "\t\t\t\t\t")
	}
	_ = tw.Flush()
	fmt.Printf("  quantiles are exact over each round's %d latency samples; p99 and p999 are reported, not gated\n", streamLen)
	if b.w.gateway {
		fmt.Printf("  X-Gw-Backend answers, last round: %v\n", rounds[len(rounds)-1].backends)
	}
}

func printMetrics(workload string, ms []metric) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tworkload\tbase")
	for _, m := range ms {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\n", m.name, m.value, m.unit, workload, m.base)
	}
	_ = tw.Flush()
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the result line: every answer correct, the
// operations attempted and failed over all rounds, and the metrics.
func printResult(rounds []*roundResult, ms []metric) error {
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]value, len(ms))}
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.mismatches > 0 {
			res.Correct = false
		}
	}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		res.Metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func readTrim(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

func cpuModel() string {
	for _, line := range strings.Split(readTrim("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
