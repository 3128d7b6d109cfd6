// bench runs the repository's benchmark suite and writes a
// machine-readable baseline: the run's parameters and machine, then one
// record per benchmark with its median ns/op over the repetitions (with
// the fastest and slowest), B/op, and allocs/op. The committed
// BENCH_baseline.json is the reference point of the perf trajectory;
// later runs are compared against it.
//
// Every benchmark runs count (3) times at -benchtime (200ms by default),
// so each figure is a steady-state per-op time, not one iteration, and
// the min–max range shows how far repetitions on the machine spread.
//
// Usage:
//
//	go run ./cmd/bench                     # write BENCH_baseline.json
//	go run ./cmd/bench -o /tmp/now.json    # write elsewhere
//	go run ./cmd/bench -against BENCH_baseline.json -o /tmp/now.json
//	go run ./cmd/bench -against BENCH_baseline.json -alloc-strict
//
// With -against, the run prints a per-benchmark speedup column versus
// the given baseline and exits nonzero if any shared benchmark
// regressed by more than the -tolerance factor; -alloc-strict
// additionally fails the run if any shared benchmark's allocs/op
// increased, so zero-allocation hot paths cannot silently rot.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// count is how many times every benchmark runs.
const count = 3

// Baseline is the file the run writes: its parameters and machine, then
// the benchmarks by name.
type Baseline struct {
	Benchtime  string            `json:"benchtime"`
	Count      int               `json:"count"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPU        string            `json:"cpu"`
	Benchmarks map[string]Record `json:"benchmarks"`
}

// Record is one benchmark's measurement over the run's repetitions: the
// median ns/op with the fastest and slowest repetition, and the median
// B/op and allocs/op.
type Record struct {
	NsPerOp     float64 `json:"ns_op"`
	NsPerOpMin  float64 `json:"ns_op_min"`
	NsPerOpMax  float64 `json:"ns_op_max"`
	BytesPerOp  int64   `json:"bytes_op"`
	AllocsPerOp int64   `json:"allocs_op"`
}

// sample is one repetition's result line.
type sample struct {
	ns            float64
	bytes, allocs int64
}

// benchLine matches a `go test -bench` result line, e.g.
//
//	BenchmarkSparseCG-8   1   123456 ns/op   400 B/op   5 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) MB/s)?(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	var (
		out         = flag.String("o", "BENCH_baseline.json", "output file")
		benchtime   = flag.String("benchtime", "200ms", "go test -benchtime value")
		pattern     = flag.String("bench", ".", "go test -bench pattern")
		against     = flag.String("against", "", "baseline file to compare against (optional)")
		tolerance   = flag.Float64("tolerance", 0, "fail if ns/op regresses by more than this factor (0 = report only)")
		allocStrict = flag.Bool("alloc-strict", false, "with -against, fail if any shared benchmark's allocs/op increased")
	)
	flag.Parse()

	raw, err := runBenchmarks(*pattern, *benchtime)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	samples, cpu := parse(raw)
	if len(samples) == 0 {
		fmt.Fprintln(os.Stderr, "bench: no benchmark results parsed")
		os.Exit(2)
	}
	run := Baseline{
		Benchtime:  *benchtime,
		Count:      count,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpu,
		Benchmarks: summarize(samples),
	}

	buf, err := json.MarshalIndent(run, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Printf("bench: wrote %d benchmarks to %s\n", len(run.Benchmarks), *out)

	if *against != "" {
		if !compare(*against, run.Benchmarks, *tolerance, *allocStrict) {
			os.Exit(1)
		}
	}
}

// runBenchmarks invokes the go tool and returns its combined output.
func runBenchmarks(pattern, benchtime string) ([]byte, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", pattern, "-benchtime", benchtime, "-count", strconv.Itoa(count),
		"-benchmem", "./...")
	var outBuf bytes.Buffer
	cmd.Stdout = &outBuf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	return outBuf.Bytes(), nil
}

// parse extracts every repetition's result from go test output, grouped
// by benchmark, and the CPU model go test reports. The -N GOMAXPROCS
// suffix is stripped so baselines compare across machines; sub-benchmark
// paths (workers=4, n=128) are preserved.
func parse(raw []byte) (map[string][]sample, string) {
	samples := map[string][]sample{}
	cpu := ""
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if c, ok := strings.CutPrefix(line, "cpu: "); ok && cpu == "" {
			cpu = c
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		smp := sample{ns: atof(m[2])}
		if m[4] != "" {
			smp.bytes = atoi(m[4])
		}
		if m[5] != "" {
			smp.allocs = atoi(m[5])
		}
		samples[m[1]] = append(samples[m[1]], smp)
	}
	return samples, cpu
}

// summarize reduces each benchmark's repetitions to its record.
func summarize(samples map[string][]sample) map[string]Record {
	records := make(map[string]Record, len(samples))
	for name, ss := range samples {
		ns := make([]float64, len(ss))
		perOpBytes := make([]float64, len(ss))
		allocs := make([]float64, len(ss))
		for i, s := range ss {
			ns[i], perOpBytes[i], allocs[i] = s.ns, float64(s.bytes), float64(s.allocs)
		}
		med := median(ns) // sorts ns
		records[name] = Record{
			NsPerOp:     med,
			NsPerOpMin:  ns[0],
			NsPerOpMax:  ns[len(ns)-1],
			BytesPerOp:  int64(median(perOpBytes)),
			AllocsPerOp: int64(median(allocs)),
		}
	}
	return records
}

// median returns the middle value of v, the mean of the two middle
// values for an even length. It sorts v in place.
func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func atof(s string) float64 { v, _ := strconv.ParseFloat(s, 64); return v }
func atoi(s string) int64   { v, _ := strconv.ParseInt(s, 10, 64); return v }

// compare prints per-benchmark speedups versus a baseline file and
// reports whether the run stays within tolerance. With allocStrict, an
// allocs/op increase on any shared benchmark is a failure on its own —
// the guard that keeps zero-alloc hot paths from silently rotting.
func compare(path string, now map[string]Record, tolerance float64, allocStrict bool) bool {
	buf, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	var file Baseline
	if err := json.Unmarshal(buf, &file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	base := file.Benchmarks
	if len(base) == 0 {
		fmt.Fprintf(os.Stderr, "bench: %s holds no benchmarks under \"benchmarks\"\n", path)
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
		if n.NsPerOp <= 0 || b.NsPerOp <= 0 {
			continue
		}
		speedup := b.NsPerOp / n.NsPerOp
		marker := ""
		if tolerance > 0 && speedup < 1/tolerance {
			marker = "  REGRESSED"
			ok = false
		}
		if allocStrict && n.AllocsPerOp > b.AllocsPerOp {
			marker += "  ALLOCS REGRESSED"
			ok = false
		}
		fmt.Printf("%-60s %10.0f [%.0f-%.0f] -> %10.0f ns/op  %5.2fx  allocs %d -> %d%s\n",
			name, b.NsPerOp, b.NsPerOpMin, b.NsPerOpMax, n.NsPerOp, speedup, b.AllocsPerOp, n.AllocsPerOp, marker)
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: regression versus %s\n", path)
	}
	return ok
}
