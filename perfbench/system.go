package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/serve"
	"repro/internal/wal"
)

// fsyncPolicy is the WAL policy cold-post-wal mounts. It is set
// explicitly: wal.Options documents a zero Fsync as "always", but the
// zero value is FsyncNever.
var fsyncPolicy = wal.FsyncNever

// httpProc is one listener with an http.Server on it, configured as
// serve.Server.Serve and gateway.Gateway.Serve configure theirs.
type httpProc struct {
	srv  *http.Server
	done chan error
	url  string
}

func startHTTP(h http.Handler) (*httpProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &httpProc{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
	}
	go func() { p.done <- p.srv.Serve(ln) }()
	return p, nil
}

// stop shuts the server down and waits for its Serve goroutine.
func (p *httpProc) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := p.srv.Shutdown(ctx)
	if serr := <-p.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// system is one round's fresh servers: hpcexportd backends, optionally
// the hpcexportgw gateway in front of them, and optionally the WAL.
type system struct {
	servers  []*serve.Server
	backends []*httpProc
	gw       *gateway.Gateway
	gwProc   *httpProc
	gwStop   context.CancelFunc
	gwTrans  *http.Transport
	log      *wal.Log
	dir      string
	front    string // base URL the caller talks to
}

// setupSpans are the constructor timings of one round's setup.
type setupSpans []span

func (ss *setupSpans) time(name string, start time.Time, epoch time.Time) {
	*ss = append(*ss, span{Name: name, Parent: -1, Start: int64(start.Sub(epoch)), End: int64(time.Since(epoch))})
}

// sum is the total duration of the spans called name, in seconds.
func (ss setupSpans) sum(name string) float64 {
	var d int64
	for _, s := range ss {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return float64(d) / 1e9
}

// build constructs the round's servers through their public
// constructors. With rec non-nil, handlers and the gateway's backend
// transport are wrapped to record spans.
func (b *bench) build(rec *recorder, ss *setupSpans) (*system, error) {
	sys := &system{}
	if b.w.wal {
		dir, err := os.MkdirTemp(b.tmp, "wal-")
		if err != nil {
			return sys, err
		}
		sys.dir = dir
		// The copy of the pre-written log is not set-up work: a restart
		// finds its log already on disk.
		if err := copyDir(b.template, dir); err != nil {
			return sys, err
		}
	}
	*ss = (*ss)[:0]
	if b.w.wal {
		t := time.Now()
		log, err := wal.Open(wal.Options{Dir: sys.dir, Fsync: fsyncPolicy})
		if err != nil {
			return sys, fmt.Errorf("wal.Open: %w", err)
		}
		ss.time("wal.open", t, b.epoch)
		sys.log = log
	}
	for i := 0; i < b.w.backends; i++ {
		t := time.Now()
		s, err := serve.New(serve.Config{
			Clock:         time.Now,
			WAL:           sys.log,
			SnapshotEvery: serve.DefaultSnapshotEvery,
		})
		if err != nil {
			return sys, fmt.Errorf("serve.New: %w", err)
		}
		ss.time("serve.new", t, b.epoch)
		sys.servers = append(sys.servers, s)
		var h http.Handler = s.Handler()
		if rec != nil {
			h = rec.handler("serve.handle", h)
		}
		p, err := startHTTP(h)
		if err != nil {
			return sys, err
		}
		sys.backends = append(sys.backends, p)
	}
	sys.front = sys.backends[0].url
	if b.w.gateway {
		urls := make([]string, len(sys.backends))
		for i, p := range sys.backends {
			urls[i] = p.url
		}
		// The gateway's default client, rebuilt here so the traced run
		// can time each backend exchange through Config.HTTPClient.
		sys.gwTrans = &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}
		var rt http.RoundTripper = sys.gwTrans
		if rec != nil {
			rt = &tracedTransport{rec: rec, base: sys.gwTrans}
		}
		t := time.Now()
		g, err := gateway.New(gateway.Config{
			Backends:   urls,
			Clock:      time.Now,
			HTTPClient: &http.Client{Transport: rt},
		})
		if err != nil {
			return sys, fmt.Errorf("gateway.New: %w", err)
		}
		ss.time("gateway.new", t, b.epoch)
		sys.gw = g
		ctx, cancel := context.WithCancel(context.Background())
		sys.gwStop = cancel
		g.Start(ctx)
		var h http.Handler = g.Handler()
		if rec != nil {
			h = rec.handler("gateway.handle", h)
		}
		if sys.gwProc, err = startHTTP(h); err != nil {
			return sys, err
		}
		sys.front = sys.gwProc.url
	}
	return sys, nil
}

// close stops everything the system started and waits for it.
func (sys *system) close() error {
	var errs []error
	if sys.gwProc != nil {
		errs = append(errs, sys.gwProc.stop())
	}
	if sys.gw != nil {
		sys.gwStop()
		sys.gw.Close()
		sys.gwTrans.CloseIdleConnections()
	}
	for _, p := range sys.backends {
		errs = append(errs, p.stop())
	}
	if sys.log != nil {
		errs = append(errs, sys.log.Close())
	}
	if sys.dir != "" {
		errs = append(errs, os.RemoveAll(sys.dir))
	}
	return errors.Join(errs...)
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// get answers one request through a handler in-process, the way the
// benchmark reads the servers' own surfaces outside the timed window.
func get(h http.Handler, path string, v any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	return json.Unmarshal(rec.Body.Bytes(), v)
}

// health is the part of /v1/healthz the ledger reads.
type health struct {
	Decisions struct {
		Size int `json:"size"`
	} `json:"decisionCache"`
	WAL *struct {
		Replayed   uint64 `json:"replayed"`
		Mismatches uint64 `json:"replayMismatches"`
	} `json:"wal"`
}

// replayStats reads the warm-start outcome from /v1/healthz after set-up.
type replayStats struct {
	cacheSize  int
	replayed   uint64
	mismatches uint64
	recovered  int
}

func (sys *system) replayStats() (replayStats, error) {
	var rs replayStats
	for _, s := range sys.servers {
		var h health
		if err := get(s.Handler(), "/v1/healthz", &h); err != nil {
			return rs, err
		}
		rs.cacheSize += h.Decisions.Size
		if h.WAL != nil {
			rs.replayed += h.WAL.Replayed
			rs.mismatches += h.WAL.Mismatches
		}
	}
	if sys.log != nil {
		rs.recovered = len(sys.log.Recovery().Records)
	}
	return rs, nil
}

// counts is every counter the ledger differences across a measured
// phase, summed over the round's backends.
type counts struct {
	hits, misses, evictions, fills float64 // /v1/metrics
	semWaitNs, semWaits            float64
	appendErrs                     float64

	wal wal.Stats

	gwRequests, hedges, hedgeWins, retries float64 // gateway Registry

	mallocs, allocBytes uint64 // runtime.MemStats
	numGC               uint32
	gcCPU, allCPU       float64 // runtime/metrics, seconds
	writeBytes          int64   // /proc/self/io
}

// metricsSnapshot is the part of /v1/metrics the ledger reads.
type metricsSnapshot struct {
	Metrics []struct {
		Name   string  `json:"name"`
		Labels string  `json:"labels"`
		Value  float64 `json:"value"`
		Count  uint64  `json:"count"`
		Sum    uint64  `json:"sum"`
	} `json:"metrics"`
}

// readServing reads the serving-layer counters: each backend's
// /v1/metrics, the WAL's Stats and the gateway's registry. A scrape of
// /v1/metrics is never recorded by the servers' own instruments.
func (sys *system) readServing(c *counts) error {
	const decisions = `{cache="decisions"}`
	for _, s := range sys.servers {
		var ms metricsSnapshot
		if err := get(s.Handler(), "/v1/metrics", &ms); err != nil {
			return err
		}
		for _, m := range ms.Metrics {
			switch {
			case m.Name == "cache_hits_total" && m.Labels == decisions:
				c.hits += m.Value
			case m.Name == "cache_misses_total" && m.Labels == decisions:
				c.misses += m.Value
			case m.Name == "cache_evictions_total" && m.Labels == decisions:
				c.evictions += m.Value
			case m.Name == "singleflight_leader_fills_total":
				c.fills += m.Value
			case m.Name == "http_semaphore_wait_ns":
				c.semWaitNs += float64(m.Sum)
				c.semWaits += float64(m.Count)
			case m.Name == "wal_append_errors_total":
				c.appendErrs += m.Value
			}
		}
	}
	if sys.log != nil {
		c.wal = sys.log.Stats()
	}
	if sys.gw != nil {
		for _, m := range sys.gw.Registry().Snapshot().Metrics {
			switch m.Name {
			case "gateway_requests_total":
				c.gwRequests = m.Value
			case "gateway_hedges_total":
				c.hedges = m.Value
			case "gateway_hedge_wins_total":
				c.hedgeWins = m.Value
			case "gateway_retries_total":
				c.retries = m.Value
			}
		}
	}
	return nil
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readProcess reads the process-wide counters: allocation and GC
// accounting, and the bytes written to storage (the WAL is the only
// file writer while a round runs).
func readProcess(c *counts) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	metrics.Read(runtimeSamples)
	c.gcCPU = runtimeSamples[0].Value.Float64()
	c.allCPU = runtimeSamples[1].Value.Float64()
	wb, err := procWriteBytes()
	c.writeBytes = wb
	return err
}

func procWriteBytes() (int64, error) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, errors.New("/proc/self/io has no write_bytes")
}

// cpuTime is the process's user+system CPU time from getrusage, which
// fails only for an invalid "who" or pointer, neither possible here.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces collection, twice so pooled objects in the victim
// cache go too, and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// drain reads a response body to EOF into buf, reusing its capacity.
func drain(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
