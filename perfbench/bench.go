package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/safeguards"
	"repro/internal/serve"
	"repro/internal/units"
	"repro/internal/wal"
)

// workload is one traffic mix. NOTES.md says why each exists.
type workload struct {
	name     string
	post     bool // single-decision POST bodies instead of GET queries
	backends int  // hpcexportd servers built per round
	gateway  bool // hpcexportgw in front of the backends
	wal      bool // a warm-started WAL under the (single) backend
	fill     bool // every distinct key answered once during set-up
}

var workloads = []workload{
	{name: "hot-get", backends: 1, fill: true},
	{name: "cold-post-wal", post: true, backends: 1, wal: true},
	{name: "gateway-get", backends: 3, gateway: true, fill: true},
}

const (
	// population is hot-get's and gateway-get's distinct keys: half the
	// default decision LRU, so every measured request is a hit.
	population = serve.DefaultCacheSize / 2
	// streamLen is the fixed count of requests one round sends.
	streamLen = 8192
	// logKeys is how many decisions the pre-written log commits: five
	// compactions and a 768-record tail, so recovery reads a
	// 4,096-record snapshot plus the tail.
	logKeys = 5*serve.DefaultSnapshotEvery + 768
)

// bench is one run: a workload's generated inputs and the rounds over
// them.
type bench struct {
	w        workload
	epoch    time.Time
	tmp      string // WAL copies and the side log live here
	template string // the pre-written log cold-post-wal restarts over

	inputs  []input
	stream  []int // a round's requests, as indexes into inputs
	ids     [][]string
	fillIDs [][]string
	urls    []*url.URL // per input; the host is set each round
	lat     []int64    // one round's latencies, ns
}

// newBench generates the workload's inputs from seed and computes their
// reference answers, all before any timing.
func newBench(w workload, seed uint64, tmp string) (*bench, error) {
	b := &bench{w: w, epoch: time.Now(), tmp: tmp, lat: make([]int64, streamLen)}
	r := &splitmix64{s: seed}
	seen := make(map[string]bool)
	var err error
	if w.post {
		var logged []input
		if logged, err = distinctInputs(r, logKeys, true, seen); err != nil {
			return nil, err
		}
		if b.inputs, err = distinctInputs(r, streamLen, true, seen); err != nil {
			return nil, err
		}
		b.stream = make([]int, streamLen)
		for i := range b.stream {
			b.stream[i] = i
		}
		b.template = tmp + "/template"
		if err := writeTemplate(b.template, logged); err != nil {
			return nil, fmt.Errorf("pre-writing the log: %w", err)
		}
	} else {
		if b.inputs, err = distinctInputs(r, population, false, seen); err != nil {
			return nil, err
		}
		b.stream = make([]int, streamLen)
		for i := range b.stream {
			b.stream[i] = r.intn(population)
		}
	}
	if err := fillReferences(b.inputs); err != nil {
		return nil, err
	}
	b.ids = requestIDs(streamLen)
	b.fillIDs = make([][]string, len(b.inputs))
	for i := range b.fillIDs {
		b.fillIDs[i] = []string{"f" + strconv.Itoa(i)}
	}
	b.urls = make([]*url.URL, len(b.inputs))
	for i, in := range b.inputs {
		b.urls[i] = &url.URL{Scheme: "http", Path: "/v1/license", RawQuery: in.query}
	}
	return b, nil
}

// writeTemplate writes the log cold-post-wal restarts over, with the
// configuration the workload itself runs: the same fsync policy and the
// default snapshot cadence, fed the given (disjoint) keys.
func writeTemplate(dir string, logged []input) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	log, err := wal.Open(wal.Options{Dir: dir, Fsync: fsyncPolicy})
	if err != nil {
		return err
	}
	s, err := serve.New(serve.Config{WAL: log, SnapshotEvery: serve.DefaultSnapshotEvery})
	if err != nil {
		_ = log.Close()
		return err
	}
	h := s.Handler()
	for _, in := range logged {
		req := httptest.NewRequest(http.MethodPost, "/v1/license", bytes.NewReader(in.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			_ = log.Close()
			return fmt.Errorf("logging %q: status %d", in.key, rec.Code)
		}
	}
	return log.Close()
}

// caller is the one closed-loop client: one keep-alive connection, one
// reused request whose URL, body and X-Request-Id change per send.
type caller struct {
	tr   *http.Transport
	hc   *http.Client
	req  *http.Request
	body postBody
	buf  []byte
}

// postBody is a rewindable request body whose Close is a no-op, so one
// reader serves every send.
type postBody struct{ bytes.Reader }

func (*postBody) Close() error { return nil }

func newCaller(front string, post bool) (*caller, error) {
	method := http.MethodGet
	if post {
		method = http.MethodPost
	}
	req, err := http.NewRequest(method, front+"/v1/license", nil)
	if err != nil {
		return nil, err
	}
	if post {
		req.Header["Content-Type"] = []string{"application/json"}
	}
	tr := &http.Transport{}
	return &caller{tr: tr, hc: &http.Client{Transport: tr}, req: req, buf: make([]byte, 0, 4096)}, nil
}

// send makes one request and reads its body to EOF into c.buf.
func (c *caller) send(u *url.URL, body []byte, id []string) (*http.Response, error) {
	req := c.req
	req.Header["X-Request-Id"] = id
	if u != nil {
		req.URL = u
	}
	if body != nil {
		c.body.Reset(body)
		req.Body, req.ContentLength = &c.body, int64(len(body))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	c.buf, err = drain(resp.Body, c.buf)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp, err
}

// connect opens the keep-alive connection with one health check.
func (c *caller) connect(front string) error {
	resp, err := c.hc.Get(front + "/v1/healthz")
	if err != nil {
		return err
	}
	_, err = drain(resp.Body, c.buf)
	_ = resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("health check: status %d", resp.StatusCode)
	}
	return err
}

// roundResult is one round's measurements.
type roundResult struct {
	traced     bool
	setup      float64 // s, first constructor call to first measured request
	wall       float64 // s, the measured phase
	attempted  int
	failed     int // mismatches, non-200 answers and transport errors
	mismatches int
	decisions  int // correct answers
	hits       int // answers with X-Cache: hit
	backends   map[string]int
	p50, p90   float64 // us, gated
	p99, p999  float64 // us, reported only
	cpu        float64 // process CPU us per decision
	heap       float64 // MiB retained by the servers
	spans      setupSpans
	replay     replayStats
	before     counts
	after      counts
}

func (r *roundResult) perSecond() float64 { return float64(r.decisions) / r.wall }

// round builds fresh servers, sets them up, sends the stream once, and
// tears everything down. rec, when non-nil, records spans.
func (b *bench) round(rec *recorder) (*roundResult, error) {
	res := &roundResult{traced: rec != nil}
	base := liveHeap()
	start := time.Now()
	sys, err := b.build(rec, &res.spans)
	if err != nil {
		return nil, joinClose(err, sys)
	}
	if err := b.measure(sys, rec, res, start, base); err != nil {
		return nil, joinClose(err, sys)
	}
	return res, sys.close()
}

func joinClose(err error, sys *system) error {
	if cerr := sys.close(); cerr != nil {
		return fmt.Errorf("%w (and closing: %v)", err, cerr)
	}
	return err
}

func (b *bench) measure(sys *system, rec *recorder, res *roundResult, start time.Time, base uint64) error {
	c, err := newCaller(sys.front, b.w.post)
	if err != nil {
		return err
	}
	defer c.tr.CloseIdleConnections()
	host := strings.TrimPrefix(sys.front, "http://")
	for _, u := range b.urls {
		u.Host = host
	}
	if err := c.connect(sys.front); err != nil {
		return err
	}
	if b.w.fill {
		t := time.Now()
		for i := range b.inputs {
			in := &b.inputs[i]
			resp, err := c.send(b.urls[i], in.body, b.fillIDs[i])
			if err != nil || resp.StatusCode != in.status || !bytes.Equal(c.buf, in.ref) {
				return fmt.Errorf("set-up fill of %q: wrong answer (err %v)", in.key, err)
			}
		}
		res.spans.time("setup.fill", t, b.epoch)
	}
	res.setup = time.Since(start).Seconds()

	if res.replay, err = sys.replayStats(); err != nil {
		return err
	}
	if err := sys.readServing(&res.before); err != nil {
		return err
	}
	if err := readProcess(&res.before); err != nil {
		return err
	}
	res.backends = make(map[string]int, b.w.backends)
	cpu0 := cpuTime()
	t0 := time.Now()
	b.send(c, rec, res)
	res.wall = time.Since(t0).Seconds()
	cpu1 := cpuTime()
	if err := readProcess(&res.after); err != nil {
		return err
	}
	if err := sys.readServing(&res.after); err != nil {
		return err
	}
	res.heap = (float64(liveHeap()) - float64(base)) / (1 << 20)

	slices.Sort(b.lat)
	res.p50 = float64(quantile(b.lat, 0.50)) / 1e3
	res.p90 = float64(quantile(b.lat, 0.90)) / 1e3
	res.p99 = float64(quantile(b.lat, 0.99)) / 1e3
	res.p999 = float64(quantile(b.lat, 0.999)) / 1e3
	if res.decisions > 0 {
		res.cpu = float64((cpu1 - cpu0).Microseconds()) / float64(res.decisions)
	}
	return nil
}

// send is the measured phase: the stream, once, closed loop. A request
// that fails or answers wrong records an infinite latency, so it misses
// every latency percentile.
func (b *bench) send(c *caller, rec *recorder, res *roundResult) {
	var u *url.URL
	for i, k := range b.stream {
		in := &b.inputs[k]
		if !b.w.post {
			u = b.urls[k]
		}
		t0 := time.Now()
		resp, err := c.send(u, in.body, b.ids[i])
		t1 := time.Now()
		res.attempted++
		switch {
		case err != nil || resp.StatusCode != in.status:
			res.failed++
			b.lat[i] = math.MaxInt64
			continue
		case !bytes.Equal(c.buf, in.ref):
			res.failed++
			res.mismatches++
			b.lat[i] = math.MaxInt64
			continue
		}
		res.decisions++
		b.lat[i] = int64(t1.Sub(t0))
		if resp.Header.Get("X-Cache") == "hit" {
			res.hits++
		}
		if b.w.gateway {
			res.backends[resp.Header.Get("X-Gw-Backend")]++
		}
		if rec != nil {
			rec.add(span{Name: "loadgen.request", Req: b.ids[i][0], Start: rec.since(t0), End: rec.since(t1)})
		}
	}
}

// components calls each layer's public function on the stream's inputs,
// once per request, timing every call: the decode and key resolution
// every path makes, the safeguards evaluation a cold fill makes, and a
// WAL append into a side log with the workload's fsync policy.
func (b *bench) components(l *ledger) ([]span, error) {
	dir, err := os.MkdirTemp(b.tmp, "side-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(wal.Options{Dir: dir, Fsync: fsyncPolicy})
	if err != nil {
		return nil, err
	}
	type prepared struct {
		lic    safeguards.License
		th     units.Mtops
		record wal.Record
	}
	prep := make([]prepared, len(b.inputs))
	for i, in := range b.inputs {
		lic, th, err := licenseOf(in.key)
		if err != nil {
			_ = log.Close()
			return nil, err
		}
		h := fnv.New64a()
		_, _ = h.Write(in.ref)
		prep[i] = prepared{lic: lic, th: th,
			record: wal.Record{Kind: wal.KindDecision, Key: in.key, Regime: float64(th), Hash: h.Sum64()}}
	}
	spans := make([]span, 0, 4*len(b.stream))
	timed := func(name string, t0, t1 time.Time) float64 {
		spans = append(spans, span{Name: name, Parent: -1, Round: -1,
			Start: int64(t0.Sub(b.epoch)), End: int64(t1.Sub(b.epoch))})
		return float64(t1.Sub(t0)) / 1e3
	}
	key := make([]byte, 0, 128)
	for _, k := range b.stream {
		in, p := &b.inputs[k], &prep[k]
		var req serve.LicenseRequest
		ok := false
		t0 := time.Now()
		if b.w.post {
			req, _, _, ok = serve.DecodeLicenseBody(in.body)
		} else {
			req, ok = serve.DecodeLicenseQuery(in.query)
		}
		t1 := time.Now()
		key, _ = serve.ResolveDecisionKey(key[:0], &req)
		t2 := time.Now()
		_, everr := safeguards.Evaluate(p.lic, p.th)
		t3 := time.Now()
		aerr := log.Append(p.record)
		t4 := time.Now()
		if !ok || string(key) != in.key || everr != nil || aerr != nil {
			_ = log.Close()
			return nil, fmt.Errorf("component calls on %q disagree with the server (decode %v, evaluate %v, append %v)",
				in.key, ok, everr, aerr)
		}
		l.decode = append(l.decode, timed("serve.decode", t0, t1))
		l.resolve = append(l.resolve, timed("serve.resolve_key", t1, t2))
		l.evaluate = append(l.evaluate, timed("safeguards.evaluate", t2, t3))
		l.walAppend = append(l.walAppend, timed("wal.append", t3, t4))
	}
	l.componentRuns = len(b.stream)
	return spans, log.Close()
}

// licenseOf reads a canonical decision key (system, rated CTP,
// destination, end use, threshold; 0x1f-separated) back into the
// safeguards inputs it stands for.
func licenseOf(key string) (safeguards.License, units.Mtops, error) {
	f := strings.Split(key, "\x1f")
	if len(f) != 5 {
		return safeguards.License{}, 0, fmt.Errorf("decision key %q has %d fields", key, len(f))
	}
	rated, err1 := strconv.ParseFloat(f[1], 64)
	th, err2 := strconv.ParseFloat(f[4], 64)
	if err1 != nil || err2 != nil {
		return safeguards.License{}, 0, fmt.Errorf("decision key %q: bad number", key)
	}
	return safeguards.License{Destination: f[2], CTP: units.Mtops(rated), EndUse: f[3]}, units.Mtops(th), nil
}
