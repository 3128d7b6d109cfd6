package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, // zero lands in the dedicated zero bucket
		{1, 1}, // [1,1]
		{2, 2}, // [2,3]
		{3, 2},
		{4, 3}, // power-of-two lower edge
		{7, 3}, // upper edge 2^3-1
		{8, 4},
		{1 << 62, 63},
		{1<<63 - 1, 63},
		{1 << 63, 64},        // top bucket
		{math.MaxUint64, 64}, // maximum value still fits; no overflow bucket needed
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.v)
		if got := h.Bucket(c.bucket); got != 1 {
			for k := 0; k < HistBuckets; k++ {
				if h.Bucket(k) == 1 {
					t.Errorf("Observe(%d) landed in bucket %d, want %d", c.v, k, c.bucket)
				}
			}
			if got := h.Count(); got != 1 {
				t.Errorf("Observe(%d): count = %d", c.v, got)
			}
			continue
		}
		if lo := c.v; c.bucket > 0 && (lo > BucketUpper(c.bucket) || lo <= BucketUpper(c.bucket-1)) {
			t.Errorf("value %d outside bucket %d bounds (%d, %d]",
				c.v, c.bucket, BucketUpper(c.bucket-1), BucketUpper(c.bucket))
		}
	}
}

func TestHistogramQuantileBoundaries(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		var h Histogram
		if got := h.Quantile(0.5); got != 0 {
			t.Errorf("empty Quantile(0.5) = %d, want 0", got)
		}
	})

	t.Run("zero bucket", func(t *testing.T) {
		var h Histogram
		h.Observe(0)
		h.Observe(0)
		for _, q := range []float64{0, 0.5, 1} {
			if got := h.Quantile(q); got != 0 {
				t.Errorf("all-zero Quantile(%g) = %d, want 0", q, got)
			}
		}
	})

	t.Run("degenerate one-value bucket", func(t *testing.T) {
		// Bucket 1 is [1,1]: interpolation has zero width and must pin
		// to the single representable value.
		var h Histogram
		h.Observe(1)
		h.Observe(1)
		if got := h.Quantile(0.5); got != 1 {
			t.Errorf("Quantile(0.5) = %d, want 1", got)
		}
	})

	t.Run("full bucket rank hits the upper bound", func(t *testing.T) {
		// 4 observations all in bucket 3 ([4,7]): q=1 targets rank 4,
		// the end of the bucket, so the estimate is the inclusive upper
		// bound — exactly the pre-interpolation answer.
		var h Histogram
		for i := 0; i < 4; i++ {
			h.Observe(5)
		}
		if got := h.Quantile(1); got != BucketUpper(3) {
			t.Errorf("Quantile(1) = %d, want %d", got, BucketUpper(3))
		}
	})

	t.Run("interpolates within a bucket", func(t *testing.T) {
		// 4 observations in bucket 5 ([16,31], width 15). Rank r of 4
		// lands at 16 + ⌈r/4·15⌉: ranks 1..4 → 20, 24, 28, 31.
		var h Histogram
		for i := 0; i < 4; i++ {
			h.Observe(20)
		}
		want := map[float64]uint64{0.25: 20, 0.5: 24, 0.75: 28, 1: 31}
		for q, w := range want {
			if got := h.Quantile(q); got != w {
				t.Errorf("Quantile(%g) = %d, want %d", q, got, w)
			}
		}
	})

	t.Run("rank crosses bucket boundary", func(t *testing.T) {
		// One observation each in buckets 1 and 2: the median is the
		// full first bucket (upper bound 1); q just above 0.5 crosses
		// into [2,3].
		var h Histogram
		h.Observe(1)
		h.Observe(3)
		if got := h.Quantile(0.5); got != 1 {
			t.Errorf("Quantile(0.5) = %d, want 1", got)
		}
		if got := h.Quantile(0.75); got < 2 || got > 3 {
			t.Errorf("Quantile(0.75) = %d, want within [2,3]", got)
		}
	})

	t.Run("estimate never understates the bucket lower bound", func(t *testing.T) {
		// 1000 observations in bucket 10 ([512,1023]): even rank 1 must
		// not fall below the bucket's lower bound.
		var h Histogram
		for i := 0; i < 1000; i++ {
			h.Observe(512)
		}
		if got := h.Quantile(0.001); got < 512 {
			t.Errorf("Quantile(0.001) = %d, below bucket lower bound 512", got)
		}
		if got := h.Quantile(1); got != 1023 {
			t.Errorf("Quantile(1) = %d, want 1023", got)
		}
	})

	t.Run("top bucket does not overflow", func(t *testing.T) {
		var h Histogram
		h.Observe(math.MaxUint64)
		if got := h.Quantile(1); got != math.MaxUint64 {
			t.Errorf("Quantile(1) = %d, want MaxUint64", got)
		}
		if got := h.Quantile(0.01); got < 1<<63 {
			t.Errorf("Quantile(0.01) = %d, below the top bucket's lower bound", got)
		}
	})

	t.Run("clamps out-of-range q", func(t *testing.T) {
		var h Histogram
		h.Observe(5)
		if lo, hi := h.Quantile(-3), h.Quantile(7); lo != h.Quantile(0) || hi != h.Quantile(1) {
			t.Errorf("clamping broken: Quantile(-3)=%d Quantile(7)=%d", lo, hi)
		}
	})
}

func TestHistogramSumCountAndNegativeDuration(t *testing.T) {
	var h Histogram
	h.Observe(5)
	h.Observe(10)
	h.ObserveDuration(-7) // clamps to zero
	if h.Count() != 3 || h.Sum() != 15 {
		t.Errorf("count/sum = %d/%d, want 3/15", h.Count(), h.Sum())
	}
	if h.Bucket(0) != 1 {
		t.Errorf("negative duration did not clamp into the zero bucket")
	}
	if h.Bucket(-1) != 0 || h.Bucket(HistBuckets) != 0 {
		t.Error("out-of-range Bucket() not zero")
	}
}

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events")
	g := r.Gauge("depth", "depth")
	h := r.Histogram("lat_ns", "latency")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(uint64(i))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

// TestCounterIncNumbersEachIncrement: Inc returns the new count, so
// concurrent callers each get a distinct number and together get every
// number from 1 to the total once — what lets an admission counter also
// mint its request IDs.
func TestCounterIncNumbersEachIncrement(t *testing.T) {
	var c Counter
	const workers, per = 8, 500
	got := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				got[w] = append(got[w], c.Inc())
			}
		}(w)
	}
	wg.Wait()
	seen := make([]bool, workers*per+1)
	for _, vs := range got {
		for _, v := range vs {
			if v == 0 || v > workers*per || seen[v] {
				t.Fatalf("Inc returned %d twice or out of range", v)
			}
			seen[v] = true
		}
	}
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
}

func TestRegistryCoalescesAndDetaches(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("k", "v"))
	b := r.Counter("x_total", "ignored on re-registration", L("k", "v"))
	if a != b {
		t.Error("same name+labels+kind did not coalesce")
	}
	g := r.Gauge("x_total", "kind collision", L("k", "v"))
	g.Set(7)
	if g.Value() != 7 {
		t.Error("detached gauge not usable")
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "x_total{") != 1 {
		t.Errorf("kind collision leaked into exposition:\n%s", buf.String())
	}
}

func TestNilRegistryDetachedInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	c.Inc()
	if c.Value() != 1 {
		t.Error("nil-registry counter broken")
	}
	r.Gauge("b", "").Set(3)
	r.Histogram("c", "").Observe(1)
	r.Func("d", "", KindGauge, func() float64 { return 1 })
	if err := r.WriteProm(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteProm: %v", err)
	}
	if s := r.Snapshot(); len(s.Metrics) != 0 {
		t.Errorf("nil Snapshot = %+v", s)
	}
}

// expositionFixture builds a registry with one of everything in
// deliberately unsorted registration order.
func expositionFixture() *Registry {
	r := NewRegistry()
	r.Gauge("inflight", "requests being served").Set(2)
	h := r.Histogram("req_ns", "request latency", L("route", "/v1/x"))
	h.Observe(0)
	h.Observe(3)
	h.Observe(3)
	c := r.Counter("requests_total", "requests", L("route", "/v1/x"), L("class", "2xx"))
	c.Add(5)
	r.Counter("requests_total", "requests", L("route", "/v1/x"), L("class", "5xx"))
	r.Func("build_info", "identity", KindGauge, func() float64 { return 1 }, L("goversion", "go1.x"))
	return r
}

func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := expositionFixture().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	// Families in sorted order, HELP/TYPE once per family.
	wantOrder := []string{
		"# HELP build_info", "# TYPE build_info gauge", `build_info{goversion="go1.x"} 1`,
		"# TYPE inflight gauge", "inflight 2",
		"# TYPE req_ns histogram",
		`req_ns_bucket{route="/v1/x",le="0"} 1`,
		`req_ns_bucket{route="/v1/x",le="1"} 1`,
		`req_ns_bucket{route="/v1/x",le="3"} 3`,
		`req_ns_bucket{route="/v1/x",le="+Inf"} 3`,
		`req_ns_sum{route="/v1/x"} 6`,
		`req_ns_count{route="/v1/x"} 3`,
		"# TYPE requests_total counter",
		`requests_total{route="/v1/x",class="2xx"} 5`,
		`requests_total{route="/v1/x",class="5xx"} 0`,
	}
	pos := -1
	for _, want := range wantOrder {
		idx := strings.Index(got, want)
		if idx < 0 {
			t.Fatalf("exposition missing %q:\n%s", want, got)
		}
		if idx < pos {
			t.Fatalf("exposition out of order at %q:\n%s", want, got)
		}
		pos = idx
	}
	if strings.Count(got, "# TYPE requests_total") != 1 {
		t.Error("family TYPE line repeated per sample")
	}
}

func TestExpositionByteIdenticalAcrossScrapesAndRuns(t *testing.T) {
	r := expositionFixture()
	var a, b bytes.Buffer
	if err := r.WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two scrapes of an idle registry differ")
	}
	// An identically-built registry (a fresh "run") renders the same bytes.
	var c bytes.Buffer
	if err := expositionFixture().WriteProm(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Errorf("identical runs render different bytes:\n%s\nvs\n%s", a.String(), c.String())
	}
}

func TestSnapshotShape(t *testing.T) {
	s := expositionFixture().Snapshot()
	if len(s.Metrics) != 5 {
		t.Fatalf("snapshot has %d metrics, want 5", len(s.Metrics))
	}
	for i := 1; i < len(s.Metrics); i++ {
		a, b := s.Metrics[i-1], s.Metrics[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Labels > b.Labels) {
			t.Errorf("snapshot unsorted at %d: %s%s before %s%s", i, a.Name, a.Labels, b.Name, b.Labels)
		}
	}
	var hist *MetricSnapshot
	for i := range s.Metrics {
		if s.Metrics[i].Name == "req_ns" {
			hist = &s.Metrics[i]
		}
	}
	if hist == nil || hist.Count != 3 || hist.Sum != 6 || hist.Value != 2 {
		t.Fatalf("histogram snapshot = %+v", hist)
	}
	if len(hist.Buckets) != 2 { // zero bucket and the [2,3] bucket
		t.Errorf("sparse buckets = %+v", hist.Buckets)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("snapshot not JSON-marshalable: %v", err)
	}
}
