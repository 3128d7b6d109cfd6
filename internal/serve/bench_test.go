package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

// BenchmarkServeLicenseCached measures the steady-state cost of a license
// decision round-trip once the LRU is warm: request parse, canonical key,
// cache hit, marshal, middleware. This is the hot path a licensing desk
// replaying the same (system, destination, threshold) queries exercises.
func BenchmarkServeLicenseCached(b *testing.B) {
	s, err := New(Config{Clock: func() time.Time { return time.Unix(800000000, 0) }})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	const target = "/v1/license?ctp=21125&dest=india&endUse=bench"

	// Warm: the first request computes and populates the cache.
	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, httptest.NewRequest("GET", target, nil))
	if warm.Code != http.StatusOK {
		b.Fatalf("warm request: %d", warm.Code)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("iteration %d: %d", i, rec.Code)
		}
	}
	b.StopTimer()
	if s.decisions.Stats().Hits == 0 {
		b.Fatal("benchmark never hit the cache")
	}
}

// batchBody renders a batch of n license requests keyed by tag, round
// and position, so no two rounds of one tag share a key.
func batchBody(tag string, round, n int) string {
	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"ctp":%d,"destination":"india","endUse":"%s %d.%d"}`, 500+i*37, tag, round, i)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// BenchmarkLicenseBatch prices a batch POST through the handler: cold
// batches of 64 and 256 items, each round on keys no earlier round
// asked, so every item is a fill, and a warm 256-item batch answered
// wholly from the decision cache.
func BenchmarkLicenseBatch(b *testing.B) {
	for _, bc := range []struct {
		name  string
		items int
		cold  bool
	}{{"cold-64", 64, true}, {"cold-256", 256, true}, {"warm-256", 256, false}} {
		b.Run(bc.name, func(b *testing.B) {
			h := newTestServer(b).Handler()
			post := func(body string) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/license", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("batch: %d: %s", rec.Code, rec.Body)
				}
			}
			warm := batchBody("warm", 0, bc.items)
			post(warm)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body := warm
				if bc.cold {
					b.StopTimer()
					body = batchBody("cold", i, bc.items)
					b.StartTimer()
				}
				post(body)
			}
		})
	}
}

// benchLicenseDecision is the cached license round-trip with the
// observability layer either live (metrics + the flight recorder's
// request records, the shipped default) or stripped, so the pair prices
// the instrumentation.
func benchLicenseDecision(b *testing.B, instrumented bool) {
	s, err := New(Config{Clock: func() time.Time { return time.Unix(800000000, 0) }})
	if err != nil {
		b.Fatal(err)
	}
	if !instrumented {
		// Every recording site nil-checks, so stripping is just this.
		s.met = nil
		s.flightrec = nil
	}
	h := s.Handler()
	const target = "/v1/license?ctp=21125&dest=india&endUse=bench"

	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, httptest.NewRequest("GET", target, nil))
	if warm.Code != http.StatusOK {
		b.Fatalf("warm request: %d", warm.Code)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("iteration %d: %d", i, rec.Code)
		}
	}
}

// BenchmarkLicenseDecisionInstrumented measures the cached license path
// with per-endpoint metrics and request records (spans included) recording.
func BenchmarkLicenseDecisionInstrumented(b *testing.B) { benchLicenseDecision(b, true) }

// BenchmarkLicenseDecisionUninstrumented is the same path with the
// observability layer disabled — the baseline the <5% overhead target in
// BENCH_baseline.json is judged against.
func BenchmarkLicenseDecisionUninstrumented(b *testing.B) { benchLicenseDecision(b, false) }

// benchFirstRequest prices what a restarted daemon's first answer to a
// previously-decided query costs: server construction (including WAL
// recovery and warm-start replay when warm is true) plus the first
// request. Warm serves it from the replayed cache; cold recomputes.
// The pair is the measured value of the durability layer's warm start.
func benchFirstRequest(b *testing.B, warm bool) {
	const target = "/v1/license?ctp=21125&dest=india&endUse=bench"
	dir := b.TempDir()
	if warm {
		// Populate the log once, outside the timer.
		s, l := newWALServer(b, dir, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("seed request: %d", rec.Code)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}

	wantCache := "miss"
	if warm {
		wantCache = "hit"
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s *Server
		var l *wal.Log
		if warm {
			s, l = newWALServer(b, dir, nil)
		} else {
			var err error
			s, err = New(Config{Clock: testClock})
			if err != nil {
				b.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("first request: %d", rec.Code)
		}
		if got := rec.Header().Get("X-Cache"); got != wantCache {
			b.Fatalf("first request X-Cache=%q, want %q", got, wantCache)
		}
		if l != nil {
			b.StopTimer()
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkFirstRequestWarmStart is boot-plus-first-answer with a
// populated decision log: recovery, replay, and a cache hit.
func BenchmarkFirstRequestWarmStart(b *testing.B) { benchFirstRequest(b, true) }

// BenchmarkFirstRequestColdStart is the same boot without a log: the
// first answer pays the full decision computation.
func BenchmarkFirstRequestColdStart(b *testing.B) { benchFirstRequest(b, false) }

// BenchmarkSnapshotCompaction prices one compaction of a full decision
// cache, DefaultCacheSize entries, under wal.FsyncNever: the walk that
// collects the live set, the in-place sort, the snapshot's one buffer,
// and its file work (rotation, the snapshot's own fsyncs, and removing
// the segment it replaces). Each op is one maybeSnapshot.
func BenchmarkSnapshotCompaction(b *testing.B) {
	s, l := newWALServer(b, b.TempDir(), func(cfg *Config) { cfg.SnapshotEvery = -1 })
	defer func() { _ = l.Close() }()
	h := s.Handler()
	for i := 0; s.decisions.Len() < DefaultCacheSize; i++ {
		target := fmt.Sprintf("/v1/license?ctp=%d&dest=india&endUse=compact%d", 500+i, i)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: %d", target, rec.Code)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.maybeSnapshot()
	}
	b.StopTimer()
	if got := l.Stats().Compactions; got != uint64(b.N) {
		b.Fatalf("compactions = %d after %d ops", got, b.N)
	}
}
