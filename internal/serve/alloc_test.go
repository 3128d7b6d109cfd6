//go:build !race

// The allocation pin lives behind !race: the race detector instruments
// allocations and deliberately drops a fraction of sync.Pool puts, so
// AllocsPerRun can only hold exactly zero on an uninstrumented build.

package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// nullResponseWriter is the thinnest possible ResponseWriter: a premade
// header map and discarded writes, so the measurement sees only the
// handler's own allocations, not the recorder's.
type nullResponseWriter struct {
	h    http.Header
	code int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) WriteHeader(code int)        { w.code = code }
func (w *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestWarmLicenseGetZeroAllocs pins the hot-path contract the codec and
// cache layers exist to provide: a warm GET /v1/license — query parse,
// resolve, canonical key render, LRU hit, header and body writes —
// performs zero heap allocations in the handler.
func TestWarmLicenseGetZeroAllocs(t *testing.T) {
	s := newTestServer(t)
	req := httptest.NewRequest("GET", "/v1/license?ctp=21125&dest=india&endUse=modeling", nil)
	w := &nullResponseWriter{h: make(http.Header, 4)}

	// Warm: first call fills the cache (and the scratch pool).
	s.handleLicenseGet(w, req)
	if w.code != http.StatusOK {
		t.Fatalf("warmup status = %d", w.code)
	}
	w.code = 0

	allocs := testing.AllocsPerRun(200, func() {
		s.handleLicenseGet(w, req)
	})
	if w.code != http.StatusOK {
		t.Fatalf("status = %d", w.code)
	}
	if w.h.Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache = %q, want hit", w.h.Get("X-Cache"))
	}
	if allocs != 0 {
		t.Errorf("warm GET /v1/license allocates %.1f objects per request, want 0", allocs)
	}
}

// TestWarmLicenseGetStackAllocs pins the allocation ceiling of a warm GET
// /v1/license through the whole middleware stack — request ID, semaphore,
// the request's flight-recorder record and its cache.lookup span, request
// deadline, routing and the handler — with the flight recorder on and no
// request log, as `hpcexportd -quiet` runs. The handler allocates nothing
// (TestWarmLicenseGetZeroAllocs), so every allocation counted here is
// per-request bookkeeping; a raised count is serial cost that every
// request pays.
func TestWarmLicenseGetStackAllocs(t *testing.T) {
	const ceiling = 11
	s := newTestServer(t)
	if s.flightrec == nil || s.logger != nil {
		t.Fatal("test server must record without logging, as hpcexportd -quiet does")
	}
	req := httptest.NewRequest("GET", "/v1/license?ctp=21125&dest=india&endUse=modeling", nil)
	req.Header.Set("X-Request-Id", "alloc-pin")
	w := &nullResponseWriter{h: make(http.Header, 8)}
	h := s.Handler()

	h.ServeHTTP(w, req) // warm the cache and the pools
	allocs := testing.AllocsPerRun(200, func() {
		h.ServeHTTP(w, req)
	})
	if w.code != http.StatusOK || w.h.Get("X-Cache") != "hit" {
		t.Fatalf("status = %d, X-Cache = %q, want 200 hit", w.code, w.h.Get("X-Cache"))
	}
	if allocs > ceiling {
		t.Errorf("warm GET /v1/license through the middleware allocates %.1f objects per request, want at most %d", allocs, ceiling)
	}
}

// BenchmarkLicenseHotPath measures the handler-level warm GET: the same
// path the allocation pin covers, reported as ns/op and allocs/op.
func BenchmarkLicenseHotPath(b *testing.B) {
	s := newTestServer(b)
	req := httptest.NewRequest("GET", "/v1/license?ctp=21125&dest=india&endUse=modeling", nil)
	w := &nullResponseWriter{h: make(http.Header, 4)}
	s.handleLicenseGet(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleLicenseGet(w, req)
	}
}

// TestParseDecisionKeyZeroAllocs pins the key scanner allocation-free:
// it runs once per key in the warm-start window. Compaction no longer
// parses keys; it reads only each key's threshold field, with
// keyThreshold, which is pinned allocation-free too.
func TestParseDecisionKeyZeroAllocs(t *testing.T) {
	key := "Cray C916\x1f1500\x1findia\x1fmodeling\x1f2000"
	var a fillArgs
	allocs := testing.AllocsPerRun(100, func() {
		if !parseDecisionKey(key, &a) {
			t.Fatalf("parseDecisionKey rejected %q", key)
		}
	})
	if allocs != 0 {
		t.Fatalf("parseDecisionKey: %v allocs per key, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if th, ok := keyThreshold(key); !ok || th != 2000 {
			t.Fatalf("keyThreshold(%q) = %v, %v", key, th, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("keyThreshold: %v allocs per key, want 0", allocs)
	}
}
