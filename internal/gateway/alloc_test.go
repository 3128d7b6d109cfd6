//go:build !race

// The allocation pin lives behind !race: the race detector instruments
// allocations and deliberately drops a fraction of sync.Pool puts, so
// AllocsPerRun counts differ on an instrumented build.

package gateway

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// nullResponseWriter is the thinnest possible ResponseWriter: a premade
// header map and discarded writes, so the measurement sees only the
// gateway's own allocations, not a recorder's.
type nullResponseWriter struct {
	h    http.Header
	code int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) WriteHeader(code int)        { w.code = code }
func (w *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }

// stubTransport answers every exchange in process with one fixed backend
// response, built fresh per exchange as a real transport builds it.
type stubTransport struct {
	body []byte
}

func (s *stubTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header: http.Header{
			"Content-Type":   {"application/json"},
			"Content-Length": {strconv.Itoa(len(s.body))},
			"X-Cache":        {"hit"},
			"X-Request-Id":   req.Header["X-Request-Id"],
		},
		Body:          io.NopCloser(bytes.NewReader(s.body)),
		ContentLength: int64(len(s.body)),
		Request:       req,
	}, nil
}

// TestKeyedGetAllocs pins the allocation ceiling of one keyed GET
// /v1/license through the gateway — middleware and flight-recorder
// capture, query parse and key render, ring walk, singleflight, the
// hedge timer, the hand-off to a fetch goroutine, the backend exchange
// and the proxied write — with hedging on (its delay set out of reach)
// and the backends answered by an in-process stub, so only gateway code,
// http.Client.Do and the stub allocate. A raised count is serial cost
// that every request through the gateway pays.
func TestKeyedGetAllocs(t *testing.T) {
	const ceiling = 44
	body := []byte(`{"decision":{"ctp":21125,"destination":"india","endUse":"modeling","license":true}}` + "\n")
	g, err := New(Config{
		Backends:   []string{"http://backend-a", "http://backend-b"},
		HedgeMin:   time.Minute,
		Clock:      gwTestClock,
		HTTPClient: &http.Client{Transport: &stubTransport{body: body}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	req := httptest.NewRequest(http.MethodGet, "/v1/license?ctp=21125&dest=india&endUse=modeling", nil)
	req.Header.Set("X-Request-Id", "alloc-pin")
	w := &nullResponseWriter{h: make(http.Header, 8)}
	h := g.Handler()

	h.ServeHTTP(w, req) // start the fetch goroutine and warm the pools
	allocs := testing.AllocsPerRun(200, func() {
		h.ServeHTTP(w, req)
	})
	if w.code != http.StatusOK || w.h.Get("X-Cache") != "hit" || w.h.Get("X-Request-Id") != "alloc-pin" {
		t.Fatalf("status = %d, headers = %v, want 200 with the backend's X-Cache and X-Request-Id", w.code, w.h)
	}
	if got := w.h.Get("X-Gw-Backend"); got != "http://backend-a" && got != "http://backend-b" {
		t.Fatalf("X-Gw-Backend = %q", got)
	}
	if allocs > ceiling {
		t.Errorf("keyed GET through the gateway allocates %.1f objects per request, want at most %d", allocs, ceiling)
	}
}

// TestRingOwnersAllocs pins the ring walk allocation-free when the
// caller passes a buffer, as every lookup on the request path does.
func TestRingOwnersAllocs(t *testing.T) {
	r := buildRing([]string{"http://a:1", "http://b:2", "http://c:3"}, defaultVNodes)
	var buf [2]string
	allocs := testing.AllocsPerRun(100, func() {
		if got := r.owners(buf[:0], "Cray C916\x1f1500\x1findia", 2, nil); len(got) != 2 {
			t.Fatalf("owners = %v, want 2", got)
		}
	})
	if allocs != 0 {
		t.Errorf("ring walk allocates %.1f objects, want 0", allocs)
	}
}
