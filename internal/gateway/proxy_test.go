package gateway

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
)

// TestBackendAnswersKeepTheConnection pins how the gateway reads a
// backend answer of declared length: into one buffer of that size, to
// the end, so the keep-alive connection goes back to the pool. Sequential
// keyed GETs must all ride one backend connection. A HEAD answer
// declares a length it does not carry and must still proxy as an answer,
// not as a short read.
func TestBackendAnswersKeepTheConnection(t *testing.T) {
	s, err := serve.New(serve.Config{Clock: gwTestClock})
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int32
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	g, err := New(Config{Backends: []string{ts.URL}, Clock: gwTestClock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	h := g.Handler()

	for i := 0; i < 8; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, licenseTarget(i), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %d: %d: %s", i, rec.Code, rec.Body)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("8 sequential keyed GETs opened %d backend connections, want 1", n)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodHead, "/v1/catalog", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Errorf("HEAD /v1/catalog: %d with %d body bytes, want 200 and none", rec.Code, rec.Body.Len())
	}
}
