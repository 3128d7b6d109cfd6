package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// timedOutBody is the wire form of a wait cut by the request deadline.
const timedOutBody = `{"error":"request timed out"}` + "\n"

// waitUntil polls cond every millisecond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached after 5s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// serveAsync runs one request through h on its own goroutine and
// delivers the recorded response on the returned channel.
func serveAsync(h http.Handler, method, target, body string) <-chan *httptest.ResponseRecorder {
	out := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		out <- rec
	}()
	return out
}

// TestMaxInFlightBoundsOverrunningFills holds the only admitted request's
// cold fill in flightBarrier well past its deadline, then sends a second
// cold key. The deadline bounds waits, not work: the overrunning fill
// keeps its semaphore slot until it returns, so the second request queues
// for admission instead of starting a second fill beside it, and the
// first is answered with its decision once it finishes.
func TestMaxInFlightBoundsOverrunningFills(t *testing.T) {
	const timeout = 30 * time.Millisecond
	s, err := New(Config{Clock: testClock, MaxInFlight: 1, RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	entered := make(chan struct{}, 2) // one send per request
	var (
		mu           sync.Mutex
		inside, most int
	)
	peak := func() int {
		mu.Lock()
		defer mu.Unlock()
		return most
	}
	s.flightBarrier = func(string) {
		mu.Lock()
		inside++
		most = max(most, inside)
		mu.Unlock()
		entered <- struct{}{}
		<-release
		mu.Lock()
		inside--
		mu.Unlock()
	}
	h := s.Handler()

	first := serveAsync(h, "GET", "/v1/license?ctp=21125&dest=india&endUse=first", "")
	<-entered
	time.Sleep(2 * timeout) // the first fill is now past its deadline
	second := serveAsync(h, "GET", "/v1/license?ctp=21125&dest=india&endUse=second", "")
	waitUntil(t, "second request arrives", func() bool { return s.requests.Load() == 2 })
	// Give the second request ample time to reach the barrier, as it
	// would if the overrunning fill had given up its slot.
	time.Sleep(3 * timeout)
	if got := peak(); got != 1 {
		t.Errorf("fills inside the barrier at once = %d, want 1 (MaxInFlight: 1)", got)
	}
	close(release)

	for i, ch := range []<-chan *httptest.ResponseRecorder{first, second} {
		rec := <-ch
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
			t.Errorf("request %d: status %d, X-Cache %q, want 200 miss: %s",
				i, rec.Code, rec.Header().Get("X-Cache"), rec.Body.String())
		}
	}
	if got := peak(); got != 1 {
		t.Errorf("peak fills inside the barrier = %d, want 1", got)
	}
}

// TestCoalescedWaitEndsAtDeadline holds a leader's fill in flightBarrier
// past a short RequestTimeout. A GET coalesced onto it answers 503
// "request timed out" at its deadline; a batch with a wait on it answers
// the 503 whole, while the fill that batch led itself completes and is
// cached. Released, the leader answers its decision past its own
// deadline, and the next GET is a cache hit byte-identical to a cold
// computation on a fresh server.
func TestCoalescedWaitEndsAtDeadline(t *testing.T) {
	const timeout = 50 * time.Millisecond
	s, err := New(Config{Clock: testClock, RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.flightBarrier = func(key string) {
		if strings.Contains(key, "deadline") {
			<-release
		}
	}
	h := s.Handler()
	target := "/v1/license?ctp=21125&dest=india&endUse=deadline"

	leader := serveAsync(h, "GET", target, "")
	waitUntil(t, "leader in flight", func() bool { return s.met.flightLeaders.Value() == 1 })

	start := time.Now()
	waiter := do(t, h, "GET", target, "")
	if waited := time.Since(start); waited < timeout {
		t.Errorf("coalesced waiter answered after %v, before its %v deadline", waited, timeout)
	}
	if waiter.Code != http.StatusServiceUnavailable || waiter.Body.String() != timedOutBody {
		t.Errorf("coalesced waiter: status %d body %q, want 503 %q", waiter.Code, waiter.Body.String(), timedOutBody)
	}
	if ct := waiter.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("timeout Content-Type = %q, want application/json", ct)
	}

	batch := do(t, h, "POST", "/v1/license",
		`{"requests":[{"ctp":500,"destination":"india","endUse":"led"},{"ctp":21125,"destination":"india","endUse":"deadline"}]}`)
	if batch.Code != http.StatusServiceUnavailable || batch.Body.String() != timedOutBody {
		t.Errorf("batch with a cut wait: status %d body %q, want 503 %q", batch.Code, batch.Body.String(), timedOutBody)
	}
	if rec := do(t, h, "GET", "/v1/license?ctp=500&dest=india&endUse=led", ""); rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("the fill the cut batch led: X-Cache = %q, want hit", rec.Header().Get("X-Cache"))
	}
	select {
	case rec := <-leader:
		t.Fatalf("leader answered %d before its fill was released", rec.Code)
	default:
	}

	close(release)
	led := <-leader
	if led.Code != http.StatusOK || led.Header().Get("X-Cache") != "miss" {
		t.Fatalf("leader: status %d, X-Cache %q, want 200 miss: %s", led.Code, led.Header().Get("X-Cache"), led.Body.String())
	}
	hit := do(t, h, "GET", target, "")
	if hit.Header().Get("X-Cache") != "hit" {
		t.Errorf("after release: X-Cache = %q, want hit", hit.Header().Get("X-Cache"))
	}
	cold := do(t, newTestServer(t).Handler(), "GET", target, "")
	if cold.Code != http.StatusOK || cold.Header().Get("X-Cache") != "miss" {
		t.Fatalf("cold reference: status %d, X-Cache %q", cold.Code, cold.Header().Get("X-Cache"))
	}
	if !bytes.Equal(led.Body.Bytes(), cold.Body.Bytes()) || !bytes.Equal(hit.Body.Bytes(), cold.Body.Bytes()) {
		t.Errorf("overrun leader or later hit differs from a cold computation:\nleader %s\nhit    %s\ncold   %s",
			led.Body.Bytes(), hit.Body.Bytes(), cold.Body.Bytes())
	}
}
