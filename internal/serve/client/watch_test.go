package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wal"
)

// testClock matches the serve suite's fixed clock (mid-1995).
func watchTestClock() time.Time { return time.Unix(800000000, 0) }

// walServer stands up a real WAL-mounted daemon behind httptest and a
// client pointed at it. The caller owns both returned closers.
func walServer(t *testing.T) (*httptest.Server, *wal.Log, *Client) {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s, err := serve.New(serve.Config{Clock: watchTestClock, WAL: l})
	if err != nil {
		_ = l.Close()
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	c, err := New(ts.URL, nil)
	if err != nil {
		ts.Close()
		_ = l.Close()
		t.Fatal(err)
	}
	return ts, l, c
}

func TestWatchReceivesRegimeTransition(t *testing.T) {
	ts, l, c := walServer(t)
	defer ts.Close()
	defer func() { _ = l.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	events := make(chan WatchEvent, 16)
	watchErr := make(chan error, 1)
	go func() {
		watchErr <- c.Watch(ctx, 0, func(ev WatchEvent) error {
			events <- ev
			return ErrWatchStopped // one event is all this test needs
		})
	}()

	// Drive one regime transition. The watch goroutine may still be
	// connecting, so commit the transition in a poll loop until either
	// the event arrives or the deadline passes: the ?since replay below
	// proves delivery is not racy for cursored subscribers.
	deadline := time.After(8 * time.Second)
	var got WatchEvent
	i := 0
drive:
	for {
		for _, th := range []string{"2000", "7000"} {
			u := fmt.Sprintf("%s/v1/license?ctp=21125&dest=india&endUse=w%d&threshold=%s", ts.URL, i, th)
			i++
			resp, err := http.Get(u)
			if err != nil {
				t.Fatalf("license: %v", err)
			}
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("license: %d", resp.StatusCode)
			}
		}
		select {
		case got = <-events:
			break drive
		case <-deadline:
			t.Fatal("no watch event arrived")
		case <-time.After(50 * time.Millisecond):
		}
	}
	if got.Kind != serve.EventRegime {
		t.Fatalf("event kind = %q, want regime", got.Kind)
	}
	if got.Seq == 0 {
		t.Fatal("event missing sequence number")
	}
	if err := <-watchErr; err != nil {
		t.Fatalf("Watch after ErrWatchStopped: %v", err)
	}

	// A cursored subscriber replays the backlog: since just below the
	// seen Seq must deliver that same event again from the ring.
	var replayed WatchEvent
	err := c.Watch(ctx, got.Seq-1, func(ev WatchEvent) error {
		replayed = ev
		return ErrWatchStopped
	})
	if err != nil {
		t.Fatalf("cursored Watch: %v", err)
	}
	if replayed.Seq != got.Seq || replayed.Kind != got.Kind {
		t.Fatalf("replayed %+v, want %+v", replayed, got)
	}
}

// TestWatchEndsCleanlyOnServerDrain: cancelling the server's Serve
// context closes its watch hub before the drain, so an open Watch ends
// with nil and Serve returns cleanly within DrainTimeout.
func TestWatchEndsCleanlyOnServerDrain(t *testing.T) {
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	defer func() { _ = l.Close() }()
	s, err := serve.New(serve.Config{Clock: watchTestClock, WAL: l})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, stop := context.WithCancel(context.Background())
	defer stop()
	served := make(chan error, 1)
	go func() { served <- s.Serve(sctx, ln) }()
	c, err := New("http://"+ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	watchErr := make(chan error, 1)
	go func() {
		watchErr <- c.Watch(ctx, 0, func(WatchEvent) error { return nil })
	}()
	// Drain only once the stream is established.
	for {
		hz, err := c.Healthz(ctx)
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		if hz.WAL.Watchers == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	begin := time.Now()
	stop()
	select {
	case err := <-watchErr:
		if err != nil {
			t.Fatalf("Watch on drain returned %v, want nil", err)
		}
	case <-ctx.Done():
		t.Fatal("Watch did not end after the server drained")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
		if d := time.Since(begin); d >= serve.DefaultDrainTimeout {
			t.Fatalf("Serve took %v to drain, want under %v", d, serve.DefaultDrainTimeout)
		}
	case <-ctx.Done():
		t.Fatal("Serve did not return after its context was cancelled")
	}
}

func TestWatchCancelledContext(t *testing.T) {
	ts, l, c := walServer(t)
	defer ts.Close()
	defer func() { _ = l.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	watchErr := make(chan error, 1)
	go func() {
		watchErr <- c.Watch(ctx, 0, func(WatchEvent) error { return nil })
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-watchErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Watch returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled Watch did not return")
	}
}

// TestWatchLoglessDaemonIs404 pins the typed error a Watch against a
// daemon with no decision log gets back.
func TestWatchLoglessDaemonIs404(t *testing.T) {
	s, err := serve.New(serve.Config{Clock: watchTestClock})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c, err := New(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	werr := c.Watch(context.Background(), 0, func(WatchEvent) error { return nil })
	var apiErr *APIError
	if !errors.As(werr, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("logless Watch returned %v, want APIError 404", werr)
	}
}

// TestWatchStreamClientHasNoOverallTimeout pins the transport contract:
// the stream client must drop the whole-exchange timeout (it would sever
// a healthy stream) while keeping the configured transport.
func TestWatchStreamClientHasNoOverallTimeout(t *testing.T) {
	c, err := New("http://localhost:8095", nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := c.streamClient()
	if sc.Timeout != 0 {
		t.Fatalf("stream client overall timeout = %v, want none", sc.Timeout)
	}
	if sc.Transport != c.http.Transport {
		t.Fatal("stream client does not reuse the configured transport")
	}
}
