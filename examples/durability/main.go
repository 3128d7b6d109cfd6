// Durability and warm-start: run an hpcexportd service over a decision
// log, watch the commit stream for the regime transition a threshold
// override causes, kill the service without ceremony, and restart it
// over the same directory — the replayed cache answers the first
// requests byte-identically, before any recomputation.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "durability:", err)
		os.Exit(1)
	}
}

// startDaemon opens the decision log in dir and serves over it on an
// ephemeral port, returning the pieces the walkthrough needs to drive
// and later drain it.
func startDaemon(dir string) (*wal.Log, net.Listener, context.CancelFunc, chan error, error) {
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	s, err := serve.New(serve.Config{Clock: time.Now, WAL: l})
	if err != nil {
		_ = l.Close()
		return nil, nil, nil, nil, err
	}
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		_ = l.Close()
		return nil, nil, nil, nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	return l, ln, stop, done, nil
}

// firstAnswers asks the daemon the walkthrough's queries and returns the
// raw response bodies plus whether every answer came from the cache.
func firstAnswers(base string) (bodies []string, allHits bool, err error) {
	allHits = true
	for _, q := range []string{
		"/v1/license?ctp=21125&dest=india&endUse=modeling",
		"/v1/license?ctp=21125&dest=india&endUse=modeling&threshold=7000",
		"/v1/license?system=Cray+C916&dest=france",
	} {
		resp, err := http.Get(base + q)
		if err != nil {
			return nil, false, err
		}
		b, rerr := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if rerr != nil {
			return nil, false, rerr
		}
		if resp.Header.Get("X-Cache") != "hit" {
			allHits = false
		}
		bodies = append(bodies, string(b))
	}
	return bodies, allHits, nil
}

func run() error {
	dir, err := os.MkdirTemp("", "hpcwal-example-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	log, ln, stop, done, err := startDaemon(dir)
	if err != nil {
		return err
	}
	base := "http://" + ln.Addr().String()
	api, err := client.New(base, nil)
	if err != nil {
		stop()
		return err
	}

	// Subscribe to the commit stream before driving traffic: the regime
	// transition the threshold override below causes arrives as a watch
	// event with the commit's sequence number.
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	events := make(chan client.WatchEvent, 1)
	go func() {
		_ = api.Watch(wctx, 0, func(ev client.WatchEvent) error {
			if ev.Kind == serve.EventRegime {
				events <- ev
				return client.ErrWatchStopped
			}
			return nil
		})
	}()
	time.Sleep(100 * time.Millisecond) // let the stream establish

	// Three decisions: two under the study-date regime, one under an
	// overridden 7000-Mtops threshold — a regime transition on the log.
	before, _, err := firstAnswers(base)
	if err != nil {
		stop()
		return err
	}
	fmt.Printf("decided %d queries; log: %+v\n", len(before), log.Stats())
	select {
	case ev := <-events:
		fmt.Printf("watch: regime transition %.0f -> %.0f Mtops at commit %d\n",
			ev.PrevMtops, ev.Mtops, ev.Seq)
	case <-time.After(5 * time.Second):
		stop()
		return fmt.Errorf("no regime-transition event arrived")
	}

	// Drain and reopen over the same directory: the warm-started daemon
	// must answer the same queries from its replayed cache, byte for byte.
	stop()
	if err := <-done; err != nil {
		return err
	}
	if err := log.Close(); err != nil {
		return err
	}

	log2, ln2, stop2, done2, err := startDaemon(dir)
	if err != nil {
		return err
	}
	defer func() { _ = log2.Close() }()
	rec := log2.Recovery()
	fmt.Printf("restart: recovered %d records (%d segments, %d torn, %d corrupt)\n",
		len(rec.Records), rec.Segments, rec.TornRecords, rec.CorruptRecords)

	after, allHits, err := firstAnswers("http://" + ln2.Addr().String())
	if err != nil {
		stop2()
		return err
	}
	identical := len(after) == len(before)
	for i := range after {
		if identical && after[i] != before[i] {
			identical = false
		}
	}
	fmt.Printf("warm start: first answers cache hits=%v, byte-identical=%v\n", allHits, identical)
	if !allHits || !identical {
		stop2()
		return fmt.Errorf("warm-start contract violated")
	}
	stop2()
	return <-done2
}
