package serve

import (
	"fmt"
	"testing"
)

// TestHubBacklogDropsAndClose: the ring keeps the newest hubRing events
// for ?since= backlogs, a stream watchBuffer events behind has the next
// event dropped and counted, and after close publishes are dropped and
// a new subscription's channel is already closed.
func TestHubBacklogDropsAndClose(t *testing.T) {
	h := &hub{}
	for i := 1; i <= hubRing+2; i++ {
		h.publish(WatchEvent{Kind: EventFault, Detail: fmt.Sprintf("f%d", i)})
	}
	// The ring holds seqs 3..hubRing+2; since=hubRing-1 filters to the
	// last three.
	first, backlog, ok := h.subscribe(hubRing - 1)
	if !ok || len(backlog) != 3 || backlog[0].Seq != hubRing || backlog[2].Seq != hubRing+2 {
		t.Fatalf("backlog = %+v (ok %v), want seqs %d..%d", backlog, ok, hubRing, hubRing+2)
	}
	slow, all, _ := h.subscribe(0)
	if len(all) != hubRing || all[0].Seq != 3 {
		t.Fatalf("since=0 backlog holds %d events from seq %d, want %d from 3", len(all), all[0].Seq, hubRing)
	}

	// Neither stream reads: each buffers watchBuffer events and drops
	// the one after.
	for i := 0; i <= watchBuffer; i++ {
		h.publish(WatchEvent{Kind: EventFault})
	}
	if got := h.dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	if got := h.subscribers(); got != 2 {
		t.Fatalf("subscribers = %d, want 2", got)
	}
	h.unsubscribe(slow)
	if got := h.subscribers(); got != 1 {
		t.Fatalf("subscribers after unsubscribe = %d, want 1", got)
	}
	h.unsubscribe(slow) // double unsubscribe is a no-op

	h.close()
	buffered := 0
	for range first {
		buffered++
	}
	if buffered != watchBuffer {
		t.Fatalf("closed stream delivered %d buffered events, want %d", buffered, watchBuffer)
	}
	h.publish(WatchEvent{Kind: EventFault}) // dropped silently after close
	late, _, ok := h.subscribe(0)
	if !ok {
		t.Fatal("subscribe after close refused")
	}
	if _, open := <-late; open {
		t.Fatal("subscribe after close must return a closed channel")
	}
}
