package singleflight

import (
	"errors"
	"testing"
)

// TestLeaderPanicReleasesWaiters holds a leader in flight until a waiter
// has joined, then panics in the leader. The waiter must get the Group's
// Abandoned error instead of hanging, the panic must stay on the
// leader's stack, and the key must lead afresh afterwards.
func TestLeaderPanicReleasesWaiters(t *testing.T) {
	abandoned := errors.New("fill abandoned")
	g := &Group[int]{Abandoned: abandoned}
	started, joined := make(chan struct{}), make(chan struct{})
	g.OnWait = func() { close(joined) }
	recovered := make(chan interface{}, 1)
	go func() {
		defer func() { recovered <- recover() }()
		_, _, _ = g.Do([]byte("k"), func(string) (int, error) {
			close(started)
			<-joined
			panic("leader failed")
		})
	}()
	<-started

	v, coalesced, err := g.Do([]byte("k"), func(string) (int, error) { return 1, nil })
	if !coalesced || v != 0 || !errors.Is(err, abandoned) {
		t.Fatalf("waiter got (%d, coalesced=%v, %v), want (0, true, %v)", v, coalesced, err, abandoned)
	}
	if p := <-recovered; p != "leader failed" {
		t.Fatalf("leader recovered %v, want its own panic", p)
	}
	if n := g.Waiters("k"); n != 0 {
		t.Fatalf("Waiters after the flight = %d, want 0", n)
	}
	v, coalesced, err = g.Do([]byte("k"), func(key string) (int, error) { return len(key), nil })
	if coalesced || v != 1 || err != nil {
		t.Fatalf("fresh call got (%d, coalesced=%v, %v), want (1, false, nil)", v, coalesced, err)
	}
}
