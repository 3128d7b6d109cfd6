package singleflight

import (
	"context"
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
		_, _, _ = g.Do(context.Background(), []byte("k"), func(string) (int, error) {
			close(started)
			<-joined
			panic("leader failed")
		})
	}()
	<-started

	v, coalesced, err := g.Do(context.Background(), []byte("k"), func(string) (int, error) { return 1, nil })
	if !coalesced || v != 0 || !errors.Is(err, abandoned) {
		t.Fatalf("waiter got (%d, coalesced=%v, %v), want (0, true, %v)", v, coalesced, err, abandoned)
	}
	if p := <-recovered; p != "leader failed" {
		t.Fatalf("leader recovered %v, want its own panic", p)
	}
	if n := g.Waiters("k"); n != 0 {
		t.Fatalf("Waiters after the flight = %d, want 0", n)
	}
	v, coalesced, err = g.Do(context.Background(), []byte("k"), func(key string) (int, error) { return len(key), nil })
	if coalesced || v != 1 || err != nil {
		t.Fatalf("fresh call got (%d, coalesced=%v, %v), want (1, false, nil)", v, coalesced, err)
	}
}

// TestWaiterLeavesAtContextEnd holds a leader in flight with three
// waiters joined, then ends one waiter's context. That waiter must
// return its ctx.Err() at once, Waiters must drop by one, and the leader
// and the two remaining waiters must all get the leader's value when it
// finishes: a wait ends at its deadline, the work it waited on does not.
func TestWaiterLeavesAtContextEnd(t *testing.T) {
	var g Group[int]
	started, release := make(chan struct{}), make(chan struct{})
	joined := make(chan struct{}, 3)
	g.OnWait = func() { joined <- struct{}{} }
	never := func(string) (int, error) { return -1, nil }

	type result struct {
		v         int
		coalesced bool
		err       error
	}
	results := make(chan result, 3)
	call := func(ctx context.Context, fn func(string) (int, error)) {
		v, coalesced, err := g.Do(ctx, []byte("k"), fn)
		results <- result{v, coalesced, err}
	}
	go call(context.Background(), func(string) (int, error) {
		close(started)
		<-release
		return 42, nil
	})
	<-started
	go call(context.Background(), never)
	go call(context.Background(), never)
	ctx, cancel := context.WithCancel(context.Background())
	left := make(chan result, 1)
	go func() {
		v, coalesced, err := g.Do(ctx, []byte("k"), never)
		left <- result{v, coalesced, err}
	}()
	for i := 0; i < 3; i++ {
		<-joined
	}
	if n := g.Waiters("k"); n != 3 {
		t.Fatalf("Waiters with three joined = %d, want 3", n)
	}

	cancel()
	if r := <-left; r.v != 0 || !r.coalesced || r.err != ctx.Err() {
		t.Fatalf("leaving waiter got (%d, coalesced=%v, %v), want (0, true, %v)", r.v, r.coalesced, r.err, ctx.Err())
	}
	if n := g.Waiters("k"); n != 2 {
		t.Fatalf("Waiters after one left = %d, want 2", n)
	}

	close(release)
	coalesced := 0
	for i := 0; i < 3; i++ {
		r := <-results
		if r.v != 42 || r.err != nil {
			t.Errorf("caller got (%d, %v), want the leader's (42, nil)", r.v, r.err)
		}
		if r.coalesced {
			coalesced++
		}
	}
	if coalesced != 2 {
		t.Errorf("coalesced callers = %d, want 2", coalesced)
	}
	if n := g.Waiters("k"); n != 0 {
		t.Errorf("Waiters after the flight = %d, want 0", n)
	}
}
