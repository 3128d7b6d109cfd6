// Package singleflight coalesces concurrent calls that share a key: the
// first caller (the leader) runs the call, and every caller that arrives
// while it runs waits and shares its result. hpcexportd puts it in front
// of its decision cache and hpcexportgw in front of its backend fetches,
// so a herd on one cold key costs one computation at each tier.
package singleflight

import (
	"context"
	"errors"
	"sync"
)

// errAbandoned is what waiters receive when the leader's call panics and
// the Group sets no Abandoned error of its own.
var errAbandoned = errors.New("singleflight: leading call panicked")

// Group coalesces calls by key. It caches nothing: once a call returns,
// the next caller for its key leads afresh, so an error reaches the
// waiters of its own flight and no one else. The zero Group is ready to
// use; set the exported fields before the first Do.
type Group[V any] struct {
	// OnWait, when set, runs in each waiter after it joins a flight and
	// before it blocks, so a waiter is counted while it waits.
	OnWait func()
	// Abandoned is the error waiters receive when the leader's call
	// panics instead of returning; nil means a generic error. The panic
	// itself continues up the leader's stack.
	Abandoned error

	mu    sync.Mutex
	calls map[string]*call[V]
}

// call is one flight. done closes once val and err are final.
type call[V any] struct {
	done    chan struct{}
	waiters int
	val     V
	err     error
}

// Do returns fn's result for key, running fn only when no call for key
// is in flight and otherwise waiting for the one that is. Only the
// leader copies key into a string, which it passes to fn; a waiter looks
// its flight up without allocating. coalesced reports whether this
// caller waited on another's call.
//
// ctx bounds the wait, not the work: a waiter whose ctx ends leaves the
// flight and returns ctx.Err(), while the leader ignores ctx and runs fn
// to completion for the waiters that remain (and for the cache behind
// it).
func (g *Group[V]) Do(ctx context.Context, key []byte, fn func(key string) (V, error)) (v V, coalesced bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[string(key)]; ok {
		c.waiters++
		g.mu.Unlock()
		if g.OnWait != nil {
			g.OnWait()
		}
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			g.mu.Lock()
			c.waiters--
			g.mu.Unlock()
			return v, true, ctx.Err()
		}
	}
	c := &call[V]{done: make(chan struct{})}
	skey := string(key)
	if g.calls == nil {
		g.calls = make(map[string]*call[V])
	}
	g.calls[skey] = c
	g.mu.Unlock()

	returned := false
	defer func() {
		if !returned {
			c.err = g.Abandoned
			if c.err == nil {
				c.err = errAbandoned
			}
		}
		g.mu.Lock()
		delete(g.calls, skey)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn(skey)
	returned = true
	return c.val, false, c.err
}

// Waiters reports how many callers are blocked on key's in-flight call.
func (g *Group[V]) Waiters(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.waiters
	}
	return 0
}
