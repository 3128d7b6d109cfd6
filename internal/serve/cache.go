package serve

import (
	"sync"
)

// LRU is a mutex-guarded least-recently-used cache with hit/miss
// accounting. It is the decision- and snapshot-cache substrate of the
// query service: values stored in it are treated as immutable by every
// consumer (the cache hands back the same pointer it was given), which is
// what makes a cache hit byte-identical to the cold computation it
// replaced.
type LRU[K comparable, V any] struct {
	mu        sync.Mutex
	capacity  int
	entries   map[K]*lruNode[K, V]
	head      *lruNode[K, V] // most recently used
	tail      *lruNode[K, V] // least recently used
	hits      uint64
	misses    uint64
	evictions uint64
}

type lruNode[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruNode[K, V]
}

// NewLRU returns an LRU holding at most capacity entries. A capacity
// below one is raised to one so the zero-configuration path still caches
// the most recent query. The entries map starts empty and grows with use:
// capacity is a bound, not a reservation, so a cache that stays small
// (the snapshot cache on a license-only workload) costs almost nothing.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		capacity: capacity,
		entries:  make(map[K]*lruNode[K, V]),
	}
}

// Get returns the cached value for key and records a hit or a miss. A hit
// moves the entry to the front of the recency list.
func (l *LRU[K, V]) Get(key K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, ok := l.entries[key]
	if !ok {
		l.misses++
		var zero V
		return zero, false
	}
	l.hits++
	l.moveToFront(n)
	return n.val, true
}

// Put stores the value under key, evicting the least-recently-used entry
// if the cache is full. Storing an existing key replaces its value and
// refreshes its recency.
func (l *LRU[K, V]) Put(key K, val V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n, ok := l.entries[key]; ok {
		n.val = val
		l.moveToFront(n)
		return
	}
	if len(l.entries) >= l.capacity {
		l.evictOldest()
	}
	n := &lruNode[K, V]{key: key, val: val}
	l.entries[key] = n
	l.pushFront(n)
}

// Len returns the number of cached entries.
func (l *LRU[K, V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// CacheStats is a point-in-time accounting of one cache.
type CacheStats struct {
	Size      int    `json:"size"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats returns the cache's current size and cumulative hit/miss/eviction
// counts.
func (l *LRU[K, V]) Stats() CacheStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return CacheStats{Size: len(l.entries), Hits: l.hits, Misses: l.misses, Evictions: l.evictions}
}

// cachedDecision is one license decision as the decision cache stores
// it: its exact wire rendering, its length and its hash — nothing else,
// so an entry retains only what a hit serves. The response body,
// trailing newline included, is head followed by tail. head is the
// entry's own bytes. tail is nil, or the tier skeleton's shared tail
// when the decision is one the tier alone settles, so the bytes every
// such decision of a tier ends with are stored once. A warm hit writes
// head then tail; the batch path splices them. clen is the preformatted
// Content-Length header value, shaped as the one-element slice
// http.Header wants so the hit path assigns it without allocating. hash
// is the FNV-1a-64 digest of the whole body — the fingerprint the
// decision log records so warm-start replay can prove a recomputed body
// is byte-identical to the one served before the restart.
type cachedDecision struct {
	head []byte
	tail []byte
	clen []string
	hash uint64
}

// appendJSON appends the decision's JSON object, without the trailing
// newline, to dst.
func (d *cachedDecision) appendJSON(dst []byte) []byte {
	dst = append(append(dst, d.head...), d.tail...)
	return dst[:len(dst)-1]
}

// decisionLRU specializes the generic LRU for the license hot path: the
// instantiated cache plus byte-slice keyed lookups. Indexing the entries
// map with string(key) compiles to an allocation-free lookup, so a warm
// GET never materializes its cache key as a string.
type decisionLRU struct {
	LRU[string, *cachedDecision]
}

// newDecisionLRU returns a decisionLRU holding at most capacity entries.
func newDecisionLRU(capacity int) *decisionLRU {
	if capacity < 1 {
		capacity = 1
	}
	l := &decisionLRU{}
	l.capacity = capacity
	l.entries = make(map[string]*lruNode[string, *cachedDecision])
	return l
}

// GetBytes is Get for a byte-slice key, allocation-free on hit and miss.
func (l *decisionLRU) GetBytes(key []byte) (*cachedDecision, bool) {
	l.mu.Lock()
	n, ok := l.entries[string(key)]
	if !ok {
		l.misses++
		l.mu.Unlock()
		return nil, false
	}
	l.hits++
	l.moveToFront(n)
	v := n.val
	l.mu.Unlock()
	return v, true
}

// forEach visits every cached decision, most recently used first, under
// the cache lock without touching the hit/miss accounting or recency.
// Iteration follows the recency list, not the entries map, so visit
// order is a deterministic function of the cache's history. The snapshot
// compactor is the only caller; fn must not re-enter the cache.
func (l *decisionLRU) forEach(fn func(key string, d *cachedDecision)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for n := l.head; n != nil; n = n.next {
		fn(n.key, n.val)
	}
}

// pushFront links n as the new head. Callers hold l.mu.
func (l *LRU[K, V]) pushFront(n *lruNode[K, V]) {
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

// unlink removes n from the recency list. Callers hold l.mu.
func (l *LRU[K, V]) unlink(n *lruNode[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// moveToFront refreshes n's recency. Callers hold l.mu.
func (l *LRU[K, V]) moveToFront(n *lruNode[K, V]) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}

// evictOldest drops the least-recently-used entry. Callers hold l.mu.
func (l *LRU[K, V]) evictOldest() {
	n := l.tail
	if n == nil {
		return
	}
	l.unlink(n)
	delete(l.entries, n.key)
	l.evictions++
}
