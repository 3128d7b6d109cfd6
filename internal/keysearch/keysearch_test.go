package keysearch

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestEncryptDecryptRoundTrip(t *testing.T) {
	f := func(block, key uint64) bool {
		return Decrypt(Encrypt(block, key), key) == block
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncryptChangesBlock(t *testing.T) {
	f := func(block, key uint64) bool {
		return Encrypt(block, key) != block || block == Encrypt(block, key) && false
	}
	// A permutation may have fixed points in principle; check a known set
	// instead of all inputs.
	_ = f
	fixed := 0
	for b := uint64(0); b < 4096; b++ {
		if Encrypt(b, 0xdeadbeef) == b {
			fixed++
		}
	}
	if fixed > 1 {
		t.Errorf("%d fixed points in 4096 blocks; diffusion broken", fixed)
	}
}

func TestKeySensitivity(t *testing.T) {
	// Adjacent keys must produce different ciphertexts almost always.
	same := 0
	const n = 4096
	for k := uint64(0); k < n; k++ {
		if Encrypt(0x0123456789abcdef, k) == Encrypt(0x0123456789abcdef, k+1) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d adjacent-key collisions in %d", same, n)
	}
}

func TestDiffusion(t *testing.T) {
	// Flipping one plaintext bit should flip roughly half the ciphertext
	// bits on average.
	var totalFlips, trials int
	for b := uint64(0); b < 64; b++ {
		c0 := Encrypt(0, 42)
		c1 := Encrypt(1<<b, 42)
		diff := c0 ^ c1
		for ; diff != 0; diff &= diff - 1 {
			totalFlips++
		}
		trials++
	}
	avg := float64(totalFlips) / float64(trials)
	if avg < 24 || avg > 40 {
		t.Errorf("average bit flips %.1f, want ≈32", avg)
	}
}

func TestSearchFindsPlantedKey(t *testing.T) {
	const key = 0x000000000003_1337 % (1 << 20)
	pairs := MakePairs(key, 0x1122334455667788, 0xcafebabe12345678)
	res, err := Search(pairs, 0, 1<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("planted key not found")
	}
	if res.Key != key {
		t.Fatalf("found %#x, want %#x", res.Key, key)
	}
	if res.Tested == 0 || res.Workers != 4 {
		t.Errorf("result bookkeeping: %+v", res)
	}
}

// TestSearchExhaustsWithoutMatch checks the parallel search's structure
// deterministically: at every worker count, an exhaustive search over a
// keyspace that is not a whole number of chunks tests each key exactly
// once and reports the pool's worker count. How fast the workers go is
// measured by BenchmarkKeySearch, not asserted here.
func TestSearchExhaustsWithoutMatch(t *testing.T) {
	// Pairs generated under a key far outside the searched range.
	pairs := MakePairs(1<<40, 1, 2, 3)
	const first, last = 7, 1<<16 + 100
	for _, workers := range []int{1, 2, 4} {
		res, err := Search(pairs, first, last, workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Fatalf("workers=%d: found spurious key %#x", workers, res.Key)
		}
		if res.Tested != last-first+1 {
			t.Errorf("workers=%d: tested %d keys, want exactly %d", workers, res.Tested, last-first+1)
		}
		if res.Workers != workers {
			t.Errorf("workers=%d: result reports %d workers", workers, res.Workers)
		}
	}
}

func TestSearchWorkerCounts(t *testing.T) {
	const key = 77777
	pairs := MakePairs(key, 0xaaaa, 0xbbbb)
	for _, w := range []int{0, 1, 2, 8, 64} {
		res, err := Search(pairs, 0, 1<<18, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !res.Found || res.Key != key {
			t.Errorf("workers=%d: found=%v key=%#x", w, res.Found, res.Key)
		}
	}
}

func TestSearchSingleKeyRange(t *testing.T) {
	pairs := MakePairs(5, 123)
	res, err := Search(pairs, 5, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Key != 5 {
		t.Errorf("single-key range: %+v", res)
	}
}

func TestSearchErrors(t *testing.T) {
	if _, err := Search(nil, 0, 10, 1); !errors.Is(err, ErrNoPairs) {
		t.Errorf("no pairs: %v", err)
	}
	if _, err := Search(MakePairs(1, 2), 10, 5, 1); !errors.Is(err, ErrKeyspace) {
		t.Errorf("inverted range: %v", err)
	}
}

func TestMultiplePairsDisambiguate(t *testing.T) {
	// With a single 64→64 pair, false positives are conceivable in a toy
	// keyspace; with three pairs they are vanishing. Verify the match
	// logic actually uses all pairs.
	if match(1, MakePairs(2, 10, 20, 30)) {
		t.Error("wrong key matched all pairs")
	}
	if !match(42, MakePairs(42, 10, 20, 30)) {
		t.Error("right key rejected")
	}
}

func TestKeysPerSecond(t *testing.T) {
	r := Result{Tested: 1000, Seconds: 2}
	if got := r.KeysPerSecond(); got != 500 {
		t.Errorf("KeysPerSecond = %v", got)
	}
	if (Result{Tested: 10}).KeysPerSecond() != 0 {
		t.Error("zero-duration throughput should be 0")
	}
}

// TestSearchClockIsDeterministic: with an injected scripted clock the
// whole Result — including Seconds and the derived throughput — is a pure
// function of the inputs, which is what lets exhibits built on key-search
// timings regenerate identically.
func TestSearchClockIsDeterministic(t *testing.T) {
	const key = 4242
	pairs := MakePairs(key, 0x1234, 0x5678)
	run := func() Result {
		base := time.Unix(800000000, 0) // a 1995 vintage instant
		calls := 0
		clock := func() time.Time {
			calls++
			return base.Add(time.Duration(calls-1) * 250 * time.Millisecond)
		}
		res, err := SearchClock(pairs, 0, 1<<16, 1, clock)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("scripted clock still nondeterministic: %+v vs %+v", a, b)
	}
	if a.Seconds != 0.25 {
		t.Errorf("Seconds = %v, want the scripted 0.25", a.Seconds)
	}
	if !a.Found || a.Key != key {
		t.Errorf("search result wrong: %+v", a)
	}
	if got := a.KeysPerSecond(); got != float64(a.Tested)/0.25 {
		t.Errorf("KeysPerSecond = %v", got)
	}
}

// TestSearchClockNilClock: a nil clock skips measurement entirely.
func TestSearchClockNilClock(t *testing.T) {
	pairs := MakePairs(9, 0x1234)
	res, err := SearchClock(pairs, 0, 1<<12, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds != 0 {
		t.Errorf("nil clock measured %v seconds", res.Seconds)
	}
	if !res.Found || res.Key != 9 {
		t.Errorf("search result wrong: %+v", res)
	}
}
