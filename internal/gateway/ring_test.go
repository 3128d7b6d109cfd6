package gateway

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// ringSeeds is how many independent member sets each ring property is
// checked against. Every seed derives a distinct set of member URLs, so
// the properties hold over the ring construction itself, not over one
// lucky layout.
const ringSeeds = 500

// ringMembers derives n distinct, realistic member URLs for a seed.
func ringMembers(seed uint64, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.%d.%d.%d:8095", seed/251, seed%251, i+1)
	}
	return out
}

// ringKeys derives k distinct lookup keys for a seed, shaped like the
// canonical decision keys the gateway actually routes.
func ringKeys(seed uint64, k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprintf("\x1f%d\x1fdest-%d\x1fuse-%d\x1f%d", 500+37*i, i%17, seed, 1500)
	}
	return out
}

// TestRingBalance pins ownership evenness: at 128 vnodes, every member's
// share of a 2000-key population stays within a fixed band around fair
// share, across 500 member sets each at 3, 5, and 8 members. The band is
// generous per member (consistent hashing trades perfect balance for
// minimal disruption) but tight enough to catch a broken hash or a
// member starved by vnode placement.
func TestRingBalance(t *testing.T) {
	const keysPerCase = 2000
	for _, size := range []int{3, 5, 8} {
		size := size
		t.Run(fmt.Sprintf("members=%d", size), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(0); seed < ringSeeds; seed++ {
				members := ringMembers(seed, size)
				r := buildRing(members, defaultVNodes)
				counts := make(map[string]int, size)
				for _, key := range ringKeys(seed, keysPerCase) {
					owners := r.owners(nil, key, 1, nil)
					if len(owners) != 1 {
						t.Fatalf("seed %d: key %q resolved %d owners", seed, key, len(owners))
					}
					counts[owners[0]]++
				}
				fair := float64(keysPerCase) / float64(size)
				for _, m := range members {
					share := float64(counts[m]) / fair
					if share < 0.55 || share > 1.60 {
						t.Errorf("seed %d: member %s owns %d of %d keys (%.2fx fair share)",
							seed, m, counts[m], keysPerCase, share)
					}
				}
			}
		})
	}
}

// TestRingRemovalMinimalDisruption pins the property the design leans
// on: removing one member remaps exactly that member's keys. Every key
// owned by a surviving member keeps its owner; every key owned by the
// removed member moves to some survivor.
func TestRingRemovalMinimalDisruption(t *testing.T) {
	const keysPerCase = 400
	for seed := uint64(0); seed < ringSeeds; seed++ {
		members := ringMembers(seed, 5)
		removed := members[int(seed)%len(members)]
		var survivors []string
		for _, m := range members {
			if m != removed {
				survivors = append(survivors, m)
			}
		}
		before := buildRing(members, defaultVNodes)
		after := buildRing(survivors, defaultVNodes)
		moved := 0
		for _, key := range ringKeys(seed, keysPerCase) {
			ob := before.owners(nil, key, 1, nil)[0]
			oa := after.owners(nil, key, 1, nil)[0]
			if ob == removed {
				moved++
				if oa == removed {
					t.Fatalf("seed %d: key %q still owned by removed member", seed, key)
				}
				continue
			}
			if oa != ob {
				t.Errorf("seed %d: key %q moved %s -> %s though %s was removed",
					seed, key, ob, oa, removed)
			}
		}
		// Sanity: the removed member owned a nontrivial share, so the
		// property was actually exercised.
		if moved == 0 {
			t.Errorf("seed %d: removed member owned no keys out of %d", seed, keysPerCase)
		}
	}
}

// TestRingDeterministic pins run-to-run identity: the ring is a pure
// function of the member set. Building from a differently-ordered,
// duplicated member list yields byte-identical points and identical
// owners for every key.
func TestRingDeterministic(t *testing.T) {
	members := ringMembers(7, 6)
	shuffled := []string{members[3], members[0], members[5], members[3], members[1], members[4], members[2], members[0]}
	a := buildRing(members, defaultVNodes)
	b := buildRing(shuffled, defaultVNodes)
	if len(a.points) != len(b.points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.points), len(b.points))
	}
	for i := range a.points {
		if a.points[i] != b.points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a.points[i], b.points[i])
		}
	}
	for _, key := range ringKeys(7, 1000) {
		oa := a.owners(nil, key, 2, nil)
		ob := b.owners(nil, key, 2, nil)
		if len(oa) != len(ob) || oa[0] != ob[0] || oa[1] != ob[1] {
			t.Fatalf("key %q: owners %v vs %v", key, oa, ob)
		}
	}
}

// TestRingOwnersSkipAndDistinct pins the lookup contract: the alive
// filter is honored, returned owners are distinct, and asking for more
// owners than members caps at the member count.
func TestRingOwnersSkipAndDistinct(t *testing.T) {
	members := ringMembers(11, 4)
	r := buildRing(members, defaultVNodes)
	dead := members[2]
	alive := func(m string) bool { return m != dead }
	for _, key := range ringKeys(11, 200) {
		owners := r.owners(nil, key, 4, alive)
		if len(owners) != 3 {
			t.Fatalf("key %q: got %d owners with one member dead, want 3", key, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if o == dead {
				t.Fatalf("key %q: dead member %s returned as owner", key, dead)
			}
			if seen[o] {
				t.Fatalf("key %q: duplicate owner %s", key, o)
			}
			seen[o] = true
		}
	}

	// Draining a member must not move keys between the survivors: the
	// first non-dead owner in the full walk is the drained pick.
	for _, key := range ringKeys(11, 200) {
		full := r.owners(nil, key, 4, nil)
		want := full[0]
		if want == dead {
			want = full[1]
		}
		if got := r.owners(nil, key, 1, alive)[0]; got != want {
			t.Fatalf("key %q: drained owner %s, want %s", key, got, want)
		}
	}
}

// TestRingEdgeCases covers the degenerate inputs.
func TestRingEdgeCases(t *testing.T) {
	if got := buildRing(nil, defaultVNodes).owners(nil, "k", 1, nil); got != nil {
		t.Fatalf("empty ring returned owners %v", got)
	}
	var nilRing *ring
	if got := nilRing.owners(nil, "k", 1, nil); got != nil {
		t.Fatalf("nil ring returned owners %v", got)
	}
	one := buildRing([]string{"http://solo:1"}, defaultVNodes)
	if got := one.owners(nil, "k", 3, nil); len(got) != 1 || got[0] != "http://solo:1" {
		t.Fatalf("single-member ring returned %v", got)
	}
	if got := one.owners(nil, "k", 0, nil); got != nil {
		t.Fatalf("n=0 returned %v", got)
	}
	if got := one.owners(nil, "k", 1, func(string) bool { return false }); len(got) != 0 {
		t.Fatalf("all-dead ring returned %v", got)
	}
	// A walk appends after what dst holds; only its own members count
	// toward n and toward distinctness.
	if got := one.owners([]string{"http://solo:1"}, "k", 1, nil); len(got) != 2 || got[1] != "http://solo:1" {
		t.Fatalf("walk after a one-member prefix returned %v", got)
	}
}

// TestHashStringIsFinalizedFNV1a pins the inlined hash against the
// stdlib FNV reference plus the splitmix64 finalizer, so a refactor
// cannot silently change every key's placement.
func TestHashStringIsFinalizedFNV1a(t *testing.T) {
	for _, in := range []string{"", "a", "abc", "http://10.0.0.1:8095#17", "\x1f21125\x1findia"} {
		ref := fnv.New64a()
		_, _ = ref.Write([]byte(in))
		if got, want := hashString(in), mix64(ref.Sum64()); got != want {
			t.Errorf("hashString(%q) = %#x, want %#x", in, got, want)
		}
	}
	// The finalizer must spread trailing-digit differences: without it,
	// all of one member's vnode points share their high bits and cluster
	// in one arc (the failure mode that motivated mix64).
	a := hashString("http://10.0.0.1:8095#0") >> 48
	spread := false
	for i := 1; i < 128 && !spread; i++ {
		if hashString(fmt.Sprintf("http://10.0.0.1:8095#%d", i))>>48 != a {
			spread = true
		}
	}
	if !spread {
		t.Fatal("vnode hashes share their top 16 bits; the finalizer is not mixing")
	}
}
