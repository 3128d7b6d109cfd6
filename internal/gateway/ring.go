package gateway

import (
	"sort"
	"strconv"
)

// The consistent-hash ring. Every member contributes VNodes points, each
// the finalized FNV-1a hash of "url#i"; a key routes to the owner of the first
// point clockwise from the key's own hash. Because a member's points
// depend only on its own URL, adding or removing a member moves exactly
// the keys that member owned (minimal disruption) — the property the
// 500-seed ring tests pin. The ring itself is immutable once built;
// membership changes build a new one under the gateway's lock, and
// health-based draining is applied at lookup time by skipping drained
// owners during the clockwise walk, so a drain never rebuilds (or
// reshuffles) the ring.

// defaultVNodes balances ownership evenness (stddev ~ 1/sqrt(vnodes))
// against build cost; 128 points per member keeps the worst member
// within a few tens of percent of fair share.
const defaultVNodes = 128

// FNV-1a 64-bit, inlined so key hashing allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1a(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// mix64 is the splitmix64 finalizer. FNV-1a alone must not place ring
// points: its last operation is a multiply, which spreads a trailing
// difference by at most delta*prime ~ 2^48 — so the vnode labels
// "url#0".."url#127", identical but for their final digits, would land
// in one narrow arc of the 2^64 circle and ownership would skew by 3x or
// worse. The finalizer avalanches every input bit across the word, and
// the 500-seed balance test pins the resulting evenness.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func hashString(s string) uint64 { return mix64(fnv1a(s)) }

// ringPoint is one virtual node: a position on the hash circle and the
// member that owns it.
type ringPoint struct {
	hash  uint64
	owner string
}

// ring is an immutable consistent-hash ring over a member set.
type ring struct {
	points  []ringPoint
	members []string // sorted, deduplicated
}

// buildRing constructs the ring for the given members. The member list
// is sorted and deduplicated first, so the ring is a pure function of
// the member *set* — byte-identical run to run and independent of the
// order membership arrived in.
func buildRing(members []string, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	uniq := sorted[:0]
	for i, m := range sorted {
		if i == 0 || m != sorted[i-1] {
			uniq = append(uniq, m)
		}
	}
	r := &ring{
		points:  make([]ringPoint, 0, len(uniq)*vnodes),
		members: uniq,
	}
	var buf []byte
	for _, m := range uniq {
		for i := 0; i < vnodes; i++ {
			buf = append(buf[:0], m...)
			buf = append(buf, '#')
			buf = strconv.AppendInt(buf, int64(i), 10)
			r.points = append(r.points, ringPoint{hash: hashString(string(buf)), owner: m})
		}
	}
	// Ties broken by owner so two members hashing one point (vanishingly
	// rare, but possible) still order deterministically.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].owner < r.points[j].owner
	})
	return r
}

// owners appends up to n distinct members for key to dst, walking
// clockwise from the key's hash and skipping members alive rejects. A
// nil alive accepts everyone. The first member appended is the key's
// primary owner; the second is the hedge replica, and so on. Callers
// pass a buffer of n, so a walk allocates nothing.
func (r *ring) owners(dst []string, key string, n int, alive func(string) bool) []string {
	if r == nil || len(r.points) == 0 || n <= 0 {
		return dst
	}
	h := hashString(key)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	base := len(dst)
	for step := 0; step < len(r.points) && len(dst)-base < n; step++ {
		p := &r.points[(idx+step)%len(r.points)]
		if containsString(dst[base:], p.owner) {
			continue
		}
		if alive == nil || alive(p.owner) {
			dst = append(dst, p.owner)
		}
	}
	return dst
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
