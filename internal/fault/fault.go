// Package fault is the reproduction's deterministic fault-injection
// layer: seeded, per-route schedules of injected errors, latency, and
// cache poisoning that the query service mounts as middleware and the
// chaos test suite replays exactly.
//
// The design obeys the repository's determinism contract. A Plan never
// draws from the process-global random source or the wall clock; every
// decision is a pure function of (seed, route, slot), where the slot is
// the arrival index on that route. Two plans built from the same seed and
// profile therefore produce the identical fault sequence on every run and
// machine — and because concurrent arrivals merely race for *which* slot
// they take, not for what any slot holds, the multiset of decisions
// consumed by N arrivals is interleaving-independent. That is what makes
// chaos-test counters reproducible under -race and lets ci.sh diff a live
// daemon's fault counters against a committed golden file.
//
// A Profile says how often each fault fires; a Plan binds a profile to a
// seed and deals out decisions. The three fault kinds:
//
//	Error    the request fails with an injected 503 before its handler runs
//	Latency  the request is delayed by the profile's delay, then proceeds
//	Poison   the request's caches are treated as poisoned: the server
//	         recomputes directly and marks the response X-Degraded
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/routespec"
)

// Kind is the class of an injected fault. None means the arrival proceeds
// untouched.
type Kind int

const (
	// None: no fault; the request proceeds normally.
	None Kind = iota
	// Error: the request fails with an injected 503.
	Error
	// Latency: the request is delayed before its handler runs.
	Latency
	// Poison: the request's cache lookups are poisoned; the server falls
	// back to direct computation.
	Poison
)

// String returns the kind's wire name.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Error:
		return "error"
	case Latency:
		return "latency"
	case Poison:
		return "poison"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Decision is the plan's verdict for one arrival.
type Decision struct {
	Kind  Kind
	Delay time.Duration // the injected pause, for Kind == Latency
	Slot  uint64        // the schedule slot this arrival consumed (0 on a route with no schedule)
}

// RouteProfile is one route's fault mix: independent probability bands for
// each kind, drawn from a single uniform variate per arrival, so the rates
// must sum to at most one.
type RouteProfile struct {
	Error   float64       // probability of an injected error
	Latency float64       // probability of an injected delay
	Delay   time.Duration // the delay injected when Latency fires
	Poison  float64       // probability of a poisoned cache lookup
}

// Active reports whether the profile injects anything at all.
func (rp RouteProfile) Active() bool {
	return rp.Error > 0 || rp.Latency > 0 || rp.Poison > 0
}

// Validate checks the bands.
func (rp RouteProfile) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"error", rp.Error}, {"latency", rp.Latency}, {"poison", rp.Poison}} {
		if !(r.v >= 0 && r.v <= 1) { // NaN too: it would silence the bands after it
			return fmt.Errorf("fault: %s rate %g outside [0,1]", r.name, r.v)
		}
	}
	if sum := rp.Error + rp.Latency + rp.Poison; sum > 1 {
		return fmt.Errorf("fault: rates sum to %g > 1", sum)
	}
	if rp.Delay < 0 {
		return fmt.Errorf("fault: negative delay %v", rp.Delay)
	}
	if rp.Latency > 0 && rp.Delay == 0 {
		return errors.New("fault: latency rate set without delay=")
	}
	return nil
}

// Spec renders the profile as its canonical clause text.
func (rp RouteProfile) Spec() string {
	var parts []string
	if rp.Error > 0 {
		parts = append(parts, "error="+formatRate(rp.Error))
	}
	if rp.Latency > 0 {
		parts = append(parts, "latency="+formatRate(rp.Latency), "delay="+rp.Delay.String())
	}
	if rp.Poison > 0 {
		parts = append(parts, "poison="+formatRate(rp.Poison))
	}
	return strings.Join(parts, ",")
}

func formatRate(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Profile is a fault mix for a whole service: a default RouteProfile
// applied to every injectable route, plus per-route overrides, in the
// grammar internal/routespec defines. An inactive override, such as
// "ROUTE:off", exempts its route from the default.
type Profile = routespec.Profile[RouteProfile]

// Parse builds a Profile from a preset name or a spec string.
//
// Presets: "none" (inject nothing), "flaky" (30% errors), "slow" (25%
// latency at 5ms), "chaos" (30% errors, 20% latency at 2ms, 10% poison).
//
// A spec is the routespec grammar: clauses joined by ';', each a
// comma-separated list of k=v pairs — error=RATE, latency=RATE,
// delay=DURATION, poison=RATE — optionally prefixed "ROUTE:" (the route
// starting with '/') to override one route instead of setting the
// default. "ROUTE:off" exempts a route:
//
//	error=0.3,latency=0.2,delay=2ms,poison=0.1
//	error=0.1;/v1/license:error=0.5,poison=0.2;/v1/threshold:off
func Parse(spec string) (Profile, error) {
	switch strings.TrimSpace(spec) {
	case "flaky":
		return Profile{Default: RouteProfile{Error: 0.3}}, nil
	case "slow":
		return Profile{Default: RouteProfile{Latency: 0.25, Delay: 5 * time.Millisecond}}, nil
	case "chaos":
		return Profile{Default: RouteProfile{
			Error: 0.3, Latency: 0.2, Delay: 2 * time.Millisecond, Poison: 0.1,
		}}, nil
	}
	return routespec.Parse("fault", spec, parseClause)
}

// parseClause parses one clause's k=v pairs into a RouteProfile.
func parseClause(body string) (RouteProfile, error) {
	var rp RouteProfile
	for _, kv := range strings.Split(body, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return RouteProfile{}, fmt.Errorf("fault: malformed pair %q (want key=value)", kv)
		}
		switch k {
		case "error", "latency", "poison":
			rate, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return RouteProfile{}, fmt.Errorf("fault: bad %s rate %q", k, v)
			}
			switch k {
			case "error":
				rp.Error = rate
			case "latency":
				rp.Latency = rate
			case "poison":
				rp.Poison = rate
			}
		case "delay":
			d, err := time.ParseDuration(v)
			if err != nil {
				return RouteProfile{}, fmt.Errorf("fault: bad delay %q", v)
			}
			rp.Delay = d
		default:
			return RouteProfile{}, fmt.Errorf("fault: unknown key %q", k)
		}
	}
	return rp, nil
}

// Plan deals a profile's faults deterministically: the decision for the
// n-th arrival on a route is a pure function of (seed, route, n). Next is
// safe for concurrent use; concurrent arrivals race only for which slot
// they take, never for what a slot holds.
type Plan struct {
	seed    uint64
	profile Profile

	mu    sync.Mutex
	slots map[string]uint64 // next slot per route
}

// NewPlan binds a profile to a seed, validating the profile.
func NewPlan(seed uint64, profile Profile) (*Plan, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	return &Plan{seed: seed, profile: profile, slots: make(map[string]uint64)}, nil
}

// Profile returns the plan's profile. The Routes map is shared; treat it
// as read-only.
func (p *Plan) Profile() Profile { return p.profile }

// Next consumes the route's next schedule slot and returns its decision.
// A route whose rule injects nothing has no schedule: its arrivals take
// neither the lock nor a slot, and get a None decision.
func (p *Plan) Next(route string) Decision {
	if !p.profile.For(route).Active() {
		return Decision{Kind: None}
	}
	p.mu.Lock()
	slot := p.slots[route]
	p.slots[route] = slot + 1
	p.mu.Unlock()
	return p.At(route, slot)
}

// Taken returns how many slots the route has consumed so far.
func (p *Plan) Taken(route string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.slots[route]
}

// At returns the decision for one schedule slot without consuming
// anything — the pure schedule accessor tests and golden checks replay.
func (p *Plan) At(route string, slot uint64) Decision {
	rp := p.profile.For(route)
	d := Decision{Kind: None, Slot: slot}
	if !rp.Active() {
		return d
	}
	u := unit(p.seed ^ hashString(route) ^ slot*0x9e3779b97f4a7c15)
	switch {
	case u < rp.Error:
		d.Kind = Error
	case u < rp.Error+rp.Latency:
		d.Kind = Latency
		d.Delay = rp.Delay
	case u < rp.Error+rp.Latency+rp.Poison:
		d.Kind = Poison
	}
	return d
}

// Stream returns a deterministic uniform-[0,1) source seeded by seed — a
// splitmix64 counter stream. It is the package's randomness primitive and
// what the service client uses for backoff jitter, so retry timing is
// seed-reproducible too. The returned function is not safe for concurrent
// use; callers serialize it.
func Stream(seed uint64) func() float64 {
	state := seed
	return func() float64 {
		state += 0x9e3779b97f4a7c15
		return unit(state)
	}
}

// unit finishes a splitmix64 state into a uniform float64 in [0,1).
func unit(z uint64) float64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// hashString is FNV-1a over the route name.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
