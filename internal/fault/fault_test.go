package fault

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func mustPlan(t *testing.T, seed uint64, spec string) *Plan {
	t.Helper()
	prof, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	p, err := NewPlan(seed, prof)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	return p
}

func TestSameSeedSameSchedule(t *testing.T) {
	a := mustPlan(t, 42, "chaos")
	b := mustPlan(t, 42, "chaos")
	for _, route := range []string{"/v1/license", "/v1/threshold"} {
		for i := 0; i < 1000; i++ {
			da, db := a.Next(route), b.Next(route)
			if da != db {
				t.Fatalf("%s slot %d: %v vs %v", route, i, da, db)
			}
			if at := a.At(route, uint64(i)); at != da {
				t.Fatalf("%s slot %d: Next %v but At %v", route, i, da, at)
			}
		}
	}

	// A route exempted with ROUTE:off has no schedule: its arrivals take
	// no slot, and the active route's decisions are still At's, slot by
	// slot.
	p := mustPlan(t, 42, "error=0.5;/v1/threshold:off")
	for i := 0; i < 100; i++ {
		if d := p.Next("/v1/threshold"); d.Kind != None {
			t.Fatalf("exempt route arrival %d: %v", i, d)
		}
		if d, at := p.Next("/v1/license"), p.At("/v1/license", uint64(i)); d != at {
			t.Fatalf("/v1/license slot %d: Next %v but At %v", i, d, at)
		}
	}
	if got := p.Taken("/v1/threshold"); got != 0 {
		t.Errorf("exempt route took %d slots, want 0", got)
	}
	if got := p.Taken("/v1/license"); got != 100 {
		t.Errorf("/v1/license took %d slots, want 100", got)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := mustPlan(t, 1, "chaos")
	b := mustPlan(t, 2, "chaos")
	same := true
	for i := uint64(0); i < 100; i++ {
		if a.At("/v1/license", i) != b.At("/v1/license", i) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 100-slot schedules")
	}
}

func TestRoutesHaveIndependentStreams(t *testing.T) {
	p := mustPlan(t, 7, "chaos")
	same := true
	for i := uint64(0); i < 100; i++ {
		if p.At("/v1/license", i).Kind != p.At("/v1/threshold", i).Kind {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two routes produced identical 100-slot schedules")
	}
}

func TestCertainBands(t *testing.T) {
	cases := []struct {
		spec string
		want Kind
	}{
		{"error=1", Error},
		{"latency=1,delay=3ms", Latency},
		{"poison=1", Poison},
		{"none", None},
	}
	for _, tc := range cases {
		p := mustPlan(t, 9, tc.spec)
		for i := 0; i < 50; i++ {
			d := p.Next("/v1/license")
			if d.Kind != tc.want {
				t.Fatalf("%s slot %d: kind %v, want %v", tc.spec, i, d.Kind, tc.want)
			}
			if tc.want == Latency && d.Delay != 3*time.Millisecond {
				t.Fatalf("latency delay %v", d.Delay)
			}
		}
	}
}

// TestRatesRealized pins that the realized mix over many slots tracks the
// profile's bands. The counts are deterministic for a fixed seed; the
// tolerance only keeps the test honest about what a hash stream owes us.
func TestRatesRealized(t *testing.T) {
	p := mustPlan(t, 7, "chaos")
	const n = 10000
	var counts [4]int
	for i := uint64(0); i < n; i++ {
		counts[p.At("/v1/license", i).Kind]++
	}
	check := func(kind Kind, want float64) {
		got := float64(counts[kind]) / n
		if got < want-0.03 || got > want+0.03 {
			t.Errorf("%v rate %.3f, want ≈ %.2f", kind, got, want)
		}
	}
	check(Error, 0.3)
	check(Latency, 0.2)
	check(Poison, 0.1)
	check(None, 0.4)
}

func TestConcurrentNextConsumesEachSlotOnce(t *testing.T) {
	p := mustPlan(t, 3, "flaky")
	const workers, per = 64, 32
	slots := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				slots[w] = append(slots[w], p.Next("/v1/license").Slot)
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool, workers*per)
	for _, ws := range slots {
		for _, s := range ws {
			if seen[s] {
				t.Fatalf("slot %d consumed twice", s)
			}
			seen[s] = true
		}
	}
	for i := uint64(0); i < workers*per; i++ {
		if !seen[i] {
			t.Fatalf("slot %d never consumed", i)
		}
	}
	if got := p.Taken("/v1/license"); got != workers*per {
		t.Fatalf("Taken = %d, want %d", got, workers*per)
	}
}

func TestParsePresetsAndRoundTrip(t *testing.T) {
	for _, spec := range []string{"none", "flaky", "slow", "chaos"} {
		prof, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		again, err := Parse(prof.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", prof.String(), err)
		}
		if again.String() != prof.String() {
			t.Errorf("%s: round trip %q != %q", spec, again.String(), prof.String())
		}
	}
}

func TestParseSpecWithRouteOverride(t *testing.T) {
	// The padded clause governs /v1/license: the route is trimmed.
	prof, err := Parse("error=0.1; /v1/license : error=0.5,poison=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if prof.Default.Error != 0.1 {
		t.Errorf("default error = %g", prof.Default.Error)
	}
	lic := prof.For("/v1/license")
	if lic.Error != 0.5 || lic.Poison != 0.2 {
		t.Errorf("license override = %+v", lic)
	}
	if other := prof.For("/v1/catalog"); other.Error != 0.1 {
		t.Errorf("catalog fell outside the default: %+v", other)
	}
	want := "error=0.1;/v1/license:error=0.5,poison=0.2"
	if got := prof.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestInactiveOverrideSurvivesString: an override that injects nothing
// exempts its route from the default, so String must keep it, as
// "ROUTE:off". Dropping it rendered "error=0.5;/v1/threshold:error=0" as
// "error=0.5", which reparses to a profile that faults /v1/threshold half
// the time.
func TestInactiveOverrideSurvivesString(t *testing.T) {
	prof, err := Parse("error=0.5;/v1/threshold:error=0")
	if err != nil {
		t.Fatal(err)
	}
	const want = "error=0.5;/v1/threshold:off"
	if got := prof.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	again, err := Parse(prof.String())
	if err != nil {
		t.Fatal(err)
	}
	if rp := again.For("/v1/threshold"); rp.Active() {
		t.Errorf("reparsed profile faults /v1/threshold: %+v", rp)
	}
	if !prof.Active() {
		t.Error("a profile with a 50% default error rate must be active")
	}
	exempt, err := Parse("/v1/threshold:error=0")
	if err != nil {
		t.Fatal(err)
	}
	if exempt.Active() || exempt.String() != "/v1/threshold:off" {
		t.Errorf("exemption alone: Active %v, String %q; want inactive and kept", exempt.Active(), exempt.String())
	}
}

// FuzzFaultProfileRoundTrip holds String to Parse: for any spec Parse
// accepts, Parse(String()) succeeds and renders the same String, and
// plans over the two profiles with one seed make the same decision in
// slots 0-63 on every route either profile names and on one route
// neither names. A delay with no latency rate is dropped by String and
// changes no decision.
func FuzzFaultProfileRoundTrip(f *testing.F) {
	for _, spec := range []string{
		"none", "flaky", "slow", "chaos",
		"error=0.5;/v1/healthz:error=0",
		"error=0.1;/v1/license:error=0.5,poison=0.2",
		"latency=0.25,delay=5ms;/v1/catalog:delay=1ms",
		"/v1/threshold:latency=1,delay=1h30m",
	} {
		f.Add(uint64(90), spec)
	}
	f.Fuzz(func(t *testing.T, seed uint64, spec string) {
		prof, err := Parse(spec)
		if err != nil {
			return
		}
		text := prof.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which Parse refuses: %v", spec, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("Parse(%q) renders %q, which renders %q", spec, text, got)
		}
		a, err := NewPlan(seed, prof)
		if err != nil {
			t.Fatalf("NewPlan(Parse(%q)): %v", spec, err)
		}
		b, err := NewPlan(seed, again)
		if err != nil {
			t.Fatalf("NewPlan(Parse(%q)): %v", text, err)
		}
		unnamed := "/unnamed"
		for {
			_, inA := prof.Routes[unnamed]
			_, inB := again.Routes[unnamed]
			if !inA && !inB {
				break
			}
			unnamed += "/x"
		}
		routes := []string{unnamed}
		for _, p := range []Profile{prof, again} {
			for route := range p.Routes {
				routes = append(routes, route)
			}
		}
		for _, route := range routes {
			for slot := uint64(0); slot < 64; slot++ {
				if da, db := a.At(route, slot), b.At(route, slot); da != db {
					t.Fatalf("%q vs its String %q: route %q slot %d decides %+v vs %+v", spec, text, route, slot, da, db)
				}
			}
		}
	})
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"error=2",                         // rate above 1
		"error=-0.1",                      // negative rate
		"error=NaN,latency=0.5,delay=1ms", // NaN rate
		"error=0.6,latency=0.5,delay=1ms", // bands sum past 1
		"latency=0.2",                     // latency without delay
		"delay=-3ms,latency=0.1",          // negative delay
		"bogus=1",                         // unknown key
		"error",                           // missing =
		"error=x",                         // unparsable rate
		"delay=fast,latency=0.1",          // unparsable duration
		"/v1/license error=1",             // route clause missing ':'
		"off",                             // off without a route
		"/v1/license:error=0.1; /v1/license :error=0.2", // route given twice
		"error=0.1;poison=0.1",                          // two default clauses
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
	if prof, err := Parse("error=0.1;/v1/license:off"); err != nil || prof.For("/v1/license").Active() {
		t.Errorf("Parse of a ROUTE:off exemption: %+v, %v", prof, err)
	}
}

func TestNewPlanRejectsBadProfile(t *testing.T) {
	if _, err := NewPlan(1, Profile{Default: RouteProfile{Error: 1.5}}); err == nil {
		t.Fatal("NewPlan accepted an invalid profile")
	}
	if _, err := NewPlan(1, Profile{Routes: map[string]RouteProfile{
		"/v1/license": {Latency: 0.5},
	}}); err == nil || !strings.Contains(err.Error(), "/v1/license") {
		t.Fatalf("per-route validation error should name the route, got %v", err)
	}
}

func TestStreamDeterministicAndBounded(t *testing.T) {
	a, b := Stream(11), Stream(11)
	for i := 0; i < 1000; i++ {
		va, vb := a(), b()
		if va != vb {
			t.Fatalf("draw %d: %g vs %g", i, va, vb)
		}
		if va < 0 || va >= 1 {
			t.Fatalf("draw %d: %g outside [0,1)", i, va)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		None: "none", Error: "error", Latency: "latency", Poison: "poison", Kind(9): "Kind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
