package slo

import (
	"strings"
	"testing"
	"time"
)

func TestParseBasics(t *testing.T) {
	for _, spec := range []string{"", "none", "  none  "} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if p.Active() {
			t.Errorf("Parse(%q) is active, want inactive", spec)
		}
	}

	p, err := Parse("availability=0.99,latency=100ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.Default.Availability != 0.99 || p.Default.Latency != 100*time.Millisecond {
		t.Errorf("default = %+v", p.Default)
	}
	if !p.Active() {
		t.Error("profile with a default objective must be active")
	}
}

func TestParsePercentAndOverrides(t *testing.T) {
	// The padded clause governs /v1/license: the route is trimmed.
	p, err := Parse("availability=99.9%;/v1/healthz:off; /v1/license : availability=0.999,latency=50ms,page=10,ticket=3")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Default.Availability; got < 0.9989 || got > 0.9991 {
		t.Errorf("percent availability = %g, want 0.999", got)
	}
	if o := p.For("/v1/healthz"); o.Active() {
		t.Errorf("/v1/healthz should be exempt, got %+v", o)
	}
	lic := p.For("/v1/license")
	if lic.Availability != 0.999 || lic.Latency != 50*time.Millisecond || lic.PageBurn != 10 || lic.TicketBurn != 3 {
		t.Errorf("/v1/license = %+v", lic)
	}
	if o := p.For("/v1/catalog"); o.Availability != p.Default.Availability {
		t.Errorf("unlisted route must get the default, got %+v", o)
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"availability=1.5",
		"availability=0",
		"availability=-0.1",
		"availability=120%",
		"latency=100ms", // no availability target
		"availability=0.99,nope=1",
		"availability=abc",
		"availability=0.99,latency=fast",
		"availability=0.99,page=2,ticket=5",             // page below ticket
		"availability=0.99,page=NaN",                    // NaN burn
		"/v1/license availability=0.99",                 // route clause missing ':'
		"off",                                           // off without a route
		"availability",                                  // malformed pair
		"/v1/license:availability=0.9;/v1/license :off", // route given twice
		"availability=0.99;availability=0.9",            // two default clauses
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestProfileStringRoundTrip(t *testing.T) {
	specs := []string{
		"availability=0.99,latency=100ms",
		"availability=0.99;/v1/healthz:off;/v1/license:availability=0.999,page=10",
		"none",
	}
	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		s := p.String()
		p2, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(String()=%q): %v", s, err)
		}
		if s2 := p2.String(); s2 != s {
			t.Errorf("round trip of %q: %q then %q", spec, s, s2)
		}
	}
}

// FuzzSLOProfileRoundTrip holds String to Parse: for any spec Parse
// accepts, Parse(String()) succeeds and renders the same String, and the
// two profiles give every route either names, and one route neither
// names, the same objective.
func FuzzSLOProfileRoundTrip(f *testing.F) {
	for _, spec := range []string{
		"none",
		"availability=0.99,latency=100ms",
		"availability=0.99;/v1/healthz:off",
		"availability=99.9%;/v1/healthz:off;/v1/license:availability=0.999,latency=50ms,page=10,ticket=3",
		"/v1/license:availability=0.5,page=+Inf",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		text := p.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which Parse refuses: %v", spec, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("Parse(%q) renders %q, which renders %q", spec, text, got)
		}
		unnamed := "/unnamed"
		for {
			_, inA := p.Routes[unnamed]
			_, inB := again.Routes[unnamed]
			if !inA && !inB {
				break
			}
			unnamed += "/x"
		}
		routes := []string{unnamed}
		for _, prof := range []Profile{p, again} {
			for route := range prof.Routes {
				routes = append(routes, route)
			}
		}
		for _, route := range routes {
			if a, b := p.For(route), again.For(route); a != b {
				t.Fatalf("%q vs its String %q: route %q has %+v vs %+v", spec, text, route, a, b)
			}
		}
	})
}

func TestObjectiveDefaults(t *testing.T) {
	var o Objective
	if o.pageBurn() != DefaultPageBurn || o.ticketBurn() != DefaultTicketBurn {
		t.Errorf("zero objective thresholds = %g/%g", o.pageBurn(), o.ticketBurn())
	}
	o = Objective{Availability: 0.99, PageBurn: 20, TicketBurn: 8}
	if o.pageBurn() != 20 || o.ticketBurn() != 8 {
		t.Errorf("explicit thresholds = %g/%g", o.pageBurn(), o.ticketBurn())
	}
	if !strings.Contains(o.Spec(), "page=20") || !strings.Contains(o.Spec(), "ticket=8") {
		t.Errorf("spec = %q", o.Spec())
	}
}
