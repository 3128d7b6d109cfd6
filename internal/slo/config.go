// Package slo is the burn-rate SLO engine: multi-window error-budget
// burn rates over availability and latency objectives, evaluated
// read-at-scrape from the obs instruments the serve layer already
// maintains. The engine holds no goroutines and no clock of its own —
// every evaluation happens at an injected instant, so the same traffic
// under the same fake clock yields the same verdicts on every run.
package slo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Default burn-rate thresholds, per the multi-window multi-burn-rate
// alerting chapter of the SRE workbook: a page fires when the budget is
// burning 14.4x faster than sustainable (2% of a 30-day budget in one
// hour), a ticket at 6x (5% in six hours).
const (
	DefaultPageBurn   = 14.4
	DefaultTicketBurn = 6.0
)

// Objective is one route's service-level objective: an availability
// target (fraction of requests that must not be server errors) and an
// optional latency target (requests slower than LatencyNs count against
// the latency budget, with the same availability fraction as the
// goodness target). A zero Objective means "no objective" — the route is
// not judged.
type Objective struct {
	Availability float64       // e.g. 0.99: at most 1% of requests may be bad
	Latency      time.Duration // 0 disables the latency signal
	PageBurn     float64       // burn rate that pages; 0 selects DefaultPageBurn
	TicketBurn   float64       // burn rate that tickets; 0 selects DefaultTicketBurn
}

// active reports whether the objective judges anything.
func (o Objective) active() bool { return o.Availability > 0 }

// pageBurn returns the paging threshold with the default applied.
func (o Objective) pageBurn() float64 {
	if o.PageBurn > 0 {
		return o.PageBurn
	}
	return DefaultPageBurn
}

// ticketBurn returns the ticketing threshold with the default applied.
func (o Objective) ticketBurn() float64 {
	if o.TicketBurn > 0 {
		return o.TicketBurn
	}
	return DefaultTicketBurn
}

// validate rejects objectives the burn-rate formula cannot price.
func (o Objective) validate() error {
	if o.Availability != 0 && (o.Availability < 0 || o.Availability >= 1) {
		return fmt.Errorf("slo: availability %g outside (0, 1)", o.Availability)
	}
	if o.Latency < 0 {
		return fmt.Errorf("slo: negative latency objective %v", o.Latency)
	}
	if !(o.PageBurn >= 0 && o.TicketBurn >= 0) {
		return fmt.Errorf("slo: burn threshold negative or NaN")
	}
	if o.PageBurn > 0 && o.TicketBurn > 0 && o.PageBurn < o.TicketBurn {
		return fmt.Errorf("slo: page burn %g below ticket burn %g", o.PageBurn, o.TicketBurn)
	}
	return nil
}

// spec renders the objective as its canonical clause text.
func (o Objective) spec() string {
	parts := []string{"availability=" + strconv.FormatFloat(o.Availability, 'g', -1, 64)}
	if o.Latency > 0 {
		parts = append(parts, "latency="+o.Latency.String())
	}
	if o.PageBurn > 0 {
		parts = append(parts, "page="+strconv.FormatFloat(o.PageBurn, 'g', -1, 64))
	}
	if o.TicketBurn > 0 {
		parts = append(parts, "ticket="+strconv.FormatFloat(o.TicketBurn, 'g', -1, 64))
	}
	return strings.Join(parts, ",")
}

// Profile is the SLO configuration for a whole service: a default
// objective applied to every judged route, plus per-route overrides. An
// override with a zero objective exempts that route.
type Profile struct {
	Default Objective
	Routes  map[string]Objective // per-route overrides; may be nil
}

// For returns the objective governing one route.
func (p Profile) For(route string) Objective {
	if o, ok := p.Routes[route]; ok {
		return o
	}
	return p.Default
}

// Active reports whether the profile judges anything at all.
func (p Profile) Active() bool {
	if p.Default.active() {
		return true
	}
	for _, o := range p.Routes {
		if o.active() {
			return true
		}
	}
	return false
}

// Validate checks every objective in the profile.
func (p Profile) Validate() error {
	if err := p.Default.validate(); err != nil {
		return err
	}
	for _, route := range sortedRoutes(p.Routes) {
		if err := p.Routes[route].validate(); err != nil {
			return fmt.Errorf("%w (route %s)", err, route)
		}
	}
	return nil
}

// String renders the profile as a canonical Parse-able spec: the default
// clause first, then route overrides sorted by route. An inactive
// profile renders as "none".
func (p Profile) String() string {
	var clauses []string
	if p.Default.active() {
		clauses = append(clauses, p.Default.spec())
	}
	for _, route := range sortedRoutes(p.Routes) {
		if o := p.Routes[route]; o.active() {
			clauses = append(clauses, route+":"+o.spec())
		} else {
			clauses = append(clauses, route+":off")
		}
	}
	if len(clauses) == 0 {
		return "none"
	}
	return strings.Join(clauses, ";")
}

// sortedRoutes returns the override routes in the one canonical order.
func sortedRoutes(m map[string]Objective) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Parse builds a Profile from a spec string, mirroring the fault-profile
// grammar: clauses joined by ';', each a comma-separated list of k=v
// pairs, optionally prefixed "ROUTE:" (the route starting with '/') to
// override one route instead of setting the default. Keys:
//
//	availability=F   target good fraction, as a fraction ("0.99") or
//	                 percentage ("99.9%")
//	latency=D        latency objective as a Go duration ("100ms")
//	page=F           paging burn rate (default 14.4)
//	ticket=F         ticketing burn rate (default 6)
//
// The special clause body "off" exempts a route. "" and "none" yield an
// inactive profile. Examples:
//
//	availability=0.99,latency=100ms
//	availability=99.9%;/v1/healthz:off;/v1/license:availability=0.999
func Parse(spec string) (Profile, error) {
	switch strings.TrimSpace(spec) {
	case "", "none":
		return Profile{}, nil
	}
	var p Profile
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		route := ""
		body := clause
		if strings.HasPrefix(clause, "/") {
			i := strings.Index(clause, ":")
			if i < 0 {
				return Profile{}, fmt.Errorf("slo: route clause %q missing ':'", clause)
			}
			route, body = clause[:i], clause[i+1:]
		}
		var o Objective
		if strings.TrimSpace(body) != "off" {
			var err error
			o, err = parseClause(body)
			if err != nil {
				return Profile{}, err
			}
		} else if route == "" {
			return Profile{}, fmt.Errorf("slo: \"off\" needs a route prefix")
		}
		if route == "" {
			p.Default = o
		} else {
			if p.Routes == nil {
				p.Routes = make(map[string]Objective)
			}
			p.Routes[route] = o
		}
	}
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// parseClause parses one clause's k=v pairs into an Objective.
func parseClause(body string) (Objective, error) {
	var o Objective
	for _, kv := range strings.Split(body, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Objective{}, fmt.Errorf("slo: malformed pair %q (want key=value)", kv)
		}
		switch k {
		case "availability":
			frac, err := parseAvailability(v)
			if err != nil {
				return Objective{}, err
			}
			o.Availability = frac
		case "latency":
			d, err := time.ParseDuration(v)
			if err != nil {
				return Objective{}, fmt.Errorf("slo: bad latency %q", v)
			}
			o.Latency = d
		case "page", "ticket":
			burn, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return Objective{}, fmt.Errorf("slo: bad %s burn %q", k, v)
			}
			if k == "page" {
				o.PageBurn = burn
			} else {
				o.TicketBurn = burn
			}
		default:
			return Objective{}, fmt.Errorf("slo: unknown key %q", k)
		}
	}
	if !o.active() {
		return Objective{}, fmt.Errorf("slo: clause %q sets no availability target", body)
	}
	return o, nil
}

// parseAvailability accepts a fraction ("0.99") or percentage ("99.9%").
func parseAvailability(v string) (float64, error) {
	pct := strings.HasSuffix(v, "%")
	f, err := strconv.ParseFloat(strings.TrimSuffix(v, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("slo: bad availability %q", v)
	}
	if pct {
		f /= 100
	}
	if f <= 0 || f >= 1 {
		return 0, fmt.Errorf("slo: availability %q outside (0, 1)", v)
	}
	return f, nil
}
