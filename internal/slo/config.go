// Package slo is the burn-rate SLO engine: multi-window error-budget
// burn rates over availability and latency objectives, evaluated
// read-at-scrape from the obs instruments the serve layer already
// maintains. The engine holds no goroutines and no clock of its own —
// every evaluation happens at an injected instant, so the same traffic
// under the same fake clock yields the same verdicts on every run.
package slo

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/routespec"
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

// Active reports whether the objective judges anything.
func (o Objective) Active() bool { return o.Availability > 0 }

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

// Validate rejects objectives the burn-rate formula cannot price.
func (o Objective) Validate() error {
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

// Spec renders the objective as its canonical clause text.
func (o Objective) Spec() string {
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
// objective applied to every judged route, plus per-route overrides, in
// the grammar internal/routespec defines. An override with a zero
// objective, such as "ROUTE:off", exempts that route.
type Profile = routespec.Profile[Objective]

// Parse builds a Profile from a spec string in the routespec grammar, the
// fault profile's: clauses joined by ';', each a comma-separated list of
// k=v pairs, optionally prefixed "ROUTE:" (the route starting with '/')
// to override one route instead of setting the default. Keys:
//
//	availability=F   target good fraction, as a fraction ("0.99") or
//	                 percentage ("99.9%")
//	latency=D        latency objective as a Go duration ("100ms")
//	page=F           paging burn rate (default 14.4)
//	ticket=F         ticketing burn rate (default 6)
//
// Every clause but "ROUTE:off", which exempts a route, sets an
// availability target. "" and "none" yield an inactive profile. Examples:
//
//	availability=0.99,latency=100ms
//	availability=99.9%;/v1/healthz:off;/v1/license:availability=0.999
func Parse(spec string) (Profile, error) {
	return routespec.Parse("slo", spec, parseClause)
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
	if !o.Active() {
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
