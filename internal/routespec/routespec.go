// Package routespec is the one grammar of hpcexportd's per-route
// operator policies, the fault profile (internal/fault) and the SLO
// profile (internal/slo). Both have the paper's rule shape: a default
// that holds everywhere, with exceptions for named routes, as one control
// threshold holds unless a destination tier has its own. A policy package
// supplies its rule type and the parser of one clause body, its keys and
// their checks; the clause structure, validation and the canonical
// rendering live here.
//
// A spec is clauses joined by ';'. Blank clauses are skipped, and the
// specs "" and "none" give the empty profile. A clause starting with '/'
// is ROUTE:BODY and overrides that route, the route trimmed of spaces;
// any other clause sets the default. The body "off" gives its route the
// zero rule, which exempts the route from the default; "off" is refused
// without a route. A route given twice, or two default clauses, is
// refused.
package routespec

import (
	"fmt"
	"sort"
	"strings"
)

// Rule is what one clause means to a policy package. Its zero value is
// the inactive, valid rule that "off" stands for.
type Rule interface {
	// Active reports whether the rule does anything on its route.
	Active() bool
	// Validate checks the rule's values; its errors carry the policy
	// package's prefix.
	Validate() error
	// Spec renders an active rule as its canonical clause body.
	Spec() string
}

// Profile is a policy for a whole service: a default rule for every
// route, plus per-route overrides. An inactive override exempts its
// route from the default.
type Profile[R Rule] struct {
	Default R
	Routes  map[string]R // per-route overrides; may be nil
}

// For returns the rule governing one route.
func (p Profile[R]) For(route string) R {
	if r, ok := p.Routes[route]; ok {
		return r
	}
	return p.Default
}

// Active reports whether any rule of the profile is active.
func (p Profile[R]) Active() bool {
	if p.Default.Active() {
		return true
	}
	for _, r := range p.Routes {
		if r.Active() {
			return true
		}
	}
	return false
}

// Validate checks the default, then each override in route order; an
// override's error names its route.
func (p Profile[R]) Validate() error {
	if err := p.Default.Validate(); err != nil {
		return err
	}
	for _, route := range p.sortedRoutes() {
		if err := p.Routes[route].Validate(); err != nil {
			return fmt.Errorf("%w (route %s)", err, route)
		}
	}
	return nil
}

// String renders the profile as a canonical spec that Parse reads back
// to the same profile: the active default, then the overrides in route
// order, an inactive one as "ROUTE:off". A profile with neither renders
// as "none".
func (p Profile[R]) String() string {
	var clauses []string
	if p.Default.Active() {
		clauses = append(clauses, p.Default.Spec())
	}
	for _, route := range p.sortedRoutes() {
		if r := p.Routes[route]; r.Active() {
			clauses = append(clauses, route+":"+r.Spec())
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
func (p Profile[R]) sortedRoutes() []string {
	out := make([]string, 0, len(p.Routes))
	for r := range p.Routes {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Parse builds a profile from a spec, reading each clause body other
// than "off" with clause, and validates it. name is the policy package's
// error prefix ("fault", "slo"), which the grammar's own errors carry
// like clause's and Validate's.
func Parse[R Rule](name, spec string, clause func(body string) (R, error)) (Profile[R], error) {
	var p Profile[R]
	switch strings.TrimSpace(spec) {
	case "", "none":
		return p, nil
	}
	haveDefault := false
	for _, c := range strings.Split(spec, ";") {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		route, body := "", c
		if strings.HasPrefix(c, "/") {
			var ok bool
			if route, body, ok = strings.Cut(c, ":"); !ok {
				return Profile[R]{}, fmt.Errorf("%s: route clause %q missing ':'", name, c)
			}
			route = strings.TrimSpace(route)
		}
		var r R
		if strings.TrimSpace(body) == "off" {
			if route == "" {
				return Profile[R]{}, fmt.Errorf("%s: \"off\" needs a route prefix", name)
			}
		} else {
			var err error
			if r, err = clause(body); err != nil {
				return Profile[R]{}, err
			}
		}
		if route == "" {
			if haveDefault {
				return Profile[R]{}, fmt.Errorf("%s: two default clauses", name)
			}
			p.Default, haveDefault = r, true
			continue
		}
		if _, dup := p.Routes[route]; dup {
			return Profile[R]{}, fmt.Errorf("%s: route %s given twice", name, route)
		}
		if p.Routes == nil {
			p.Routes = make(map[string]R)
		}
		p.Routes[route] = r
	}
	if err := p.Validate(); err != nil {
		return Profile[R]{}, err
	}
	return p, nil
}
