package slo

import (
	"fmt"
	"sync"
	"time"
)

// Severity states, ordered: a route signal is ok, warn (ticket-worthy
// burn), or page (wake-someone burn).
const (
	StateOK   = "ok"
	StateWarn = "warn"
	StatePage = "page"
)

// Signal names: availability judges server errors, latency judges
// requests slower than the objective.
const (
	SignalAvailability = "availability"
	SignalLatency      = "latency"
)

// Totals is a monotone snapshot of one route's request counters: how
// many requests completed, how many were server errors, and how many
// were slower than the latency objective. The engine only ever
// subtracts two Totals of the same route, so any monotone source works.
type Totals struct {
	Total  uint64
	Errors uint64
	Slow   uint64
}

// Source reads a route's live Totals. Called at evaluation time only.
type Source func() Totals

// Window is one burn-rate lookback.
type Window struct {
	Name string
	D    time.Duration
}

// Windows is the fixed multi-window ladder, shortest first. The page
// condition requires the short AND medium window to burn, the warn
// condition the medium AND long — short-window spikes alone never page,
// and a long-window slow leak alone never does either.
var Windows = [3]Window{
	{Name: "5m", D: 5 * time.Minute},
	{Name: "1h", D: time.Hour},
	{Name: "6h", D: 6 * time.Hour},
}

// WindowBurn is one window's burn rate for one signal.
type WindowBurn struct {
	Window string  `json:"window"`
	Total  uint64  `json:"total"`  // requests in the window
	Bad    uint64  `json:"bad"`    // budget-consuming requests in the window
	Burn   float64 `json:"burn"`   // badFraction / (1 - objective)
	Budget float64 `json:"budget"` // fraction of the window's budget left, may be negative
}

// SignalEval is one signal's verdict across all windows.
type SignalEval struct {
	Signal  string       `json:"signal"`
	State   string       `json:"state"` // ok | warn | page
	Windows []WindowBurn `json:"windows"`
}

// RouteEval is one route's verdict.
type RouteEval struct {
	Route     string       `json:"route"`
	Objective string       `json:"objective"` // canonical clause text
	Signals   []SignalEval `json:"signals"`
}

// Evaluation is one full engine pass, ordered by route then signal —
// slices only, so encoding it is map-order-free.
type Evaluation struct {
	At     time.Time   `json:"at"`
	Routes []RouteEval `json:"routes"`
}

// Transition is one state change observed during an evaluation.
type Transition struct {
	Route  string
	Signal string
	From   string
	To     string
}

// sample is one recorded point of a route's Totals history.
type sample struct {
	t time.Time
	v Totals
}

// routeState is the engine's per-route bookkeeping.
type routeState struct {
	route   string
	obj     Objective
	src     Source
	samples []sample          // ring, oldest first
	head    int               // index of the oldest sample
	n       int               // live samples
	state   map[string]string // signal -> last state
}

// sampleEvery is the minimum spacing between retained history samples.
// Evaluations closer together than this reuse the last sample rather
// than growing history, so a route's ring holds the 6h window in
// 6h/15s + 2 samples however often it is scraped.
const sampleEvery = 15 * time.Second

// Engine evaluates burn rates for a set of routes. It is passive: no
// goroutines, no internal clock — every evaluation happens at the
// caller-supplied instant (typically read-at-scrape), and between
// evaluations it remembers just enough Totals history to price the
// longest window. Safe for concurrent use.
type Engine struct {
	// onTransition, when set, is called after an evaluation for each
	// state change, outside the engine lock, in route-then-signal order.
	onTransition func(Transition)

	mu     sync.Mutex
	routes []*routeState // sorted by route name
	last   Evaluation    // most recent evaluation, for gauge reads
}

// New returns an engine with an optional transition callback.
func New(onTransition func(Transition)) *Engine {
	return &Engine{onTransition: onTransition}
}

// Add registers a route with its objective and counter source. Routes
// must be added before the first Eval; an inactive objective or nil
// source is ignored. Add keeps routes sorted by name so evaluation
// order never depends on registration order.
func (e *Engine) Add(route string, obj Objective, src Source) {
	if e == nil || !obj.Active() || src == nil {
		return
	}
	cap6h := int(Windows[len(Windows)-1].D/sampleEvery) + 2
	rs := &routeState{
		route:   route,
		obj:     obj,
		src:     src,
		samples: make([]sample, cap6h),
		state: map[string]string{
			SignalAvailability: StateOK,
			SignalLatency:      StateOK,
		},
	}
	e.mu.Lock()
	i := 0
	for i < len(e.routes) && e.routes[i].route < route {
		i++
	}
	e.routes = append(e.routes, nil)
	copy(e.routes[i+1:], e.routes[i:])
	e.routes[i] = rs
	e.mu.Unlock()
}

// record retains a history point if the spacing rule allows; a repeat
// evaluation at the same instant replaces the newest point.
func (rs *routeState) record(now time.Time, v Totals) {
	if rs.n > 0 {
		newest := &rs.samples[(rs.head+rs.n-1)%len(rs.samples)]
		if now.Equal(newest.t) {
			newest.v = v
			return
		}
		if now.Before(newest.t.Add(sampleEvery)) {
			return
		}
	}
	if rs.n == len(rs.samples) {
		rs.samples[rs.head] = sample{t: now, v: v}
		rs.head = (rs.head + 1) % len(rs.samples)
		return
	}
	rs.samples[(rs.head+rs.n)%len(rs.samples)] = sample{t: now, v: v}
	rs.n++
}

// baseline returns the Totals at the start of a window ending now: the
// newest retained sample at least w old, or zero Totals (process start)
// when history does not reach back that far. The zero fallback makes a
// cold engine under a fixed fake clock judge the full process history —
// deterministic, and the right answer for a service younger than its
// windows.
func (rs *routeState) baseline(now time.Time, w time.Duration) Totals {
	cut := now.Add(-w)
	var base Totals
	for i := 0; i < rs.n; i++ {
		s := rs.samples[(rs.head+i)%len(rs.samples)]
		if s.t.After(cut) {
			break
		}
		base = s.v
	}
	return base
}

// burn prices one window: the fraction of requests that were bad,
// divided by the budgeted bad fraction. An empty window burns 0.
func burn(cur, base Totals, bad func(Totals) uint64, objective float64) WindowBurn {
	total := cur.Total - base.Total
	b := bad(cur) - bad(base)
	wb := WindowBurn{Total: total, Bad: b, Budget: 1}
	if total == 0 {
		return wb
	}
	budgetFrac := 1 - objective
	badFrac := float64(b) / float64(total)
	wb.Burn = badFrac / budgetFrac
	wb.Budget = 1 - wb.Burn
	return wb
}

// Eval runs one evaluation at the given instant: reads every route's
// live Totals, updates history, prices every window, classifies each
// signal, and fires the transition callback for any state changes. The
// returned Evaluation is also cached for the gauge accessors.
func (e *Engine) Eval(now time.Time) Evaluation {
	if e == nil {
		return Evaluation{At: now}
	}
	e.mu.Lock()
	ev := Evaluation{At: now, Routes: make([]RouteEval, 0, len(e.routes))}
	var trans []Transition
	for _, rs := range e.routes {
		cur := rs.src()
		rs.record(now, cur)
		re := RouteEval{Route: rs.route, Objective: rs.obj.Spec()}
		signals := []struct {
			name string
			bad  func(Totals) uint64
		}{
			{SignalAvailability, func(t Totals) uint64 { return t.Errors }},
		}
		if rs.obj.Latency > 0 {
			signals = append(signals, struct {
				name string
				bad  func(Totals) uint64
			}{SignalLatency, func(t Totals) uint64 { return t.Slow }})
		}
		for _, sig := range signals {
			se := SignalEval{Signal: sig.name, Windows: make([]WindowBurn, 0, len(Windows))}
			for _, w := range Windows {
				wb := burn(cur, rs.baseline(now, w.D), sig.bad, rs.obj.Availability)
				wb.Window = w.Name
				se.Windows = append(se.Windows, wb)
			}
			se.State = classify(se.Windows, rs.obj)
			if prev := rs.state[sig.name]; prev != se.State {
				trans = append(trans, Transition{Route: rs.route, Signal: sig.name, From: prev, To: se.State})
				rs.state[sig.name] = se.State
			}
			re.Signals = append(re.Signals, se)
		}
		ev.Routes = append(ev.Routes, re)
	}
	e.last = ev
	cb := e.onTransition
	e.mu.Unlock()
	if cb != nil {
		for _, t := range trans {
			cb(t)
		}
	}
	return ev
}

// classify applies the multi-window rule: page when both the short and
// medium windows burn past the page threshold, warn when both the
// medium and long windows burn past the ticket threshold.
func classify(ws []WindowBurn, obj Objective) string {
	if ws[0].Burn >= obj.pageBurn() && ws[1].Burn >= obj.pageBurn() {
		return StatePage
	}
	if ws[1].Burn >= obj.ticketBurn() && ws[2].Burn >= obj.ticketBurn() {
		return StateWarn
	}
	return StateOK
}

// LastBurn returns the cached burn rate for (route, signal, window), 0
// when absent — the read the exposition gauges use, so rendering never
// re-evaluates.
func (e *Engine) LastBurn(route, signal, window string) float64 {
	if se := e.lastSignal(route, signal); se != nil {
		for _, w := range se.Windows {
			if w.Window == window {
				return w.Burn
			}
		}
	}
	return 0
}

// LastBudget returns the cached remaining-budget fraction for the
// shortest window of (route, signal); 1 when absent.
func (e *Engine) LastBudget(route, signal string) float64 {
	if se := e.lastSignal(route, signal); se != nil && len(se.Windows) > 0 {
		return se.Windows[0].Budget
	}
	return 1
}

// LastState returns the cached severity for (route, signal) as a number
// the exposition can carry: 0 ok, 1 warn, 2 page.
func (e *Engine) LastState(route, signal string) float64 {
	switch se := e.lastSignal(route, signal); {
	case se == nil:
		return 0
	case se.State == StatePage:
		return 2
	case se.State == StateWarn:
		return 1
	default:
		return 0
	}
}

// lastSignal finds one signal's cached evaluation.
func (e *Engine) lastSignal(route, signal string) *SignalEval {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.last.Routes {
		if e.last.Routes[i].Route != route {
			continue
		}
		for j := range e.last.Routes[i].Signals {
			if e.last.Routes[i].Signals[j].Signal == signal {
				return &e.last.Routes[i].Signals[j]
			}
		}
	}
	return nil
}

// Routes returns the judged route names in evaluation order, with each
// route's objective — what the serve layer needs to register gauges.
func (e *Engine) Routes() []RouteEval {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]RouteEval, 0, len(e.routes))
	for _, rs := range e.routes {
		re := RouteEval{Route: rs.route, Objective: rs.obj.Spec()}
		re.Signals = append(re.Signals, SignalEval{Signal: SignalAvailability})
		if rs.obj.Latency > 0 {
			re.Signals = append(re.Signals, SignalEval{Signal: SignalLatency})
		}
		out = append(out, re)
	}
	return out
}

// String renders a transition the one canonical way, for event streams
// and pin triggers.
func (t Transition) String() string {
	return fmt.Sprintf("%s %s %s->%s", t.Route, t.Signal, t.From, t.To)
}
