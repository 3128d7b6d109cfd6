package slo

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSource is a hand-cranked Totals source.
type fakeSource struct {
	mu sync.Mutex
	v  Totals
}

func (f *fakeSource) add(total, errors, slow uint64) {
	f.mu.Lock()
	f.v.Total += total
	f.v.Errors += errors
	f.v.Slow += slow
	f.mu.Unlock()
}

func (f *fakeSource) read() Totals {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.v
}

var t0 = time.Unix(800000000, 0) // same epoch the serve tests pin

func TestEngineColdBurnAndPage(t *testing.T) {
	src := &fakeSource{}
	var trans []Transition
	e := New(func(tr Transition) { trans = append(trans, tr) })
	e.Add("/v1/license", Objective{Availability: 0.99}, src.read)

	// All good: every window burns 0, state ok, no transitions.
	src.add(100, 0, 0)
	ev := e.Eval(t0)
	if got := ev.Routes[0].Signals[0].State; got != StateOK {
		t.Fatalf("healthy state = %q, want ok", got)
	}
	if len(trans) != 0 {
		t.Fatalf("healthy traffic produced transitions: %+v", trans)
	}

	// 30% errors against a 1% budget burns 30x — page on a cold engine,
	// where every window falls back to the process-start baseline.
	src.add(100, 60, 0)
	ev = e.Eval(t0)
	av := ev.Routes[0].Signals[0]
	if av.State != StatePage {
		t.Fatalf("burning state = %q, want page (windows %+v)", av.State, av.Windows)
	}
	wantBurn := (60.0 / 200.0) / 0.01 // 30x; the 1-0.99 subtraction is inexact
	for _, w := range av.Windows {
		if math.Abs(w.Burn-wantBurn) > 1e-9 {
			t.Errorf("window %s burn = %g, want ~%g", w.Window, w.Burn, wantBurn)
		}
		if math.Abs(w.Budget-(1-wantBurn)) > 1e-9 {
			t.Errorf("window %s budget = %g, want ~%g", w.Window, w.Budget, 1-wantBurn)
		}
	}
	if len(trans) != 1 || trans[0] != (Transition{Route: "/v1/license", Signal: SignalAvailability, From: StateOK, To: StatePage}) {
		t.Fatalf("transitions = %+v, want one ok->page", trans)
	}
	if got := trans[0].String(); got != "/v1/license availability ok->page" {
		t.Errorf("Transition.String() = %q", got)
	}
}

func TestEngineDeterministicRunToRun(t *testing.T) {
	// The acceptance criterion: same traffic + same fake clock = same
	// verdicts, byte-for-byte, run to run.
	run := func() []byte {
		src := &fakeSource{}
		e := New(nil)
		e.Add("/v1/license", Objective{Availability: 0.99, Latency: 100 * time.Millisecond}, src.read)
		e.Add("/v1/catalog", Objective{Availability: 0.999}, src.read)
		now := t0
		var ev Evaluation
		for i := 0; i < 10; i++ {
			src.add(50, uint64(i%3), uint64(i%2))
			now = now.Add(20 * time.Second)
			ev = e.Eval(now)
		}
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("two identical runs disagree:\n%s\n%s", a, b)
	}
}

func TestEngineWindowBaselines(t *testing.T) {
	// History long enough that the windows diverge: errors only in the
	// recent past burn the short window but dilute across the long one.
	src := &fakeSource{}
	e := New(nil)
	e.Add("/v1/license", Objective{Availability: 0.99}, src.read)

	now := t0
	// Seven hours of clean traffic, sampled every minute.
	for i := 0; i < 7*60; i++ {
		src.add(100, 0, 0)
		e.Eval(now)
		now = now.Add(time.Minute)
	}
	// Then four minutes of pure errors.
	for i := 0; i < 4; i++ {
		src.add(100, 100, 0)
		e.Eval(now)
		now = now.Add(time.Minute)
	}
	ev := e.Eval(now)
	ws := ev.Routes[0].Signals[0].Windows
	if ws[0].Window != "5m" || ws[1].Window != "1h" || ws[2].Window != "6h" {
		t.Fatalf("window order = %+v", ws)
	}
	// 5m window: ~400 bad of ~400-500 total → burn far beyond page.
	if ws[0].Burn < DefaultPageBurn {
		t.Errorf("5m burn = %g, want >= %g", ws[0].Burn, DefaultPageBurn)
	}
	// 1h window: 400 bad of ~6000 total → ~6.7x burn: below page.
	if ws[1].Burn >= DefaultPageBurn {
		t.Errorf("1h burn = %g, want < %g (dilution)", ws[1].Burn, DefaultPageBurn)
	}
	// 6h window: 400 bad of ~36000 → ~1.1x: below ticket.
	if ws[2].Burn >= DefaultTicketBurn {
		t.Errorf("6h burn = %g, want < %g", ws[2].Burn, DefaultTicketBurn)
	}
	// Multi-window rule: short alone must not page, 1h+6h not warn.
	if got := ev.Routes[0].Signals[0].State; got != StateOK {
		t.Errorf("state = %q, want ok (short-window spike alone)", got)
	}
}

func TestEngineLatencySignal(t *testing.T) {
	src := &fakeSource{}
	e := New(nil)
	e.Add("/v1/license", Objective{Availability: 0.99, Latency: 100 * time.Millisecond}, src.read)
	src.add(100, 0, 50) // half the requests over the latency objective
	ev := e.Eval(t0)
	sigs := ev.Routes[0].Signals
	if len(sigs) != 2 || sigs[0].Signal != SignalAvailability || sigs[1].Signal != SignalLatency {
		t.Fatalf("signals = %+v", sigs)
	}
	if sigs[0].State != StateOK {
		t.Errorf("availability = %q, want ok", sigs[0].State)
	}
	if sigs[1].State != StatePage {
		t.Errorf("latency = %q, want page (50x burn)", sigs[1].State)
	}
}

func TestEngineRecovery(t *testing.T) {
	// After a page, clean traffic dilutes the short windows first (page
	// steps down to warn while the 1h/6h windows still carry the burst)
	// and then the long windows too (warn back to ok).
	src := &fakeSource{}
	var trans []Transition
	e := New(func(tr Transition) { trans = append(trans, tr) })
	e.Add("/v1/license", Objective{Availability: 0.99}, src.read)

	now := t0
	src.add(10, 10, 0) // 100% errors: 100x burn pages instantly
	e.Eval(now)
	if len(trans) != 1 || trans[0].To != StatePage {
		t.Fatalf("expected an ok->page, got %+v", trans)
	}
	// Seven hours of clean traffic dilutes the burst out of every window.
	for i := 0; i < 7*60; i++ {
		now = now.Add(time.Minute)
		src.add(100, 0, 0)
		e.Eval(now)
	}
	want := []Transition{
		{Route: "/v1/license", Signal: SignalAvailability, From: StateOK, To: StatePage},
		{Route: "/v1/license", Signal: SignalAvailability, From: StatePage, To: StateWarn},
		{Route: "/v1/license", Signal: SignalAvailability, From: StateWarn, To: StateOK},
	}
	if !reflect.DeepEqual(trans, want) {
		t.Fatalf("transitions = %+v, want %+v", trans, want)
	}
}

func TestEngineGaugeAccessors(t *testing.T) {
	src := &fakeSource{}
	e := New(nil)
	e.Add("/v1/license", Objective{Availability: 0.99}, src.read)
	if got := e.LastBurn("/v1/license", SignalAvailability, "5m"); got != 0 {
		t.Errorf("pre-Eval LastBurn = %g, want 0", got)
	}
	if got := e.LastBudget("/v1/license", SignalAvailability); got != 1 {
		t.Errorf("pre-Eval LastBudget = %g, want 1", got)
	}
	src.add(100, 30, 0)
	e.Eval(t0)
	// 30% bad against a 1% budget: burn ≈ 30, budget ≈ -29 (the 1-0.99
	// subtraction is inexact, so compare with a tolerance).
	if got := e.LastBurn("/v1/license", SignalAvailability, "5m"); math.Abs(got-30) > 1e-9 {
		t.Errorf("LastBurn = %g, want ~30", got)
	}
	if got := e.LastBudget("/v1/license", SignalAvailability); math.Abs(got-(-29)) > 1e-9 {
		t.Errorf("LastBudget = %g, want ~-29", got)
	}
	if got := e.LastState("/v1/license", SignalAvailability); got != 2 {
		t.Errorf("LastState = %g, want 2 (page)", got)
	}
	if got := e.LastBurn("/v1/license", SignalLatency, "5m"); got != 0 {
		t.Errorf("unjudged signal LastBurn = %g, want 0", got)
	}
}

func TestEngineRoutesSortedAndObjectiveFor(t *testing.T) {
	e := New(nil)
	src := &fakeSource{}
	e.Add("/v1/threshold", Objective{Availability: 0.9}, src.read)
	e.Add("/v1/license", Objective{Availability: 0.99, Latency: time.Millisecond}, src.read)
	e.Add("/v1/catalog", Objective{Availability: 0.95}, src.read)
	e.Add("/v1/apps", Objective{}, src.read) // inactive: not judged
	var got []string
	for _, r := range e.Routes() {
		got = append(got, r.Route+" "+r.Objective)
	}
	want := []string{
		"/v1/catalog availability=0.95",
		"/v1/license availability=0.99,latency=1ms",
		"/v1/threshold availability=0.9",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Routes() = %q, want %q", got, want)
	}
}

func TestEngineHistoryRingBounded(t *testing.T) {
	// Far more evaluations than the ring holds: one every 15s for a full
	// day fills the 6h/15s + 2 ring four times over. The engine must keep
	// working and the 6h baseline must track the moving window.
	src := &fakeSource{}
	e := New(nil)
	e.Add("/v1/license", Objective{Availability: 0.99}, src.read)
	now := t0
	for i := 0; i < 24*60*4; i++ {
		src.add(10, 0, 0)
		e.Eval(now)
		now = now.Add(sampleEvery)
	}
	ev := e.Eval(now)
	ws := ev.Routes[0].Signals[0].Windows
	// The 6h window sees 6h of traffic, not the whole day: the adds after
	// the sample taken exactly 6h ago.
	if want := uint64(10 * (6*60*4 - 1)); ws[2].Total != want {
		t.Errorf("6h window total = %d, want %d", ws[2].Total, want)
	}
}

func TestEngineConcurrentEvalAndReads(t *testing.T) {
	var n atomic.Uint64
	e := New(func(Transition) {})
	e.Add("/v1/license", Objective{Availability: 0.99}, func() Totals {
		v := n.Add(7)
		return Totals{Total: v, Errors: v / 10}
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			now := t0
			for i := 0; i < 100; i++ {
				e.Eval(now)
				now = now.Add(time.Second)
				_ = e.LastBurn("/v1/license", SignalAvailability, "5m")
				_ = e.LastBudget("/v1/license", SignalAvailability)
				_ = e.LastState("/v1/license", SignalAvailability)
			}
		}(g)
	}
	wg.Wait()
}

func TestEngineNilSafe(t *testing.T) {
	var e *Engine
	e.Add("/x", Objective{Availability: 0.99}, func() Totals { return Totals{} })
	if ev := e.Eval(t0); len(ev.Routes) != 0 {
		t.Errorf("nil engine Eval = %+v", ev)
	}
	if r := e.Routes(); r != nil {
		t.Errorf("nil engine Routes = %+v", r)
	}
}
