package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Request spans share the
// X-Request-Id the caller sent; setup and component spans have none.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Round   int    `json:"round"`
	Name    string `json:"name"`
	Req     string `json:"req,omitempty"`
	Backend string `json:"backend,omitempty"` // host of the server that answered
	Start   int64  `json:"start_ns"`          // since the run's epoch
	End     int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. Handlers on the
// servers' goroutines and the caller all add to it.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and starts a fresh list.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = make([]span, 0, cap(out))
	return out
}

// handler times h's ServeHTTP for every /v1/license request.
func (r *recorder) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/license" {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		r.add(span{Name: name, Req: req.Header.Get("X-Request-Id"), Backend: req.Host,
			Start: r.since(start), End: r.since(end)})
	})
}

// tracedTransport times each /v1/license backend exchange the gateway
// makes through its Config.HTTPClient, from RoundTrip to body EOF.
type tracedTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/license" {
		return t.base.RoundTrip(req)
	}
	sp := span{Name: "gateway.exchange", Req: req.Header.Get("X-Request-Id"), Backend: req.URL.Host,
		Start: t.rec.since(time.Now())}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.End = t.rec.since(time.Now())
		t.rec.add(sp)
		return resp, err
	}
	resp.Body = &eofBody{ReadCloser: resp.Body, rec: t.rec, sp: sp}
	return resp, nil
}

// eofBody ends its exchange span when the body reaches EOF or closes.
type eofBody struct {
	io.ReadCloser
	rec  *recorder
	sp   span
	done bool
}

func (b *eofBody) finish() {
	if !b.done {
		b.done = true
		b.sp.End = b.rec.since(time.Now())
		b.rec.add(b.sp)
	}
}

func (b *eofBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *eofBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// ledger collects the per-request samples derived from stitched spans,
// in microseconds.
type ledger struct {
	requests      int
	handle        []float64 // serve.handle
	serveTrans    []float64 // caller or exchange span minus serve.handle
	gwSelf        []float64 // gateway.handle minus its exchanges' union
	gwTrans       []float64 // caller span minus gateway.handle
	exchange      []float64 // gateway.exchange
	exchanges     int
	unmatched     int // request spans that found no parent
	decode        []float64
	resolve       []float64
	evaluate      []float64
	walAppend     []float64
	componentRuns int
}

// stitch links one round's request spans into trees by request ID,
// numbers them from next, sets their parents, and adds the derived
// samples to l. It returns the spans in a stable order.
func stitch(spans []span, round, next int, l *ledger) []span {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for i := range spans {
		spans[i].ID, spans[i].Round, spans[i].Parent = next+i, round, -1
	}
	type tree struct {
		client, gw *span
		ex, handle []*span
	}
	byReq := make(map[string]*tree)
	for i := range spans {
		s := &spans[i]
		t := byReq[s.Req]
		if t == nil {
			t = &tree{}
			byReq[s.Req] = t
		}
		switch s.Name {
		case "loadgen.request":
			t.client = s
		case "gateway.handle":
			t.gw = s
		case "gateway.exchange":
			t.ex = append(t.ex, s)
		case "serve.handle":
			t.handle = append(t.handle, s)
		}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, t := range byReq {
		if t.client == nil {
			// Set-up traffic (the fill) carries its own IDs and is not
			// part of the measured stream.
			continue
		}
		l.requests++
		if t.gw != nil {
			t.gw.Parent = t.client.ID
			l.gwTrans = append(l.gwTrans, us(t.client.dur()-t.gw.dur()))
			l.gwSelf = append(l.gwSelf, us(t.gw.dur()-covered(t.gw, t.ex)))
			for _, e := range t.ex {
				e.Parent = t.gw.ID
				l.exchange = append(l.exchange, us(e.dur()))
			}
			l.exchanges += len(t.ex)
		}
		used := make([]bool, len(t.ex))
		for _, h := range t.handle {
			l.handle = append(l.handle, us(h.dur()))
			if t.gw == nil {
				h.Parent = t.client.ID
				l.serveTrans = append(l.serveTrans, us(t.client.dur()-h.dur()))
				continue
			}
			for i, e := range t.ex {
				if !used[i] && e.Backend == h.Backend {
					used[i] = true
					h.Parent = e.ID
					l.serveTrans = append(l.serveTrans, us(e.dur()-h.dur()))
					break
				}
			}
			if h.Parent < 0 {
				l.unmatched++
			}
		}
	}
	return spans
}

// covered is the length of the part of p's interval that the union of
// children covers, so overlapping hedged exchanges count once.
func covered(p *span, children []*span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	// Tens of megabytes left to background writeback would land in the
	// next run's measured phase; sync so the run that wrote them pays.
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
