package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Backend health states. A backend starts healthy (optimistically: the
// operator listed it) and is drained on the first probe that reports
// degraded/failing or fails outright; it rejoins only after RejoinAfter
// consecutive healthy probes, so a flapping backend stays out while a
// recovered one returns promptly.
const (
	stateDrained int32 = iota
	stateHealthy
)

// backend is one hpcexportd member: its routing state plus its slice of
// the gateway's instrument set. Instruments are registered by URL label;
// a member that leaves and rejoins resumes its own counters (the
// registry returns the existing instrument for a repeated registration).
type backend struct {
	url string
	via []string // the X-Gw-Backend value of its answers: []string{url}

	state  atomic.Int32
	consec atomic.Int32 // consecutive healthy probes while drained

	// lastStatus is the most recent probe verdict ("ok", "degraded",
	// "unreachable", "http 503", ...), for the aggregated healthz.
	lastStatus atomic.Value

	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
	drains   *obs.Counter
	rejoins  *obs.Counter
}

func (g *Gateway) newBackend(url string) *backend {
	b := &backend{url: url, via: []string{url}}
	b.state.Store(stateHealthy)
	b.lastStatus.Store("unprobed")
	l := obs.L("backend", url)
	b.requests = g.reg.Counter("gateway_backend_requests_total", "requests forwarded to this backend", l)
	b.errors = g.reg.Counter("gateway_backend_errors_total", "transport failures and 5xx answers from this backend", l)
	b.latency = g.reg.Histogram("gateway_backend_latency_ns", "backend exchange latency in nanoseconds", l)
	b.drains = g.reg.Counter("gateway_backend_drains_total", "times this backend was drained", l)
	b.rejoins = g.reg.Counter("gateway_backend_rejoins_total", "times this backend rejoined after draining", l)
	return b
}

// healthy reports whether new keys may route to b.
func (b *backend) healthy() bool { return b.state.Load() == stateHealthy }

func (b *backend) stateName() string {
	if b.healthy() {
		return "healthy"
	}
	return "drained"
}

// ---- membership ----------------------------------------------------------

// normalizeMembers canonicalizes a member list: trimmed, non-empty,
// trailing slash dropped, sorted, deduplicated.
func normalizeMembers(urls []string) []string {
	out := make([]string, 0, len(urls))
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u != "" {
			out = append(out, u)
		}
	}
	sort.Strings(out)
	uniq := out[:0]
	for i, u := range out {
		if i == 0 || u != out[i-1] {
			uniq = append(uniq, u)
		}
	}
	return uniq
}

// setMembers installs a new member set: existing backends keep their
// state and counters, new members join healthy, departed members leave
// (in-flight exchanges to them complete — nothing is cancelled). The
// ring is rebuilt only here, so health transitions never reshuffle key
// ownership.
func (g *Gateway) setMembers(urls []string) {
	norm := normalizeMembers(urls)
	g.mu.Lock()
	if stringsEqual(norm, g.members) {
		g.mu.Unlock()
		return
	}
	next := make(map[string]*backend, len(norm))
	for _, u := range norm {
		if b, ok := g.backends[u]; ok {
			next[u] = b
		} else {
			next[u] = g.newBackend(u)
		}
	}
	g.backends = next
	g.members = norm
	g.ring = buildRing(norm, g.cfg.VNodes)
	g.reloads.Inc()
	g.mu.Unlock()
	g.logger.Info("gateway membership", "members", strings.Join(norm, ","))
}

func stringsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// memberList returns the sorted member names.
func (g *Gateway) memberList() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.members
}

// backendList returns the backends in member order.
func (g *Gateway) backendList() []*backend {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*backend, 0, len(g.members))
	for _, m := range g.members {
		out = append(out, g.backends[m])
	}
	return out
}

// parseMembership parses the membership file format: one URL per line,
// blank lines and #-comment lines ignored.
func parseMembership(data []byte) []string {
	var urls []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		urls = append(urls, line)
	}
	return urls
}

// reloadMembership re-reads the membership file if its mtime moved. A
// missing, unreadable, or empty file keeps the current member set: the
// gateway fails static rather than draining the whole cluster on an
// operator slip.
func (g *Gateway) reloadMembership() {
	if g.cfg.MembershipFile == "" {
		return
	}
	fi, err := os.Stat(g.cfg.MembershipFile)
	if err != nil {
		return
	}
	g.mu.RLock()
	fresh := g.memberLoaded && !fi.ModTime().After(g.memberMtime)
	g.mu.RUnlock()
	if fresh {
		return
	}
	data, err := os.ReadFile(g.cfg.MembershipFile)
	if err != nil {
		return
	}
	urls := parseMembership(data)
	if len(urls) == 0 {
		return
	}
	g.mu.Lock()
	g.memberMtime = fi.ModTime()
	g.memberLoaded = true
	g.mu.Unlock()
	g.setMembers(urls)
}

// ---- probing -------------------------------------------------------------

// probeOnce probes every member's /v1/healthz in member order and
// applies drain/rejoin transitions. The prober calls it on its cadence;
// tests call it directly for deterministic stepping.
func (g *Gateway) probeOnce(ctx context.Context) {
	for _, b := range g.backendList() {
		g.probeBackend(ctx, b)
	}
}

func (g *Gateway) probeBackend(ctx context.Context, b *backend) {
	pctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
	defer cancel()
	healthy, status := g.probeExchange(pctx, b)
	b.lastStatus.Store(status)
	if !healthy {
		b.consec.Store(0)
		if b.state.CompareAndSwap(stateHealthy, stateDrained) {
			b.drains.Inc()
			g.logger.Warn("gateway drained backend", "backend", b.url, "status", status)
		}
		return
	}
	if b.healthy() {
		return
	}
	if b.consec.Add(1) >= int32(g.cfg.RejoinAfter) {
		if b.state.CompareAndSwap(stateDrained, stateHealthy) {
			b.rejoins.Inc()
			g.logger.Info("gateway rejoined backend", "backend", b.url)
		}
		b.consec.Store(0)
	}
}

// probeExchange performs one health probe and classifies the answer. A
// backend is healthy only when it answers 200 with status "ok"; a
// degraded self-report, a non-200, or a transport failure all drain.
func (g *Gateway) probeExchange(ctx context.Context, b *backend) (bool, string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/v1/healthz", nil)
	if err != nil {
		return false, "bad url"
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return false, "unreachable"
	}
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, serve.MaxBodyBytes))
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("http %d", resp.StatusCode)
	}
	if rerr != nil {
		return false, "unreadable"
	}
	var h serve.HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		return false, "unparseable"
	}
	return h.Status == "ok", h.Status
}

// ---- aggregated health ---------------------------------------------------

// BackendHealth is one member's entry in the gateway's /v1/healthz.
type BackendHealth struct {
	URL        string `json:"url"`
	State      string `json:"state"`
	LastStatus string `json:"lastStatus"`
	Requests   uint64 `json:"requests"`
	Errors     uint64 `json:"errors"`
	Drains     uint64 `json:"drains"`
	Rejoins    uint64 `json:"rejoins"`
}

// HealthResponse is the gateway's /v1/healthz answer: cluster status
// ("ok" all members healthy, "degraded" some drained, "failing" none
// healthy) plus per-member detail in member order.
type HealthResponse struct {
	Status          string          `json:"status"`
	UptimeSeconds   float64         `json:"uptimeSeconds"`
	Requests        uint64          `json:"requests"`
	Members         int             `json:"members"`
	Healthy         int             `json:"healthy"`
	Hedges          uint64          `json:"hedges"`
	HedgeMismatches uint64          `json:"hedgeMismatches"`
	Backends        []BackendHealth `json:"backends"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	list := g.backendList()
	resp := HealthResponse{
		UptimeSeconds:   g.clock().Sub(g.start).Seconds(),
		Requests:        g.requests.Load(),
		Members:         len(list),
		Hedges:          g.hedges.Value(),
		HedgeMismatches: g.hedgeMismatch.Value(),
		Backends:        make([]BackendHealth, 0, len(list)),
	}
	for _, b := range list {
		if b.healthy() {
			resp.Healthy++
		}
		status, _ := b.lastStatus.Load().(string)
		resp.Backends = append(resp.Backends, BackendHealth{
			URL:        b.url,
			State:      b.stateName(),
			LastStatus: status,
			Requests:   b.requests.Value(),
			Errors:     b.errors.Value(),
			Drains:     b.drains.Value(),
			Rejoins:    b.rejoins.Value(),
		})
	}
	switch {
	case resp.Healthy == len(list):
		resp.Status = "ok"
	case resp.Healthy > 0:
		resp.Status = "degraded"
	default:
		resp.Status = "failing"
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}
