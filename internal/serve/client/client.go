// Package client is the Go client for the hpcexportd query service
// (internal/serve): typed wrappers over the /v1 endpoints that speak the
// same request and response structures the server defines, so a CLI or a
// downstream program gets license decisions, dataset queries, and
// framework snapshots without touching HTTP details.
//
// The client is resilient by default. Every call runs under a bounded
// retry loop with full-jitter exponential backoff and a per-attempt
// timeout; a consecutive-failure circuit breaker fails fast while a
// backend is down and sends a single half-open probe after the cooldown.
// Retries respect idempotency: GETs and the canonical-keyed license POSTs
// (pure functions of their request, by the server's cache contract)
// replay safely; any other mutation-shaped request is never retried.
//
// Everything that makes retries time-dependent is injectable — the clock,
// the sleeper, and the jitter source — so the soak tests run the whole
// schedule in microseconds, and the default jitter stream is seeded, so
// even retry timing is reproducible run over run.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/serve"
)

// maxResponseBytes caps how much of a response body the client reads.
const maxResponseBytes = 16 << 20

// Defaults applied by NewWithOptions for zero Options fields.
const (
	DefaultMaxAttempts       = 4
	DefaultBaseBackoff       = 50 * time.Millisecond
	DefaultMaxBackoff        = 2 * time.Second
	DefaultPerAttemptTimeout = 10 * time.Second
	DefaultBreakerThreshold  = 8
	DefaultBreakerCooldown   = 5 * time.Second

	// DefaultHTTPTimeout bounds a whole exchange on the default HTTP
	// client, and DefaultDialTimeout bounds connection establishment —
	// the fix for the old http.DefaultClient fallback, which had no
	// timeout at all and hung forever on a stalled server.
	DefaultHTTPTimeout = 30 * time.Second
	DefaultDialTimeout = 5 * time.Second
)

// ErrCircuitOpen is returned (wrapped) while the circuit breaker is open
// or a half-open probe is already in flight.
var ErrCircuitOpen = errors.New("client: circuit breaker open")

// Options configures a Client's transport and resilience policy. The zero
// value gives the documented defaults.
type Options struct {
	// HTTPClient overrides the default transport (sane dial/overall
	// timeouts). Nil means the package default.
	HTTPClient *http.Client

	// MaxAttempts is the total attempt budget per call, first try
	// included. 0 means DefaultMaxAttempts; 1 disables retries.
	MaxAttempts int

	// BaseBackoff and MaxBackoff shape the full-jitter schedule: attempt
	// n waits uniform[0, min(MaxBackoff, BaseBackoff·2^(n−1))).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// PerAttemptTimeout bounds each individual attempt; 0 means the
	// default, negative disables the per-attempt deadline.
	PerAttemptTimeout time.Duration

	// BreakerThreshold is how many consecutive retryable failures open
	// the breaker. 0 means the default; negative disables the breaker.
	BreakerThreshold int

	// BreakerCooldown is how long an open breaker fails fast before
	// admitting a single half-open probe.
	BreakerCooldown time.Duration

	// Clock supplies the breaker's notion of time. Nil means the wall
	// clock; tests inject a fake so cooldowns elapse instantly.
	Clock func() time.Time

	// Sleep performs backoff pauses. Nil means a real timer that also
	// honors context cancellation; tests inject a fake that advances
	// their clock instead of waiting.
	Sleep func(time.Duration)

	// Jitter supplies uniform [0,1) draws for the backoff schedule. Nil
	// means a deterministic seeded stream (JitterSeed).
	Jitter func() float64

	// JitterSeed seeds the default jitter stream when Jitter is nil.
	JitterSeed uint64

	// Registry, when non-nil, gets the client's retry/breaker instruments
	// registered into it (client_attempts_total, client_retries_total,
	// client_failures_total, client_breaker_opens_total,
	// client_breaker_fastfails_total, client_breaker_state).
	Registry *obs.Registry
}

// defaultHTTPClient is the shared fallback transport: overall and dial
// timeouts so a stalled or unreachable server fails the attempt instead
// of hanging the caller forever.
var defaultHTTPClient = &http.Client{
	Timeout: DefaultHTTPTimeout,
	Transport: &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   DefaultDialTimeout,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout:   DefaultDialTimeout,
		ResponseHeaderTimeout: 15 * time.Second,
		IdleConnTimeout:       90 * time.Second,
		MaxIdleConnsPerHost:   32,
	},
}

// breaker states.
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

// Client talks to one hpcexportd instance. It is safe for concurrent use;
// the breaker and jitter stream are shared across goroutines.
type Client struct {
	base string
	http *http.Client

	maxAttempts int
	baseBackoff time.Duration
	maxBackoff  time.Duration
	perAttempt  time.Duration
	clock       func() time.Time
	sleep       func(time.Duration) // nil: timer-based pause

	brThreshold int // <= 0 disables the breaker
	brCooldown  time.Duration

	mu         sync.Mutex // guards jitter and breaker state
	jitter     func() float64
	brState    int
	brFailures int
	brOpenedAt time.Time
	brProbe    bool // a half-open probe is in flight

	attempts     obs.Counter
	retries      obs.Counter
	failures     obs.Counter
	breakerOpens obs.Counter
	fastFails    obs.Counter
}

// New returns a client for the service at base (e.g.
// "http://localhost:8095") with the default resilience policy. The
// optional httpClient overrides the default transport, for callers that
// need timeouts or transports of their own.
func New(base string, httpClient *http.Client) (*Client, error) {
	return NewWithOptions(base, Options{HTTPClient: httpClient})
}

// NewWithOptions returns a client with an explicit resilience policy.
func NewWithOptions(base string, opts Options) (*Client, error) {
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: bad base URL %q", base)
	}
	if opts.MaxAttempts < 0 {
		return nil, fmt.Errorf("client: negative MaxAttempts %d", opts.MaxAttempts)
	}
	c := &Client{
		base:        strings.TrimRight(base, "/"),
		http:        opts.HTTPClient,
		maxAttempts: opts.MaxAttempts,
		baseBackoff: opts.BaseBackoff,
		maxBackoff:  opts.MaxBackoff,
		perAttempt:  opts.PerAttemptTimeout,
		clock:       opts.Clock,
		sleep:       opts.Sleep,
		brThreshold: opts.BreakerThreshold,
		brCooldown:  opts.BreakerCooldown,
		jitter:      opts.Jitter,
	}
	if c.http == nil {
		c.http = defaultHTTPClient
	}
	if c.maxAttempts == 0 {
		c.maxAttempts = DefaultMaxAttempts
	}
	if c.baseBackoff <= 0 {
		c.baseBackoff = DefaultBaseBackoff
	}
	if c.maxBackoff <= 0 {
		c.maxBackoff = DefaultMaxBackoff
	}
	if c.perAttempt == 0 {
		c.perAttempt = DefaultPerAttemptTimeout
	}
	if c.clock == nil {
		//hpcvet:allow detrand the breaker's documented default is the wall clock; deterministic callers inject Options.Clock
		c.clock = time.Now
	}
	if c.brThreshold == 0 {
		c.brThreshold = DefaultBreakerThreshold
	}
	if c.brCooldown <= 0 {
		c.brCooldown = DefaultBreakerCooldown
	}
	if c.jitter == nil {
		c.jitter = fault.Stream(opts.JitterSeed)
	}
	if opts.Registry != nil {
		registerMetrics(opts.Registry, c)
	}
	return c, nil
}

// registerMetrics exposes the client's counters as read-at-scrape metrics.
func registerMetrics(reg *obs.Registry, c *Client) {
	reg.Func("client_attempts_total", "HTTP attempts issued, retries included", obs.KindCounter,
		func() float64 { return float64(c.attempts.Value()) })
	reg.Func("client_retries_total", "attempts beyond the first, per call", obs.KindCounter,
		func() float64 { return float64(c.retries.Value()) })
	reg.Func("client_failures_total", "retryable attempt failures (transport errors and 5xx/429)", obs.KindCounter,
		func() float64 { return float64(c.failures.Value()) })
	reg.Func("client_breaker_opens_total", "times the circuit breaker opened", obs.KindCounter,
		func() float64 { return float64(c.breakerOpens.Value()) })
	reg.Func("client_breaker_fastfails_total", "calls rejected while the breaker was open", obs.KindCounter,
		func() float64 { return float64(c.fastFails.Value()) })
	reg.Func("client_breaker_state", "0 closed, 1 open, 2 half-open", obs.KindGauge,
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.brState) })
}

// RetryStats is a point-in-time accounting of the client's resilience
// machinery.
type RetryStats struct {
	Attempts         uint64 `json:"attempts"`
	Retries          uint64 `json:"retries"`
	Failures         uint64 `json:"failures"`
	BreakerOpens     uint64 `json:"breakerOpens"`
	BreakerFastFails uint64 `json:"breakerFastFails"`
	BreakerState     string `json:"breakerState"`
}

// RetryStats returns the client's cumulative retry and breaker counters.
func (c *Client) RetryStats() RetryStats {
	c.mu.Lock()
	state := c.brState
	c.mu.Unlock()
	names := [...]string{brClosed: "closed", brOpen: "open", brHalfOpen: "half-open"}
	return RetryStats{
		Attempts:         c.attempts.Value(),
		Retries:          c.retries.Value(),
		Failures:         c.failures.Value(),
		BreakerOpens:     c.breakerOpens.Value(),
		BreakerFastFails: c.fastFails.Value(),
		BreakerState:     names[state],
	}
}

// backoff returns the full-jitter pause before the given retry attempt
// (attempt ≥ 1): uniform in [0, min(MaxBackoff, BaseBackoff·2^(attempt−1))).
func (c *Client) backoff(attempt int) time.Duration {
	cap := c.baseBackoff << uint(attempt-1)
	if cap > c.maxBackoff || cap <= 0 { // <= 0: the shift overflowed
		cap = c.maxBackoff
	}
	c.mu.Lock()
	u := c.jitter()
	c.mu.Unlock()
	return time.Duration(u * float64(cap))
}

// pause waits d before the next attempt, honoring ctx cancellation. An
// injected sleeper is trusted to advance the test clock instead.
func (c *Client) pause(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		c.sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// breakerAllow admits or rejects an attempt. An open breaker rejects
// until the cooldown elapses, then flips half-open and admits exactly one
// probe; further calls are rejected until the probe reports back. probe
// is true only for the attempt that owns the half-open verdict — the
// caller must hand the same flag back to breakerResult, so a stale
// response from an attempt admitted before the breaker opened can never
// resolve (or un-arm) a probe it does not own.
func (c *Client) breakerAllow() (probe bool, err error) {
	if c.brThreshold <= 0 {
		return false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.brState {
	case brClosed:
		return false, nil
	case brOpen:
		if c.clock().Sub(c.brOpenedAt) < c.brCooldown {
			c.fastFails.Inc()
			return false, fmt.Errorf("%w: cooling down", ErrCircuitOpen)
		}
		c.brState = brHalfOpen
		c.brProbe = true
		return true, nil
	default: // half-open
		if c.brProbe {
			c.fastFails.Inc()
			return false, fmt.Errorf("%w: probe in flight", ErrCircuitOpen)
		}
		c.brProbe = true
		return true, nil
	}
}

// breakerResult records an attempt's outcome. Only the probe's result
// resolves a half-open breaker: probe success closes it, probe failure
// reopens it. A non-probe success resets the consecutive-failure count
// but leaves the state machine alone — before the ownership flag, a
// queued retry's late success racing the probe would close the breaker
// and clear the probe latch, double-counting one healthy response and
// letting a second "probe" through. Threshold consecutive non-probe
// failures open a closed breaker.
func (c *Client) breakerResult(ok, probe bool) {
	if c.brThreshold <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if probe {
		c.brProbe = false
		if ok {
			c.brState = brClosed
			c.brFailures = 0
			return
		}
		c.brState = brOpen
		c.brOpenedAt = c.clock()
		c.breakerOpens.Inc()
		return
	}
	if ok {
		c.brFailures = 0
		return
	}
	c.brFailures++
	if c.brState == brClosed && c.brFailures >= c.brThreshold {
		c.brState = brOpen
		c.brOpenedAt = c.clock()
		c.breakerOpens.Inc()
	}
}

// roundTrip runs one logical API call under the retry policy and returns
// the successful response body. Only idempotent calls retry; a breaker
// rejection, a non-retryable status, or context cancellation ends the
// loop early. The last attempt's error is always returned wrapped, so
// errors.As still surfaces *APIError after exhaustion.
func (c *Client) roundTrip(ctx context.Context, method, u, contentType string, body []byte, idempotent bool) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
			if err := c.pause(ctx, c.backoff(attempt)); err != nil {
				return nil, fmt.Errorf("client: retry cancelled: %w", err)
			}
		}
		probe, err := c.breakerAllow()
		if err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last error: %w)", err, lastErr)
			}
			return nil, err
		}
		respBody, retryable, err := c.attempt(ctx, method, u, contentType, body)
		if err == nil {
			c.breakerResult(true, probe)
			return respBody, nil
		}
		// A non-retryable status (4xx) is a healthy server declining the
		// request: it resets the breaker rather than charging it.
		c.breakerResult(!retryable, probe)
		if retryable {
			c.failures.Inc()
		}
		lastErr = err
		if !retryable || !idempotent || ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("client: %d attempts failed: %w", c.maxAttempts, lastErr)
}

// attempt performs one HTTP exchange under the per-attempt deadline. A
// non-2xx answer becomes a *APIError; retryable classifies the failure
// (transport errors and transient statuses retry, client errors do not).
func (c *Client) attempt(ctx context.Context, method, u, contentType string, body []byte) (respBody []byte, retryable bool, err error) {
	c.attempts.Inc()
	actx := ctx
	if c.perAttempt > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.perAttempt)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, u, rd)
	if err != nil {
		return nil, false, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, true, err
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, true, fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		apiErr := &APIError{Status: resp.StatusCode}
		var e serve.ErrorResponse
		if err := json.Unmarshal(b, &e); err == nil && e.Error != "" {
			apiErr.Message = e.Error
		} else {
			apiErr.Message = strings.TrimSpace(string(b))
		}
		return nil, serve.RetryableStatus(resp.StatusCode), apiErr
	}
	return b, false, nil
}

// get issues a GET (idempotent: always retryable) and decodes the JSON
// answer into out.
func (c *Client) get(ctx context.Context, path string, query url.Values, out interface{}) error {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	body, err := c.roundTrip(ctx, http.MethodGet, u, "", nil, true)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// post issues a POST with a JSON body and decodes the answer into out.
// idempotent marks requests that are pure functions of their body (the
// canonical-keyed license decisions); only those replay on failure.
func (c *Client) post(ctx context.Context, path string, body, out interface{}, idempotent bool) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	respBody, err := c.roundTrip(ctx, http.MethodPost, c.base+path, "application/json", buf, idempotent)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(respBody, out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// APIError is a non-2xx answer from the service.
type APIError struct {
	Status  int
	Message string
}

// Error renders the status and the service's message.
func (e *APIError) Error() string {
	return fmt.Sprintf("hpcexportd: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// License asks for one license decision. Decisions are canonically keyed
// on the server — replaying the POST cannot double-apply anything — so
// the request retries like a GET.
func (c *Client) License(ctx context.Context, req serve.LicenseRequest) (*serve.LicenseResponse, error) {
	var out serve.LicenseResponse
	if err := c.post(ctx, "/v1/license", req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// LicenseBatch asks for a batch of license decisions, answered in request
// order. Batches are idempotent for the same reason single decisions are.
func (c *Client) LicenseBatch(ctx context.Context, reqs []serve.LicenseRequest) ([]serve.BatchItem, error) {
	var out serve.BatchResponse
	if err := c.post(ctx, "/v1/license", serve.BatchRequest{Requests: reqs}, &out, true); err != nil {
		return nil, err
	}
	return out.Decisions, nil
}

// Catalog queries the system catalog.
func (c *Client) Catalog(ctx context.Context, q serve.CatalogQuery) (*serve.CatalogResponse, error) {
	var out serve.CatalogResponse
	if err := c.get(ctx, "/v1/catalog", q.Values(), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Apps queries the application-requirements dataset.
func (c *Client) Apps(ctx context.Context, q serve.AppsQuery) (*serve.AppsResponse, error) {
	var out serve.AppsResponse
	if err := c.get(ctx, "/v1/apps", q.Values(), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Threshold fetches the basic-premises snapshot at a date; date 0 means
// the study date. Set project for the frontier projection.
func (c *Client) Threshold(ctx context.Context, date float64, project bool) (*serve.ThresholdResponse, error) {
	v := url.Values{}
	if date != 0 {
		v.Set("date", strconv.FormatFloat(date, 'g', -1, 64))
	}
	if project {
		v.Set("project", "true")
	}
	var out serve.ThresholdResponse
	if err := c.get(ctx, "/v1/threshold", v, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz fetches the service's liveness, degradation state, and cache
// statistics.
func (c *Client) Healthz(ctx context.Context) (*serve.HealthResponse, error) {
	var out serve.HealthResponse
	if err := c.get(ctx, "/v1/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the service's metric registry as a JSON snapshot.
func (c *Client) Metrics(ctx context.Context) (*obs.Snapshot, error) {
	var out obs.Snapshot
	if err := c.get(ctx, "/v1/metrics", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MetricsText fetches the raw Prometheus text exposition from /metrics.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	body, err := c.roundTrip(ctx, http.MethodGet, c.base+"/metrics", "", nil, true)
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// SLO fetches the service's burn-rate evaluation: per-route, per-signal
// burn rates over the alerting windows, remaining error budget, and the
// page/ticket verdicts. Fails with a 404 when the daemon was started
// without an SLO profile.
func (c *Client) SLO(ctx context.Context) (*serve.SLOResponse, error) {
	var out serve.SLOResponse
	if err := c.get(ctx, "/v1/slo", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// FlightRec fetches the flight recorder's current contents: the rolling
// window of recent request captures plus the pinned anomaly groups that
// survived ring wrap. Fails with a 404 when the recorder is disabled.
func (c *Client) FlightRec(ctx context.Context) (*serve.FlightRecResponse, error) {
	var out serve.FlightRecResponse
	if err := c.get(ctx, "/v1/flightrec", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Traces fetches the service's recent request traces, newest first.
func (c *Client) Traces(ctx context.Context) (*serve.TracesResponse, error) {
	var out serve.TracesResponse
	if err := c.get(ctx, "/v1/traces", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WatchEvent is one decoded /v1/watch event: a threshold-regime
// transition or an injected fault/degraded notice.
type WatchEvent = serve.WatchEvent

// maxWatchLineBytes bounds one SSE line; events are small JSON objects,
// so anything near this is a protocol violation, not a big event.
const maxWatchLineBytes = 1 << 20

// ErrWatchStopped is the sentinel a Watch callback returns to end the
// stream cleanly: Watch unsubscribes and returns nil.
var ErrWatchStopped = errors.New("client: watch stopped by callback")

// streamClient derives a transport for long-lived streams from the
// configured HTTP client: same connection behavior, but without the
// overall exchange timeout, which would sever a healthy watch stream the
// moment it outlived DefaultHTTPTimeout. Lifetime is governed by the
// caller's context instead.
func (c *Client) streamClient() *http.Client {
	return &http.Client{
		Transport:     c.http.Transport,
		CheckRedirect: c.http.CheckRedirect,
		Jar:           c.http.Jar,
	}
}

// Watch subscribes to the server's /v1/watch commit stream and invokes
// fn for every event, in order, until the context is cancelled, the
// server drains (graceful shutdown ends the stream; Watch returns nil),
// or fn returns an error. since > 0 asks the server to replay its
// ring-buffered backlog of events with Seq > since first, so a
// reconnecting watcher resumes from its last-seen cursor.
//
// Watch is a single long-lived exchange: it does not retry (a resumption
// policy belongs to the caller, who owns the cursor) and bypasses the
// breaker (a healthy stream held open for hours must not be mistaken for
// an outcome worth accounting). A callback error other than
// ErrWatchStopped is returned as-is; ErrWatchStopped maps to nil.
func (c *Client) Watch(ctx context.Context, since uint64, fn func(WatchEvent) error) error {
	u := c.base + "/v1/watch"
	if since > 0 {
		u += "?since=" + strconv.FormatUint(since, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.streamClient().Do(req)
	if err != nil {
		return fmt.Errorf("client: watch connect: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
		apiErr := &APIError{Status: resp.StatusCode}
		var e serve.ErrorResponse
		if jerr := json.Unmarshal(b, &e); jerr == nil && e.Error != "" {
			apiErr.Message = e.Error
		} else {
			apiErr.Message = strings.TrimSpace(string(b))
		}
		return apiErr
	}
	err = readWatchStream(resp.Body, fn)
	switch {
	case errors.Is(err, ErrWatchStopped):
		return nil
	case errors.Is(err, errWatchStream) && ctx.Err() != nil:
		return ctx.Err()
	}
	return err
}

// errWatchStream marks a failure reading the stream itself, as opposed
// to an undecodable event or a callback error.
var errWatchStream = errors.New("client: watch stream")

// readWatchStream calls fn with each event of the SSE stream r, in
// order: each "data: " line decoded as one WatchEvent; id:, event:,
// comment and blank lines are skipped. The first undecodable line or
// callback error (returned as-is) ends the read.
func readWatchStream(r io.Reader, fn func(WatchEvent) error) error {
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 0, 4096), maxWatchLineBytes)
	for scan.Scan() {
		data, ok := bytes.CutPrefix(scan.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var ev WatchEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("client: decoding watch event: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	if err := scan.Err(); err != nil {
		return fmt.Errorf("%w: %w", errWatchStream, err)
	}
	return nil
}

// WatchResume subscribes like Watch but owns the resumption policy:
// whenever the stream ends without the callback stopping it — a server
// drain, a restart, a severed connection — it reconnects and resumes
// from the sequence number of the last event it delivered, passed as the
// ?since cursor, so the server's backlog replay hands back exactly the
// events this watcher has not seen. Resuming from the cursor (never from
// zero) is what makes a watcher restart-transparent: no event is
// re-delivered and none is skipped, as long as the outage stays inside
// the server's backlog ring.
//
// Reconnects that deliver no events count against the client's attempt
// budget with jittered backoff between them; any delivered event resets
// the budget. A server that refuses the stream outright (an APIError,
// e.g. no decision log mounted) fails immediately — retrying cannot
// help. As with Watch, fn returning ErrWatchStopped ends the stream and
// returns nil; any other callback error is returned as-is.
func (c *Client) WatchResume(ctx context.Context, since uint64, fn func(WatchEvent) error) error {
	cursor := since
	idle := 0
	for {
		delivered := false
		var fnErr error
		err := c.Watch(ctx, cursor, func(ev WatchEvent) error {
			if ev.Seq > cursor {
				cursor = ev.Seq
			}
			delivered = true
			if err := fn(ev); err != nil {
				fnErr = err
				return err
			}
			return nil
		})
		if fnErr != nil {
			if errors.Is(fnErr, ErrWatchStopped) {
				return nil
			}
			return fnErr
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			return err
		}
		if delivered {
			idle = 0
		} else {
			idle++
			if idle >= c.maxAttempts {
				if err != nil {
					return fmt.Errorf("client: watch resume: %d idle reconnects: %w", idle, err)
				}
				return fmt.Errorf("client: watch resume: %d consecutive connections delivered nothing", idle)
			}
		}
		attempt := idle
		if attempt < 1 {
			attempt = 1
		}
		if perr := c.pause(ctx, c.backoff(attempt)); perr != nil {
			return perr
		}
	}
}

// GetJSON performs one GET against an arbitrary path on the configured
// base URL and decodes the JSON answer into out, through the client's
// full retry/breaker machinery. It exists for endpoints the typed
// methods do not cover — a gateway's aggregated /v1/healthz, say —
// without hand-rolling a second HTTP client.
func (c *Client) GetJSON(ctx context.Context, path string, query url.Values, out interface{}) error {
	return c.get(ctx, path, query, out)
}
