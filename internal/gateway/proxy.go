package gateway

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"

	"repro/internal/obs"
	"repro/internal/serve"
)

// errNoBackends is returned when no member can accept a request at all.
var errNoBackends = errors.New("no routable backend")

// proxyResult is one backend answer, fully buffered: status, the
// backend's headers, the length it declared (-1 if none), the body
// bytes, and which backend produced it (as its URL and as the
// X-Gw-Backend value slice it shares with every other answer from that
// backend).
type proxyResult struct {
	status  int
	header  http.Header
	clen    int64
	body    []byte
	backend string
	via     []string
}

// forwardHeaders are the backend headers a proxied response keeps. The
// gateway adds X-Gw-Backend, and the middleware its own X-Request-Id.
var forwardHeaders = []string{"Content-Type", "X-Cache", "X-Degraded", "X-Fault-Injected"}

// writeProxyResult writes a backend answer. The forwarded headers keep
// the backend's own value slices, shared by every waiter on the answer;
// nothing writes into a response header's slices, only replaces them.
// Content-Length is the backend's own value when the body was read at
// the one length it declared, and len(body) otherwise: a HEAD answer or
// a body of unknown length.
func writeProxyResult(w http.ResponseWriter, res *proxyResult) {
	h := w.Header()
	for _, k := range forwardHeaders {
		if v := res.header[k]; len(v) > 0 {
			h[k] = v
		}
	}
	h["X-Gw-Backend"] = res.via
	if v := res.header["Content-Length"]; len(v) == 1 && res.clen == int64(len(res.body)) {
		h["Content-Length"] = v
	} else {
		h.Set("Content-Length", strconv.Itoa(len(res.body)))
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// headerJSON is the Content-Type of a forwarded request body.
var headerJSON = []string{"application/json"}

// forwardOnce performs one exchange with one backend under the request
// ID id, buffering the answer and charging the backend's instruments.
func (g *Gateway) forwardOnce(ctx context.Context, b *backend, method, uri string, body []byte, id []string) (*proxyResult, error) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.url+uri, rd)
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		req.Header["Content-Type"] = headerJSON
	}
	if len(id) > 0 {
		req.Header["X-Request-Id"] = id
	}
	b.requests.Inc()
	begin := g.clock()
	resp, err := g.client.Do(req)
	if err != nil {
		b.errors.Inc()
		return nil, err
	}
	data, rerr := readBackendBody(resp, method)
	_ = resp.Body.Close()
	b.latency.ObserveDuration(g.clock().Sub(begin))
	if rerr != nil {
		b.errors.Inc()
		return nil, rerr
	}
	if resp.StatusCode >= http.StatusInternalServerError {
		b.errors.Inc()
	}
	return &proxyResult{status: resp.StatusCode, header: resp.Header, clen: resp.ContentLength, body: data, backend: b.url, via: b.via}, nil
}

// readBackendBody reads a backend answer's body. A declared length is
// read into one buffer of that size: net/http ends the body there, so a
// short body is an error, and a declared length over serve.MaxBodyBytes
// takes the bounded read below instead of its allocation. A body of
// unknown length is read with a bound, because a member's answer is
// outside input. A HEAD answer declares a length but carries no body.
func readBackendBody(resp *http.Response, method string) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= serve.MaxBodyBytes && method != http.MethodHead {
		data := make([]byte, n)
		_, err := io.ReadFull(resp.Body, data)
		return data, err
	}
	return io.ReadAll(io.LimitReader(resp.Body, serve.MaxBodyBytes))
}

// ownerFor resolves a key's backend: the first healthy ring owner not in
// excluded. With no healthy candidate it falls back to the drained
// primary owner (fail static: a request to a sick backend beats no
// answer, and keeps key ownership stable for when the member recovers).
func (g *Gateway) ownerFor(key string, excluded map[string]bool) *backend {
	g.mu.RLock()
	defer g.mu.RUnlock()
	alive := func(m string) bool {
		if excluded[m] {
			return false
		}
		b := g.backends[m]
		return b != nil && b.healthy()
	}
	var buf [1]string
	owners := g.ring.owners(buf[:0], key, 1, alive)
	if len(owners) == 0 {
		owners = g.ring.owners(buf[:0], key, 1, func(m string) bool { return !excluded[m] })
		if len(owners) == 0 {
			return nil
		}
		g.noHealthy.Inc()
	}
	return g.backends[owners[0]]
}

// appendHealthyOwners appends up to n distinct healthy owners for key to
// dst — the primary and the hedge replica.
func (g *Gateway) appendHealthyOwners(dst []string, key string, n int) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.ring.owners(dst, key, n, func(m string) bool {
		b := g.backends[m]
		return b != nil && b.healthy()
	})
}

// forwardKeyed forwards one request to its key's owner with bounded
// retries. The two failure classes take different paths deliberately:
// a transport error means the backend is gone, so the key fails over to
// the next ring owner immediately; a retryable HTTP status means the
// backend is alive but refusing (injected fault, overload), so the SAME
// owner is retried after a pause — moving the key would hand a second
// backend a cold fill the first already owns. exclude pre-excludes one
// member (the hedge path excludes the primary).
func (g *Gateway) forwardKeyed(ctx context.Context, key, method, uri string, body []byte, id []string, exclude string) (*proxyResult, error) {
	var excluded map[string]bool
	if exclude != "" {
		excluded = map[string]bool{exclude: true}
	}
	var last *proxyResult
	var lastErr error
	for attempt := 0; attempt < g.cfg.Attempts; attempt++ {
		b := g.ownerFor(key, excluded)
		if b == nil {
			if lastErr == nil && last == nil {
				lastErr = errNoBackends
			}
			break
		}
		res, err := g.forwardOnce(ctx, b, method, uri, body, id)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			g.retries.Inc()
			if excluded == nil {
				excluded = make(map[string]bool)
			}
			excluded[b.url] = true
			continue
		}
		last, lastErr = res, nil
		if !serve.RetryableStatus(res.status) {
			return res, nil
		}
		if attempt < g.cfg.Attempts-1 {
			g.retries.Inc()
			g.sleep(retryBackoff)
		}
	}
	// Retries exhausted: a real backend answer (even a retryable status)
	// beats a synthetic one — the caller's own retry policy sees the
	// backend's canonical error body.
	if last != nil {
		return last, nil
	}
	return nil, lastErr
}

// ---- handlers ------------------------------------------------------------

// serveKeyed answers one canonical-keyed license request: singleflight
// first (a herd on one key costs one fetch), then a hedged fetch by the
// leader.
func (g *Gateway) serveKeyed(w http.ResponseWriter, r *http.Request, key []byte, method, uri string, body []byte) {
	obs.RecordFrom(r.Context()).SetKey(key)
	res, coalesced, err := g.flights.Do(r.Context(), key, func(key string) (*proxyResult, error) {
		if g.flightBarrier != nil {
			g.flightBarrier(key)
		}
		return g.hedgedFetch(r.Context(), key, method, uri, body, w.Header()["X-Request-Id"])
	})
	if coalesced {
		g.flightCoalesced.Inc()
	} else {
		g.flightLeader.Inc()
	}
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, "gateway: %v", err)
		return
	}
	writeProxyResult(w, res)
}

func (g *Gateway) handleLicenseGet(w http.ResponseWriter, r *http.Request) {
	if req, ok := serve.DecodeLicenseQuery(r.URL.RawQuery); ok {
		if key, ok := serve.ResolveDecisionKey(nil, &req); ok {
			g.serveKeyed(w, r, key, http.MethodGet, r.URL.RequestURI(), nil)
			return
		}
	}
	// The backend owns the canonical error text; forward unkeyed.
	g.proxy(w, r, "", nil)
}

func (g *Gateway) handleLicensePost(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxBodyBytes))
	if err != nil {
		serve.WriteError(w, http.StatusRequestEntityTooLarge, "request body too large or unreadable")
		return
	}
	single, batch, isBatch, ok := serve.DecodeLicenseBody(body)
	var key []byte
	switch {
	case !ok:
		// The backend owns the canonical error text; forward unkeyed.
	case !isBatch:
		if key, ok = serve.ResolveDecisionKey(nil, &single); ok {
			g.serveKeyed(w, r, key, http.MethodPost, "/v1/license", body)
			return
		}
	case len(batch) > 0:
		// A batch goes whole to its first item's owner, which renders
		// every item, and an over-limit rejection, as a single node does.
		key, _ = serve.ResolveDecisionKey(nil, &batch[0])
	}
	g.proxy(w, r, string(key), body)
}

// proxy forwards a request to its routing key's owner with
// forwardKeyed's retries and failover, and no singleflight or hedge.
// A request with no key routes by the hash of its URI — still
// deterministic, so repeated catalog/threshold reads warm one backend's
// memo instead of all of them.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	uri := r.URL.RequestURI()
	if key == "" {
		key = uri
	}
	res, err := g.forwardKeyed(r.Context(), key, r.Method, uri, body, w.Header()["X-Request-Id"], "")
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, "gateway: %v", err)
		return
	}
	writeProxyResult(w, res)
}

func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Body != nil {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxBodyBytes))
		if err != nil {
			serve.WriteError(w, http.StatusRequestEntityTooLarge, "request body too large or unreadable")
			return
		}
		body = b
	}
	g.proxy(w, r, "", body)
}

func (g *Gateway) handleWatch(w http.ResponseWriter, r *http.Request) {
	serve.WriteError(w, http.StatusNotImplemented,
		"the gateway does not merge event streams; connect to a backend's /v1/watch directly")
}
