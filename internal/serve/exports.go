package serve

// Exported request-shape hooks for the routing gateway (internal/gateway).
//
// The gateway routes by the same canonical decision key the LRU,
// singleflight group, and WAL use, so a key's owner shard is stable and
// every layer of the system agrees on identity. These hooks expose just
// enough of the server's parsing and resolution machinery to compute
// that key outside a Server instance — the logic is shared with the
// request path, not duplicated, so the two can never drift. The
// listen-and-drain loop and the retryable-status rule are shared the
// same way, with the gateway and the client respectively.

import (
	"context"
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/catalog"
)

// ServeHandler serves h on ln until ctx is cancelled, then drains:
// beforeDrain runs when non-nil, the listener closes, in-flight requests
// get up to drain to complete, and stragglers are cut off. It returns nil
// on a clean drain. Server.Serve and the gateway's Serve both run it.
func ServeHandler(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration, beforeDrain func()) error {
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if beforeDrain != nil {
		beforeDrain()
	}
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		closeErr := hs.Close()
		<-errc
		if closeErr != nil {
			return closeErr
		}
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// RetryableStatus reports whether a status code is safe to retry on an
// idempotent request: a transient server-side condition (429 or a 5xx
// overload status), not a client error. The client's retry policy and
// the gateway's forwarding loop both follow it.
func RetryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// sysIndex indexes the catalog by exact system name, short-circuiting
// the linear scan for the common named-system request. It is built once
// on first use and shared by every Server and by ResolveDecisionKey.
var (
	sysIndexOnce sync.Once
	sysIndex     map[string]catalog.System
)

func systemIndex() map[string]catalog.System {
	sysIndexOnce.Do(func() {
		all := catalog.All()
		sysIndex = make(map[string]catalog.System, len(all))
		for _, sys := range all {
			sysIndex[sys.Name] = sys
		}
	})
	return sysIndex
}

// ResolveDecisionKey appends the canonical decision cache key for req to
// dst and reports whether the request resolved. A request that fails
// resolution (unknown system, missing fields, no threshold in force) has
// no canonical key; the caller should forward it unrouted so the backend
// produces the canonical error text.
func ResolveDecisionKey(dst []byte, req *LicenseRequest) ([]byte, bool) {
	var a fillArgs
	if herr := resolveLicenseArgs(systemIndex(), req, &a); herr != nil {
		return dst, false
	}
	return appendDecisionKey(dst, &a), true
}

// DecodeLicenseQuery parses a /v1/license GET query string into a
// request, using the same parser as the server. ok is false for queries
// the server would reject.
func DecodeLicenseQuery(rawQuery string) (LicenseRequest, bool) {
	var req LicenseRequest
	if herr := parseLicenseQuery(rawQuery, &req); herr != nil {
		return LicenseRequest{}, false
	}
	return req, true
}

// DecodeLicenseBody parses a /v1/license POST body with the server's
// decoder and acceptance rules. It returns either the single request or
// the batch slice (isBatch true). ok is false for bodies the server
// would reject — malformed JSON, trailing data, or a body that sets both
// the single and batch forms.
func DecodeLicenseBody(body []byte) (single LicenseRequest, batch []LicenseRequest, isBatch, ok bool) {
	var pb licensePostBody
	if decodeLicensePostBody(body, &pb) != nil {
		return LicenseRequest{}, nil, false, false
	}
	if pb.Requests != nil {
		if pb.LicenseRequest != (LicenseRequest{}) {
			return LicenseRequest{}, nil, false, false
		}
		return LicenseRequest{}, pb.Requests, true, true
	}
	return pb.LicenseRequest, nil, false, true
}

// maxRequestIDBytes bounds an inbound X-Request-Id: every record in the
// flight recorder keeps its request's ID, so a longer one is treated as
// absent rather than kept.
const maxRequestIDBytes = 128

// RequestID returns the X-Request-Id value slice a request is answered
// and recorded under: the inbound header's first value when it is
// non-empty and at most maxRequestIDBytes long — shared, not copied, as
// nothing writes into a header's slices — and otherwise prefix followed
// by seq in decimal. The server mints bare numbers and the gateway
// prefixed ones, so an ID the gateway mints and forwards never names a
// request a backend numbered itself, such as a health probe.
func RequestID(inbound http.Header, prefix string, seq uint64) []string {
	if v := inbound["X-Request-Id"]; len(v) > 0 && v[0] != "" && len(v[0]) <= maxRequestIDBytes {
		return v[:1]
	}
	return []string{prefix + strconv.FormatUint(seq, 10)}
}
