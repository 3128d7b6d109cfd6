package serve

import (
	"bytes"
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/regime"
	"repro/internal/report"
	"repro/internal/safeguards"
	"repro/internal/units"
)

// Shared header values for the license hot path. http.Header is a plain
// map, so assigning these package-level slices directly writes a response
// header without allocating; the slices are never mutated.
var (
	headerJSON      = []string{"application/json"}
	headerCacheHit  = []string{"hit"}
	headerCacheMiss = []string{"miss"}
)

// keySep separates the fields of a canonical decision cache key.
const keySep = 0x1f

// maxFieldBytes bounds a request's trimmed destination and end use.
const maxFieldBytes = 256

// fillArgs is a resolved license request: the canonicalized inputs a
// decision is a pure function of. It is passed by pointer through the
// cache-fill path instead of being captured in a closure, which is what
// keeps the warm path free of closure allocations.
type fillArgs struct {
	sysName string
	dest    string
	endUse  string
	rated   units.Mtops
	th      units.Mtops
}

// scratch is the pooled per-request workspace of the license endpoints:
// the parsed request, the fill arguments and canonical cache key of the
// decision being answered, and the body read/assembly buffer all live
// here, so a warm request borrows memory instead of allocating it. Byte
// capacities are retained across uses; pointer-bearing fields are
// cleared on return to the pool so a pooled scratch never pins request
// data.
type scratch struct {
	req  LicenseRequest
	pb   licensePostBody
	args fillArgs
	key  []byte
	buf  []byte
}

var scratchPool = sync.Pool{New: func() interface{} { return &scratch{} }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	sc.req = LicenseRequest{}
	sc.pb = licensePostBody{}
	sc.args = fillArgs{}
	scratchPool.Put(sc)
}

// tierSkeleton is one row of the precomputed decision table: the
// wire-ready strings of a country tier's outcome, safeguard package, and
// rationale, derived once at init from safeguards.Rule so a cache fill
// renders a tier's strings by table lookup instead of re-deriving them.
// tail is the encoded end of every at-or-above-threshold decision of the
// tier, from `,"outcome":` through the closing brace and newline: the
// bytes a cached decision of the tier shares instead of copying. The
// safeguards and tail slices are shared by every decision in the tier
// and are immutable by the same contract that makes cached decisions
// immutable.
type tierSkeleton struct {
	tier       string
	outcome    string
	safeguards []string
	rationale  string
	tail       []byte
}

var tierSkeletons = buildTierSkeletons()

func buildTierSkeletons() [safeguards.Restricted + 1]tierSkeleton {
	var out [safeguards.Restricted + 1]tierSkeleton
	for t := safeguards.SupplierState; t <= safeguards.Restricted; t++ {
		outcome, sgs, rationale := safeguards.Rule(t)
		row := tierSkeleton{tier: t.String(), outcome: outcome.String(), rationale: rationale}
		for _, sg := range sgs {
			row.safeguards = append(row.safeguards, sg.String())
		}
		row.tail = encodeTierTail(&row)
		out[t] = row
	}
	return out
}

// encodeTierTail encodes a template decision of the row's tier with the
// encoder every cache fill uses and returns a copy of its bytes from
// `,"outcome":` on, the part the tier alone fixes when the rated CTP is
// at or above the threshold. No field before it can hold that mark:
// inside a JSON string every quote is escaped. A nil tail leaves every
// decision of the tier a whole body.
func encodeTierTail(row *tierSkeleton) []byte {
	js := jsonPool.Get().(*jsonScratch)
	defer jsonPool.Put(js)
	body, err := js.encode(&LicenseResponse{
		Destination: "template", Tier: row.tier, CTPMtops: 1, ThresholdMtops: 1,
		Outcome: row.outcome, Safeguards: row.safeguards, Rationale: row.rationale,
	})
	if err != nil {
		return nil
	}
	i := bytes.Index(body, []byte(`,"outcome":`))
	if i < 0 {
		return nil
	}
	return bytes.Clone(body[i:])
}

// tierTail returns the shared tail of the tier named tier, or nil.
func tierTail(tier string) []byte {
	for i := range tierSkeletons {
		if tierSkeletons[i].tier == tier {
			return tierSkeletons[i].tail
		}
	}
	return nil
}

// resolveLicense canonicalizes one request into fill arguments through
// the package's catalog index.
func (s *Server) resolveLicense(req *LicenseRequest, a *fillArgs) *statusError {
	return resolveLicenseArgs(systemIndex(), req, a)
}

// resolveLicenseArgs canonicalizes one request into fill arguments:
// system lookup or explicit CTP, the threshold in force at the request's
// date, and the trimmed/lowercased destination. A destination or end use
// holding the key separator byte is refused, checked last. The error
// messages and their order are part of the API's observable behavior and
// match the original serial path exactly. It is the shared core of the
// server's resolution and the exported ResolveDecisionKey hook the
// gateway keys its routing on.
func resolveLicenseArgs(byName map[string]catalog.System, req *LicenseRequest, a *fillArgs) *statusError {
	a.sysName = ""
	switch {
	case req.System != "" && req.CTP != 0:
		return httpErr(http.StatusBadRequest, "give a system name or a ctp rating, not both")
	case req.System != "":
		sys, ok := lookupSystemIn(byName, req.System)
		if !ok {
			return httpErr(http.StatusNotFound, "unknown system %q", req.System)
		}
		a.rated, a.sysName = sys.CTP, sys.Name
	case req.CTP != 0:
		a.rated = units.Mtops(req.CTP)
	default:
		return httpErr(http.StatusBadRequest, "missing system name or ctp rating")
	}

	a.th = units.Mtops(req.Threshold)
	if a.th == 0 {
		date := req.Date
		if date == 0 {
			date = report.StudyDate
		}
		inForce, ok := regime.ThresholdInForce(date)
		if !ok {
			return httpErr(http.StatusUnprocessableEntity,
				"no control threshold in force at %.2f; give one explicitly", date)
		}
		a.th = inForce
	}

	a.dest = strings.ToLower(strings.TrimSpace(req.Destination))
	a.endUse = strings.TrimSpace(req.EndUse)
	// The decision key joins its fields with keySep, so a field holding
	// that byte would let two different requests share one key.
	if strings.IndexByte(a.dest, keySep) >= 0 {
		return httpErr(http.StatusBadRequest, "destination contains the reserved byte 0x1f")
	}
	if strings.IndexByte(a.endUse, keySep) >= 0 {
		return httpErr(http.StatusBadRequest, "endUse contains the reserved byte 0x1f")
	}
	// Both fields are kept in the decision key, the cached body, every
	// WAL record and the flight recorder, so their length is bounded.
	if len(a.dest) > maxFieldBytes {
		return httpErr(http.StatusBadRequest, "destination longer than %d bytes", maxFieldBytes)
	}
	if len(a.endUse) > maxFieldBytes {
		return httpErr(http.StatusBadRequest, "endUse longer than %d bytes", maxFieldBytes)
	}
	return nil
}

// lookupSystemIn resolves a catalog system by exact name through the
// index, falling back to catalog.Lookup's substring scan for partial
// names. The index and the scan's exact-match phase agree by
// construction, so this only short-circuits, never reroutes.
func lookupSystemIn(byName map[string]catalog.System, name string) (catalog.System, bool) {
	if sys, ok := byName[name]; ok {
		return sys, true
	}
	return catalog.Lookup(name)
}

// appendDecisionKey renders the canonical decision cache key
// (system, rated CTP, destination, end use, threshold) into dst.
func appendDecisionKey(dst []byte, a *fillArgs) []byte {
	dst = append(dst, a.sysName...)
	dst = append(dst, keySep)
	dst = appendCanonicalFloat(dst, float64(a.rated))
	dst = append(dst, keySep)
	dst = append(dst, a.dest...)
	dst = append(dst, keySep)
	dst = append(dst, a.endUse...)
	dst = append(dst, keySep)
	dst = appendCanonicalFloat(dst, float64(a.th))
	return dst
}

// buildDecision evaluates one resolved request against the safeguards
// regime and shapes the wire response, sharing the tier's precomputed
// outcome strings and safeguard slice from the decision table.
func buildDecision(a *fillArgs) (*LicenseResponse, *statusError) {
	dec, err := safeguards.Evaluate(safeguards.License{
		Destination: a.dest, CTP: a.rated, EndUse: a.endUse,
	}, a.th)
	if err != nil {
		return nil, httpErr(http.StatusBadRequest, "%v", err)
	}
	resp := &LicenseResponse{
		System:         a.sysName,
		Destination:    a.dest,
		EndUse:         a.endUse,
		CTPMtops:       float64(a.rated),
		ThresholdMtops: float64(a.th),
		Outcome:        dec.Outcome.String(),
		Rationale:      dec.Rationale,
	}
	if int(dec.Tier) >= 0 && int(dec.Tier) < len(tierSkeletons) {
		row := &tierSkeletons[dec.Tier]
		resp.Tier = row.tier
		if len(dec.Safeguards) > 0 {
			resp.Safeguards = row.safeguards
		}
	} else {
		resp.Tier = dec.Tier.String()
		for _, sg := range dec.Safeguards {
			resp.Safeguards = append(resp.Safeguards, sg.String())
		}
	}
	return resp, nil
}

// encodeCached renders a response to its cached wire form with
// WriteJSON's pooled encoder: the exact bytes WriteJSON would produce
// (json.Marshal's plus the trailing newline), the preformatted
// Content-Length value and the hash of the whole body. A body that ends
// with its tier's tail keeps a copy of its head only and shares the
// tail; any other body keeps one whole copy. It runs once per cache
// fill; every hit replays these bytes without encoding anything.
func encodeCached(resp *LicenseResponse) (*cachedDecision, error) {
	js := jsonPool.Get().(*jsonScratch)
	defer jsonPool.Put(js)
	body, err := js.encode(resp)
	if err != nil {
		return nil, err
	}
	tail := tierTail(resp.Tier)
	if !bytes.HasSuffix(body, tail) {
		tail = nil
	}
	return &cachedDecision{
		head: bytes.Clone(body[:len(body)-len(tail)]),
		tail: tail,
		clen: []string{strconv.Itoa(len(body))},
		hash: bodyHash(body),
	}, nil
}

// evalDecision computes and encodes one decision without touching the
// cache; the degraded (poisoned-cache) path uses it directly.
func (s *Server) evalDecision(ctx context.Context, a *fillArgs) (*cachedDecision, *statusError) {
	eval := obs.Child(ctx, "safeguards.evaluate")
	resp, herr := buildDecision(a)
	eval.End()
	if herr != nil {
		return nil, herr
	}
	d, err := encodeCached(resp)
	if err != nil {
		return nil, httpErr(http.StatusInternalServerError, "response encoding failed")
	}
	return d, nil
}

// errTimedOut answers a request whose wait on another's computation
// outlived its deadline.
var errTimedOut = httpErr(http.StatusServiceUnavailable, "request timed out")

// flightDo runs the fill for key through the singleflight group: the
// first arrival leads and computes, later arrivals share its result.
// coalesced reports whether this caller waited on another's computation.
// A waiter stops waiting when ctx ends and gets errTimedOut; the leader
// computes to completion whatever its deadline.
func (s *Server) flightDo(ctx context.Context, key []byte, a *fillArgs) (dec *cachedDecision, coalesced bool, err error) {
	dec, coalesced, err = s.flights.Do(ctx, key, func(skey string) (*cachedDecision, error) {
		s.met.flightLead()
		return s.fillDecision(ctx, skey, a)
	})
	if coalesced && err != nil && err == ctx.Err() {
		err = errTimedOut
	}
	return dec, coalesced, err
}

// fillDecision is the coalescing leader's computation: evaluate, encode,
// and publish to the LRU. The Put happens before flightDo removes the
// in-flight call, so any request arriving after the fill completes finds
// the cache warm — there is no window where neither the flight map nor
// the cache answers. With a log mounted, walCommit appends the decision
// and only then Puts it, so the audit record precedes every answer. This
// sits on the cold path only — warm hits never reach fillDecision — so
// the log's latency prices cache fills, not the zero-alloc hot path.
func (s *Server) fillDecision(ctx context.Context, skey string, a *fillArgs) (*cachedDecision, error) {
	if s.flightBarrier != nil {
		s.flightBarrier(skey)
	}
	d, herr := s.evalDecision(ctx, a)
	if herr != nil {
		return nil, herr
	}
	if s.wal == nil {
		s.decisions.Put(skey, d)
	} else {
		s.walCommit(ctx, skey, a, d)
	}
	return d, nil
}
