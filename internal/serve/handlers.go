package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/threshold"
)

// jsonScratch is a pooled encode buffer for WriteJSON: the bytes.Buffer
// and the json.Encoder bound to it survive across requests, so the cold
// and non-license endpoints reuse encoder state instead of re-marshaling
// into fresh buffers.
type jsonScratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonPool = sync.Pool{New: func() interface{} {
	js := &jsonScratch{}
	js.enc = json.NewEncoder(&js.buf)
	return js
}}

// encode renders v as json.Marshal does, plus a trailing newline. The
// returned bytes live in the scratch buffer until its next use.
func (js *jsonScratch) encode(v interface{}) ([]byte, error) {
	js.buf.Reset()
	if err := js.enc.Encode(v); err != nil {
		return nil, err
	}
	return js.buf.Bytes(), nil
}

// WriteJSON encodes v and writes it with the given status. Encoding
// happens before the header goes out so an encoding failure can still
// become a 500 instead of a torn body, and the finished length goes out
// as Content-Length on every endpoint. The server and the gateway answer
// through these three writers.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	js := jsonPool.Get().(*jsonScratch)
	defer jsonPool.Put(js)
	b, err := js.encode(v)
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	WriteRawJSON(w, code, b)
}

// WriteRawJSON writes an already-encoded JSON body (trailing newline
// included) with the given status.
func WriteRawJSON(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h["Content-Type"] = headerJSON
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// WriteError writes a JSON error body with the given status.
func WriteError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	WriteJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// statusError carries an HTTP status alongside an error. Handlers build
// them with httpErr and unwrap them at the response boundary.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// httpErr wraps err with an HTTP status code.
func httpErr(code int, format string, args ...interface{}) *statusError {
	return &statusError{code: code, err: fmt.Errorf(format, args...)}
}

// statusOf extracts the HTTP status from an error, defaulting to 500.
func statusOf(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.code
	}
	return http.StatusInternalServerError
}

// ---- /v1/license ---------------------------------------------------------

// licensePostBody accepts either one inline request or a batch under
// "requests"; supplying both is rejected.
type licensePostBody struct {
	LicenseRequest
	Requests []LicenseRequest `json:"requests"`
}

// readBody reads the request body into the scratch buffer, enforcing
// MaxBodyBytes, without io.ReadAll's per-request growth allocations.
func readBody(sc *scratch, w http.ResponseWriter, r *http.Request) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	buf := sc.buf[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, 4096)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			sc.buf = buf
			if err == io.EOF {
				return buf, nil
			}
			return nil, err
		}
	}
}

func (s *Server) handleLicensePost(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	body, err := readBody(sc, w, r)
	if err != nil {
		WriteError(w, http.StatusRequestEntityTooLarge, "request body too large or unreadable")
		return
	}
	if err := decodeLicensePostBody(body, &sc.pb); err != nil {
		WriteError(w, http.StatusBadRequest, "malformed license request: %v", err)
		return
	}

	if sc.pb.Requests != nil {
		if sc.pb.LicenseRequest != (LicenseRequest{}) {
			WriteError(w, http.StatusBadRequest, "give a single request or a batch, not both")
			return
		}
		if len(sc.pb.Requests) > s.cfg.MaxBatch {
			WriteError(w, http.StatusRequestEntityTooLarge,
				"batch of %d exceeds the %d-request limit", len(sc.pb.Requests), s.cfg.MaxBatch)
			return
		}
		s.answerBatch(w, r, sc)
		return
	}

	s.answerLicense(w, r, &sc.pb.LicenseRequest, sc)
}

func (s *Server) handleLicenseGet(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	sc.req = LicenseRequest{}
	if herr := parseLicenseQuery(r.URL.RawQuery, &sc.req); herr != nil {
		WriteError(w, herr.code, "%v", herr.err)
		return
	}
	s.answerLicense(w, r, &sc.req, sc)
}

// writeDecision writes a cached decision's precomputed bytes with the
// given X-Cache state. Every header is assigned as a shared or
// precomputed slice, so a warm hit writes its response without a single
// heap allocation.
func writeDecision(w http.ResponseWriter, d *cachedDecision, cacheState []string) {
	h := w.Header()
	h["Content-Type"] = headerJSON
	h["X-Cache"] = cacheState
	h["Content-Length"] = d.clen
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(d.head)
	if len(d.tail) > 0 {
		_, _ = w.Write(d.tail)
	}
}

// answerLicense resolves and answers one decision, with an X-Cache
// header recording whether the LRU (or a coalesced in-flight fill)
// answered. The warm path — parse, resolve, key render, LRU hit, header
// and body writes — performs zero heap allocations; the benchmark suite
// pins that with testing.AllocsPerRun.
//
// A degraded request treats the cache as poisoned: no read (the entry
// cannot be trusted), no write (this computation must not displace good
// entries), and no coalescing (a waiter would be handed a cacheable
// result). Because cached decisions are immutable and a hit is
// byte-identical to the cold computation, the fallback answer matches
// the cached one exactly.
func (s *Server) answerLicense(w http.ResponseWriter, r *http.Request, req *LicenseRequest, sc *scratch) {
	if herr := s.resolveLicense(req, &sc.args); herr != nil {
		WriteError(w, herr.code, "%v", herr.err)
		return
	}
	ctx := r.Context()
	sc.key = appendDecisionKey(sc.key[:0], &sc.args)
	obs.RecordFrom(ctx).SetKey(sc.key)
	lookup := obs.Child(ctx, "cache.lookup")
	if isDegraded(ctx) {
		lookup.SetAttr("result", "bypass")
		lookup.End()
		d, herr := s.evalDecision(ctx, &sc.args)
		if herr != nil {
			WriteError(w, herr.code, "%v", herr.err)
			return
		}
		writeDecision(w, d, headerCacheMiss)
		return
	}
	if d, ok := s.decisions.GetBytes(sc.key); ok {
		lookup.SetAttr("result", "hit")
		lookup.End()
		writeDecision(w, d, headerCacheHit)
		return
	}
	lookup.SetAttr("result", "miss")
	lookup.End()
	d, coalesced, err := s.flightDo(ctx, sc.key, &sc.args)
	if err != nil {
		WriteError(w, statusOf(err), "%v", err)
		return
	}
	if coalesced {
		// A coalesced waiter was answered by another request's
		// computation, exactly as a cache hit would have answered it.
		writeDecision(w, d, headerCacheHit)
		return
	}
	writeDecision(w, d, headerCacheMiss)
}

// answerBatch answers a batch in three vectorized phases: resolve every
// item, look every canonical key up under one cache lock, then fill the
// misses — in parallel on the batch pool when enough evaluations remain
// — and assemble the response from the items' precomputed bytes. Each
// phase touches its shared structure (cache, flight group) once per
// batch rather than once per item, and duplicate keys within one batch
// coalesce to a single evaluation through the same singleflight group
// the GET path uses.
func (s *Server) answerBatch(w http.ResponseWriter, r *http.Request, sc *scratch) {
	ctx := r.Context()
	reqs := sc.pb.Requests
	n := len(reqs)
	if cap(sc.slots) < n {
		sc.slots = make([]batchSlot, n)
	} else {
		sc.slots = sc.slots[:n]
	}
	if cap(sc.keys) < n {
		keys := make([][]byte, n)
		copy(keys, sc.keys[:cap(sc.keys)])
		sc.keys = keys
	} else {
		sc.keys = sc.keys[:n]
	}
	if cap(sc.decs) < n {
		sc.decs = make([]*cachedDecision, n)
	} else {
		sc.decs = sc.decs[:n]
	}
	slots := sc.slots

	// Phase 1: resolve every request to canonical fill arguments; items
	// that fail resolution carry their error and an empty key.
	for i := range reqs {
		slots[i].dec = nil
		slots[i].errMsg = ""
		slots[i].ok = false
		if herr := s.resolveLicense(&reqs[i], &slots[i].args); herr != nil {
			slots[i].errMsg = herr.Error()
			sc.keys[i] = sc.keys[i][:0]
			continue
		}
		slots[i].ok = true
		sc.keys[i] = appendDecisionKey(sc.keys[i][:0], &slots[i].args)
	}

	// Phase 2: one batched cache lookup under a single lock acquisition.
	degraded := isDegraded(ctx)
	lookup := obs.Child(ctx, "cache.lookup")
	pending := 0
	if degraded {
		lookup.SetAttr("result", "bypass")
		for i := range slots {
			if slots[i].ok {
				pending++
			}
		}
	} else {
		lookup.SetAttr("result", "batch")
		s.decisions.GetBatch(sc.keys, sc.decs)
		for i := range slots {
			if !slots[i].ok {
				continue
			}
			if sc.decs[i] != nil {
				slots[i].dec = sc.decs[i]
				continue
			}
			pending++
		}
	}
	lookup.End()

	// Phase 3: fill the remaining evaluations, splitting them across the
	// batch pool when enough remain to amortize the handoff. A wait on
	// another request's fill that outlives the deadline cuts the batch:
	// the fills this batch leads still complete and reach the cache, but
	// the batch answers 503 whole rather than with a hole in it.
	var cut atomic.Bool
	if pending > 0 {
		eval := obs.Child(ctx, "safeguards.evaluate")
		fill := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sl := &slots[i]
				if !sl.ok || sl.dec != nil {
					continue
				}
				if degraded {
					d, herr := s.evalDecision(ctx, &sl.args)
					if herr != nil {
						sl.errMsg = herr.Error()
						continue
					}
					sl.dec = d
					continue
				}
				d, _, err := s.flightDo(ctx, sc.keys[i], &sl.args)
				if err == errTimedOut {
					cut.Store(true)
					continue
				}
				if err != nil {
					sl.errMsg = err.Error()
					continue
				}
				sl.dec = d
			}
		}
		// A parpool.Pool must not Run concurrently: one batch at a time
		// claims it, and a batch that finds it claimed fills inline.
		if p := s.batchPool(); p != nil && pending >= batchParallelMin && s.poolBusy.CompareAndSwap(false, true) {
			p.Run(n, func(_, lo, hi int) { fill(lo, hi) })
			s.poolBusy.Store(false)
		} else {
			fill(0, n)
		}
		eval.End()
	}
	if cut.Load() {
		WriteError(w, errTimedOut.code, "%v", errTimedOut)
		return
	}

	// Assemble the response from the items' precomputed bytes,
	// byte-identical to marshaling the equivalent BatchResponse.
	body := append(sc.buf[:0], `{"decisions":[`...)
	for i := range slots {
		if i > 0 {
			body = append(body, ',')
		}
		if d := slots[i].dec; d != nil {
			body = append(body, `{"decision":`...)
			body = d.appendJSON(body)
			body = append(body, '}')
		} else {
			msg, _ := json.Marshal(slots[i].errMsg) // a string always encodes
			body = append(body, `{"error":`...)
			body = append(body, msg...)
			body = append(body, '}')
		}
	}
	body = append(body, ']', '}', '\n')
	sc.buf = body
	WriteRawJSON(w, http.StatusOK, body)
}

// ---- /v1/catalog ---------------------------------------------------------

// parseOrigin resolves an origin parameter. The empty string means "any".
func parseOrigin(v string) (catalog.Origin, bool, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "":
		return 0, false, nil
	case "us", "united states", "usa":
		return catalog.US, true, nil
	case "japan":
		return catalog.Japan, true, nil
	case "europe":
		return catalog.Europe, true, nil
	case "russia":
		return catalog.Russia, true, nil
	case "prc", "china":
		return catalog.PRC, true, nil
	case "india":
		return catalog.India, true, nil
	default:
		return 0, false, fmt.Errorf("unknown origin %q", v)
	}
}

// floatParam parses an optional float query parameter.
func floatParam(q string, name string) (float64, error) {
	if q == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(q, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, q)
	}
	return v, nil
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	origin, haveOrigin, err := parseOrigin(q.Get("origin"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	minCTP, err := floatParam(q.Get("minctp"), "minctp")
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	maxCTP, err := floatParam(q.Get("maxctp"), "maxctp")
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	year, err := floatParam(q.Get("year"), "year")
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	classSub := strings.ToLower(strings.TrimSpace(q.Get("class")))
	nameSub := strings.ToLower(strings.TrimSpace(q.Get("name")))
	indigenous := q.Get("indigenous") == "true"

	matches := catalog.Filter(func(sys catalog.System) bool {
		if haveOrigin && sys.Origin != origin {
			return false
		}
		if indigenous && sys.Origin != catalog.Russia && sys.Origin != catalog.PRC && sys.Origin != catalog.India {
			return false
		}
		if classSub != "" && !strings.Contains(strings.ToLower(sys.Class.String()), classSub) {
			return false
		}
		if nameSub != "" && !strings.Contains(strings.ToLower(sys.Name), nameSub) {
			return false
		}
		if minCTP > 0 && float64(sys.CTP) < minCTP {
			return false
		}
		if maxCTP > 0 && float64(sys.CTP) > maxCTP {
			return false
		}
		if year > 0 && float64(sys.Year) > year {
			return false
		}
		return true
	})

	out := CatalogResponse{Count: len(matches), Systems: make([]SystemDTO, len(matches))}
	for i, sys := range matches {
		out.Systems[i] = SystemDTO{
			Name:          sys.Name,
			Vendor:        sys.Vendor,
			Origin:        sys.Origin.String(),
			Class:         sys.Class.String(),
			Year:          sys.Year,
			CTPMtops:      float64(sys.CTP),
			PeakMflops:    float64(sys.Peak),
			Processors:    sys.Processors,
			Processor:     sys.Processor,
			EntryPriceUSD: float64(sys.EntryPrice),
			Installed:     sys.Installed,
			Channel:       sys.Channel.String(),
			Upgradable:    sys.Upgradable,
			Size:          sys.Size.String(),
			Source:        sys.Source.String(),
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

// ---- /v1/apps ------------------------------------------------------------

// boolParam parses a tri-state query parameter: unset, "true", or "false".
func boolParam(v, name string) (val, set bool, err error) {
	switch v {
	case "":
		return false, false, nil
	case "true", "1":
		return true, true, nil
	case "false", "0":
		return false, true, nil
	default:
		return false, false, fmt.Errorf("bad %s %q (want true or false)", name, v)
	}
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	deployed, haveDeployed, err := boolParam(q.Get("deployed"), "deployed")
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	realTime, haveRealTime, err := boolParam(q.Get("realtime"), "realtime")
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	minMtops, err := floatParam(q.Get("min"), "min")
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	maxMtops, err := floatParam(q.Get("max"), "max")
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	missionSub := strings.ToLower(strings.TrimSpace(q.Get("mission")))

	var matched []apps.Application
	for _, a := range apps.All() {
		if missionSub != "" && !strings.Contains(strings.ToLower(a.Mission.String()), missionSub) {
			continue
		}
		if haveDeployed && a.Deployed != deployed {
			continue
		}
		if haveRealTime && a.RealTime != realTime {
			continue
		}
		if minMtops > 0 && float64(a.Min) < minMtops {
			continue
		}
		if maxMtops > 0 && float64(a.Min) > maxMtops {
			continue
		}
		matched = append(matched, a)
	}

	out := AppsResponse{Count: len(matched), Applications: make([]AppDTO, len(matched))}
	for i, a := range matched {
		dto := AppDTO{
			Name:        a.Name,
			Mission:     a.Mission.String(),
			Area:        a.Area,
			MinMtops:    float64(a.Min),
			ActualMtops: float64(a.Actual),
			ActualName:  a.ActualName,
			FirstYear:   a.FirstYear,
			RealTime:    a.RealTime,
			Deployed:    a.Deployed,
			Granularity: a.Granularity.String(),
			MemoryBound: a.MemoryBound,
			Source:      a.Source.String(),
		}
		for _, c := range a.CTAs {
			dto.CTAs = append(dto.CTAs, c.String())
		}
		out.Applications[i] = dto
	}
	WriteJSON(w, http.StatusOK, out)
}

// ---- /v1/threshold -------------------------------------------------------

func (s *Server) handleThreshold(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	date := report.StudyDate
	if v := q.Get("date"); v != "" {
		d, err := strconv.ParseFloat(v, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad date %q", v)
			return
		}
		date = d
	}
	project := q.Get("project") == "true" || q.Get("project") == "1"

	snap, err := s.snapshotAt(r.Context(), date)
	if err != nil {
		code := http.StatusUnprocessableEntity
		if !errors.Is(err, threshold.ErrInvalidDate) &&
			!errors.Is(err, threshold.ErrNoFrontier) && !errors.Is(err, threshold.ErrNoSystems) {
			code = http.StatusInternalServerError
		}
		WriteError(w, code, "%v", err)
		return
	}
	out := snapshotDTO(snap)
	if project {
		p, err := s.projection()
		if err != nil {
			WriteError(w, http.StatusInternalServerError, "projection: %v", err)
			return
		}
		out.Projection = p
	}
	WriteJSON(w, http.StatusOK, out)
}

// snapshotAt returns the framework snapshot for a date, read-through the
// LRU. The study date is answered from the memoized report substrate, so
// the daemon, the exhibit pipeline, and the test suite share one
// computation. Returned snapshots are immutable by contract. Under an
// active trace it emits cache.lookup and snapshot.take child spans.
func (s *Server) snapshotAt(ctx context.Context, date float64) (*threshold.Snapshot, error) {
	// Degraded requests treat the study-date memo and the LRU as poisoned
	// and recompute from the framework directly. threshold.Take is a pure
	// function of its date, so the recomputed snapshot renders
	// byte-identically to the memoized one.
	if isDegraded(ctx) {
		take := obs.Child(ctx, "snapshot.take")
		take.SetAttr("degraded", "true")
		snap, err := threshold.Take(date)
		take.End()
		return snap, err
	}
	if date == report.StudyDate {
		span := obs.Child(ctx, "report.studySnapshot")
		snap, err := report.StudySnapshot()
		span.End()
		return snap, err
	}
	key := canonicalFloat(date)
	lookup := obs.Child(ctx, "cache.lookup")
	if snap, ok := s.snapshots.Get(key); ok {
		lookup.SetAttr("result", "hit")
		lookup.End()
		return snap, nil
	}
	lookup.SetAttr("result", "miss")
	lookup.End()
	take := obs.Child(ctx, "snapshot.take")
	snap, err := threshold.Take(date)
	take.End()
	if err != nil {
		return nil, err
	}
	s.snapshots.Put(key, snap)
	return snap, nil
}

// projection returns the memoized frontier projection.
func (s *Server) projection() (*ProjectionDTO, error) {
	s.projOnce.Do(func() {
		s.projFit, s.projErr = threshold.FrontierProjection(1992, 1999)
	})
	if s.projErr != nil {
		return nil, s.projErr
	}
	fit := s.projFit
	out := &ProjectionDTO{
		Formula:      fit.String(),
		AnnualFactor: fit.AnnualFactor(),
		DoublingTime: fit.DoublingTime(),
	}
	for _, target := range []float64{7500, 16000, 100000} {
		yr, err := fit.YearReaching(target)
		if err != nil {
			continue
		}
		out.Reaches = append(out.Reaches, ProjectionTarget{Mtops: target, Year: yr})
	}
	return out, nil
}

// snapshotDTO renders a snapshot for the wire.
func snapshotDTO(snap *threshold.Snapshot) *ThresholdResponse {
	out := &ThresholdResponse{
		Date:               snap.Date,
		LowerBoundMtops:    float64(snap.LowerBound),
		LowerBoundSystem:   snap.LowerBoundSystem.Name,
		MaxAvailableMtops:  float64(snap.MaxAvailable),
		MaxAvailableSystem: snap.MaxAvailableSystem.Name,
		Valid:              snap.Valid(),
		InstallHistogram:   snap.InstallHist,
		AppHistogram:       snap.AppHist,
	}
	for _, p := range snap.Premises {
		out.Premises = append(out.Premises, PremiseDTO{
			Premise:  p.Premise.String(),
			Holds:    p.Holds,
			Strength: p.Strength,
			Evidence: p.Evidence,
		})
	}
	if lo, hi, ok := snap.Range(); ok {
		out.Range = &RangeDTO{LoMtops: float64(lo), HiMtops: float64(hi)}
	}
	for _, c := range snap.Clusters {
		out.Clusters = append(out.Clusters, ClusterDTO{
			Category:    c.Category.String(),
			StartMtops:  float64(c.Start),
			EndMtops:    float64(c.End),
			Apps:        len(c.Apps),
			Significant: c.Significant(),
		})
	}
	for _, p := range []threshold.Perspective{
		threshold.ControlMaximal, threshold.ApplicationDriven, threshold.Balanced,
	} {
		if rec, ok := snap.Recommend(p); ok {
			out.Recommendations = append(out.Recommendations, RecommendationDTO{
				Perspective: p.String(), Mtops: float64(rec),
			})
		}
	}
	return out
}

// ---- /v1/healthz ---------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: s.clock().Sub(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Decisions:     s.decisions.Stats(),
		Snapshots:     s.snapshots.Stats(),
	}
	if s.met != nil {
		resp.InFlight = int(s.met.inFlight.Value())
	}
	// Under a mounted fault plan, health reports the injection totals and
	// flips to "degraded" once any response has been served cache-bypassed
	// (sticky for the life of the process, like the counters themselves).
	if s.fault != nil {
		ft := s.met.faultTotals()
		resp.Faults = &ft
		if ft.Degraded > 0 {
			resp.Status = "degraded"
		}
	}
	resp.WAL = s.walHealth()
	WriteJSON(w, http.StatusOK, resp)
}

// ---- observability endpoints ---------------------------------------------

// MountTelemetry registers the read-only telemetry endpoints on mux:
//
//	GET /metrics       reg in Prometheus text exposition format
//	GET /v1/metrics    reg as a JSON snapshot
//	GET /v1/traces     the span trees of rec's live ring, newest first
//	GET /v1/flightrec  rec's live ring newest-first plus its pinned groups
//
// A nil rec answers both recorder endpoints 404. beforeScrape, when
// non-nil, runs before either metrics rendering: the server evaluates its
// SLO engine there, so the slo_* gauges render this scrape's verdicts.
// The exposition is deterministic (sorted families and series, fixed
// histogram shape) and, like every answer, carries its Content-Length.
// The server and the gateway both mount these routes, and both
// middlewares pass them through unobserved (SelfObserved), so two reads
// of an idle daemon are byte-identical.
func MountTelemetry(mux *http.ServeMux, reg *obs.Registry, rec *obs.Recorder, beforeScrape func()) {
	if beforeScrape == nil {
		beforeScrape = func() {}
	}
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		beforeScrape()
		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			WriteError(w, http.StatusInternalServerError, "metrics rendering failed: %v", err)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		h.Set("Content-Length", strconv.Itoa(buf.Len()))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(buf.Bytes())
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		beforeScrape()
		WriteJSON(w, http.StatusOK, reg.Snapshot())
	})
	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			WriteError(w, http.StatusNotFound, "flight recorder disabled")
			return
		}
		traces := rec.Traces()
		WriteJSON(w, http.StatusOK, TracesResponse{Count: len(traces), Traces: traces})
	})
	mux.HandleFunc("GET /v1/flightrec", func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			WriteError(w, http.StatusNotFound, "flight recorder disabled")
			return
		}
		caps, pins := rec.Snapshot()
		WriteJSON(w, http.StatusOK, FlightRecResponse{Count: len(caps), Captures: caps, Pins: pins})
	})
}
