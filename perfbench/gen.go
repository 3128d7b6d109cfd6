package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/serve"
)

// input is one distinct request of a workload with its reference answer:
// the status and body a plain single-node server gives it cold.
type input struct {
	query  string // GET raw query; empty for POST inputs
	body   []byte // POST body; nil for GET inputs
	key    string // canonical decision key (serve.ResolveDecisionKey)
	status int
	ref    []byte
}

// splitmix64 is the seeded generator behind every workload draw.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix64) intn(n int) int { return int(r.next() % uint64(n)) }

// destinations spans the safeguard tiers, so the decisions cover every
// row of the decision table.
var destinations = []string{
	"japan", "france", "germany", "india", "israel", "brazil",
	"china", "russia", "egypt", "south korea", "iran", "poland",
}

var endUses = []string{
	"", "weather modeling", "crash simulation", "reservoir modeling",
	"computational chemistry", "aerodynamics",
}

// licenseRequest draws one license query: a quarter name a catalog
// system, the rest give a CTP rating; one in eight pins a threshold.
func licenseRequest(r *splitmix64, systems []catalog.System) serve.LicenseRequest {
	var req serve.LicenseRequest
	if r.intn(4) == 0 {
		req.System = systems[r.intn(len(systems))].Name
	} else {
		req.CTP = serve.CTPValue(float64(100 + r.intn(500000)))
	}
	req.Destination = destinations[r.intn(len(destinations))]
	req.EndUse = endUses[r.intn(len(endUses))]
	if r.intn(8) == 0 {
		req.Threshold = serve.CTPValue(float64(1500 + r.intn(9000)))
	}
	return req
}

// distinctInputs draws n requests whose canonical decision keys are all
// different from each other and from every key in seen, which it
// extends. post selects the POST body form over the GET query form.
func distinctInputs(r *splitmix64, n int, post bool, seen map[string]bool) ([]input, error) {
	systems := catalog.All()
	out := make([]input, 0, n)
	for len(out) < n {
		req := licenseRequest(r, systems)
		key, ok := serve.ResolveDecisionKey(nil, &req)
		if !ok {
			return nil, fmt.Errorf("generated request %+v does not resolve", req)
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		in := input{key: string(key)}
		if post {
			body, ok := serve.AppendLicenseRequest(nil, &req)
			if !ok {
				return nil, fmt.Errorf("generated request %+v does not encode", req)
			}
			in.body = body
		} else {
			in.query = req.Values().Encode()
		}
		out = append(out, in)
	}
	return out, nil
}

// requestIDs renders the X-Request-Id header values the caller sends,
// one per position in a round's stream, built before any timing.
func requestIDs(n int) [][]string {
	ids := make([][]string, n)
	for i := range ids {
		ids[i] = []string{"q" + strconv.Itoa(i)}
	}
	return ids
}

// fillReferences computes each input's reference answer through a plain
// single-node server's Handler: no WAL, no gateway, every key cold. A
// non-200 reference means the generator drew a request the service
// rejects, which no workload is meant to contain.
func fillReferences(ins []input) error {
	s, err := serve.New(serve.Config{})
	if err != nil {
		return fmt.Errorf("reference server: %w", err)
	}
	h := s.Handler()
	for i := range ins {
		in := &ins[i]
		var req *http.Request
		if in.body != nil {
			req = httptest.NewRequest(http.MethodPost, "/v1/license", bytes.NewReader(in.body))
			req.Header.Set("Content-Type", "application/json")
		} else {
			req = httptest.NewRequest(http.MethodGet, "/v1/license?"+in.query, nil)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		in.status, in.ref = rec.Code, rec.Body.Bytes()
		if in.status != http.StatusOK {
			return fmt.Errorf("reference answer for %q is %d: %s", in.key, in.status, in.ref)
		}
	}
	return nil
}
