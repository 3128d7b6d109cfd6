package serve

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/safeguards"
	"repro/internal/units"
)

// TestBuildDecisionMatchesDirectEvaluation replays the pre-table response
// construction — safeguards.Evaluate plus per-field String() derivation —
// across destination tiers, above/below-threshold ratings, and the error
// cases, and requires buildDecision's table-backed answer to be deeply
// equal. The decision table is a rendering cache, not a semantic change.
func TestBuildDecisionMatchesDirectEvaluation(t *testing.T) {
	dests := []string{"japan", "france", "india", "israel", "iran", "iraq", "china", "russia", "north korea", "unheard-of-land"}
	ctps := []units.Mtops{10, 1900, 2000, 21125, 500000}
	ths := []units.Mtops{1900, 2000, 7000, 10000}
	endUses := []string{"", "weather modeling", "nuclear simulation"}

	checked := 0
	for _, dest := range dests {
		for _, ctp := range ctps {
			for _, th := range ths {
				for _, endUse := range endUses {
					a := fillArgs{sysName: "", dest: dest, endUse: endUse, rated: ctp, th: th}
					got, herr := buildDecision(&a)
					dec, err := safeguards.Evaluate(safeguards.License{
						Destination: dest, CTP: ctp, EndUse: endUse,
					}, th)
					if err != nil {
						if herr == nil {
							t.Fatalf("%s/%v/%v: direct eval errors (%v), buildDecision does not", dest, ctp, th, err)
						}
						continue
					}
					if herr != nil {
						t.Fatalf("%s/%v/%v: buildDecision errors (%v), direct eval does not", dest, ctp, th, herr)
					}
					want := &LicenseResponse{
						Destination:    dest,
						EndUse:         endUse,
						Tier:           dec.Tier.String(),
						CTPMtops:       float64(ctp),
						ThresholdMtops: float64(th),
						Outcome:        dec.Outcome.String(),
						Rationale:      dec.Rationale,
					}
					for _, sg := range dec.Safeguards {
						want.Safeguards = append(want.Safeguards, sg.String())
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%v/%v/%q:\n got %+v\nwant %+v", dest, ctp, th, endUse, got, want)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no successful evaluations compared")
	}

	// Error cases surface as 400s with the evaluator's message.
	for _, a := range []fillArgs{
		{dest: "", rated: 100, th: 2000},
		{dest: "japan", rated: -1, th: 2000},
		{dest: "japan", rated: 100, th: -5},
	} {
		if _, herr := buildDecision(&a); herr == nil || herr.code != http.StatusBadRequest {
			t.Errorf("%+v: want a 400, got %v", a, herr)
		}
	}
}

// TestDecisionKeySeparatorIsRefused: the decision key joins its fields
// with the 0x1f byte, so a destination or end use holding that byte
// would let two different requests share one key, and the second would
// be answered from the first one's cache entry. Both requests of such a
// pair answer 400, through GET, POST and as batch items, nothing is
// cached, and the gateway's key hook does not resolve them.
func TestDecisionKeySeparatorIsRefused(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	for _, target := range []string{
		"/v1/license?ctp=21125&dest=china%1Fx&endUse=y",
		"/v1/license?ctp=21125&dest=china&endUse=x%1Fy",
	} {
		rec := do(t, h, "GET", target, "")
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "0x1f") {
			t.Fatalf("GET %s: %d %s, want 400 naming the 0x1f byte", target, rec.Code, rec.Body)
		}
	}
	pair := []LicenseRequest{
		{CTP: 21125, Destination: "china\x1fx", EndUse: "y"},
		{CTP: 21125, Destination: "china", EndUse: "x\x1fy"},
	}
	for _, req := range pair {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if rec := do(t, h, "POST", "/v1/license", string(body)); rec.Code != http.StatusBadRequest {
			t.Fatalf("POST %s: %d %s, want 400", body, rec.Code, rec.Body)
		}
		if _, ok := ResolveDecisionKey(nil, &req); ok {
			t.Fatalf("ResolveDecisionKey resolved %+v", req)
		}
	}

	batch, err := json.Marshal(struct {
		Requests []LicenseRequest `json:"requests"`
	}{append(pair, LicenseRequest{CTP: 21125, Destination: "china", EndUse: "x y"})})
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, h, "POST", "/v1/license", string(batch))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	var br BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatalf("batch body: %v", err)
	}
	if len(br.Decisions) != 3 {
		t.Fatalf("batch answered %d items, want 3", len(br.Decisions))
	}
	for i, item := range br.Decisions[:2] {
		if item.Decision != nil || !strings.Contains(item.Error, "0x1f") {
			t.Fatalf("batch item %d: %+v, want an error naming the 0x1f byte", i, item)
		}
	}
	if br.Decisions[2].Decision == nil {
		t.Fatalf("batch item 2: %+v, want a decision", br.Decisions[2])
	}
	if n := s.decisions.Len(); n != 1 {
		t.Fatalf("decision cache holds %d entries, want only the valid batch item", n)
	}
}
