package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// licenseRange returns the n test requests licenseRequest(from) onward.
func licenseRange(from, n int) []serve.LicenseRequest {
	reqs := make([]serve.LicenseRequest, n)
	for i := range reqs {
		reqs[i] = licenseRequest(from + i)
	}
	return reqs
}

// batchBody renders reqs as a /v1/license batch body.
func batchBody(t testing.TB, reqs []serve.LicenseRequest) string {
	t.Helper()
	raw, err := json.Marshal(serve.BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// unresolvable is a license request with no canonical key: its system
// is not in the catalogue, so a single node answers it with a per-item
// error.
var unresolvable = serve.LicenseRequest{System: "no-such-machine", Destination: "france"}

// batchRow is one batch body posted through the cluster and to a single
// node.
type batchRow struct {
	name  string
	body  string
	keyed bool // routed by licenseRequest(lead)'s key, else by the URI
	code  int
}

// checkBatchesMatchSingleNode posts each row through a fresh 3-backend
// cluster. A batch goes whole to one backend, its first item's owner, or
// the URI's owner when it has no first item or that item has no key.
// Each answer must be byte-identical to a single node's, carry the
// X-Gw-Backend of its owner and reach exactly one backend once. rows
// gets lead, the first test key owned away from the URI's owner, so a
// keyed batch routed by its URI shows.
func checkBatchesMatchSingleNode(t *testing.T, rows func(lead int) []batchRow) {
	t.Helper()
	tc := newTestCluster(t, 3, Config{NoHedge: true}, nil)
	single, err := serve.New(serve.Config{Clock: gwTestClock})
	if err != nil {
		t.Fatal(err)
	}
	uriOwner := tc.gw.ownerFor("/v1/license", nil).url
	lead := 0
	for tc.gw.ownerFor(decisionKeyOf(t, licenseRequest(lead)), nil).url == uriOwner {
		lead++
	}
	leadOwner := tc.gw.ownerFor(decisionKeyOf(t, licenseRequest(lead)), nil).url

	licenseHits := func() int {
		n := 0
		for _, tb := range tc.backends {
			n += tb.pathHits("/v1/license")
		}
		return n
	}
	for _, tt := range rows(lead) {
		want := httptest.NewRecorder()
		single.Handler().ServeHTTP(want, httptest.NewRequest(http.MethodPost, "/v1/license", strings.NewReader(tt.body)))
		if want.Code != tt.code {
			t.Fatalf("%s: single node %d, want %d: %s", tt.name, want.Code, tt.code, want.Body)
		}
		owner := uriOwner
		if tt.keyed {
			owner = leadOwner
		}
		ownerHits, allHits := tc.backendFor(owner).pathHits("/v1/license"), licenseHits()
		code, h, got := tc.post("/v1/license", tt.body)
		if code != want.Code || !bytes.Equal(got, want.Body.Bytes()) {
			t.Errorf("%s: gateway %d %q, single node %d %q", tt.name, code, got, want.Code, want.Body.Bytes())
		}
		if via := h.Get("X-Gw-Backend"); via != owner {
			t.Errorf("%s: answered by %q, want %q", tt.name, via, owner)
		}
		if tc.backendFor(owner).pathHits("/v1/license") != ownerHits+1 || licenseHits() != allHits+1 {
			t.Errorf("%s: not forwarded whole to %s", tt.name, owner)
		}
	}
}

// TestGatewayBatchLimitMatchesSingleNode covers the batch routing edges:
// an empty batch, null requests, an unresolvable first item, a repeated
// key, and batches at and one over serve.DefaultMaxBatch. Each answers
// byte-identical to a single node, the over-limit 413 included, which
// the owner renders under its own limit.
func TestGatewayBatchLimitMatchesSingleNode(t *testing.T) {
	checkBatchesMatchSingleNode(t, func(lead int) []batchRow {
		return []batchRow{
			{"empty batch", `{"requests":[]}`, false, http.StatusOK},
			{"null requests", `{"requests":null}`, false, http.StatusBadRequest},
			{"unresolvable first item", batchBody(t, []serve.LicenseRequest{unresolvable, licenseRequest(lead)}), false, http.StatusOK},
			{"repeated key", batchBody(t, []serve.LicenseRequest{licenseRequest(lead), licenseRequest(lead + 1), licenseRequest(lead)}), true, http.StatusOK},
			{"at the limit", batchBody(t, licenseRange(lead, serve.DefaultMaxBatch)), true, http.StatusOK},
			{"over the limit", batchBody(t, licenseRange(lead, serve.DefaultMaxBatch+1)), true, http.StatusRequestEntityTooLarge},
		}
	})
}

// TestGatewayScatterGatherByteIdentity pins the batch contract that the
// gateway's old scatter-gather kept and whole forwarding keeps: a batch
// through the cluster answers byte-identical to one node, per-item
// errors included, in request order, and so does a one-item batch.
func TestGatewayScatterGatherByteIdentity(t *testing.T) {
	checkBatchesMatchSingleNode(t, func(lead int) []batchRow {
		mixed := licenseRange(lead, 24)
		mixed[7], mixed[19] = unresolvable, unresolvable
		return []batchRow{
			{"one item", batchBody(t, licenseRange(lead, 1)), true, http.StatusOK},
			{"per-item errors", batchBody(t, mixed), true, http.StatusOK},
		}
	})
}

// BenchmarkGatewayBatch prices a 64-item batch POST through the gateway
// over the in-process 3-backend harness, both hops on loopback: a cold
// batch of keys no earlier round asked, so every item is a fill at the
// owner, and a warm batch answered wholly from its decision cache.
func BenchmarkGatewayBatch(b *testing.B) {
	const items = 64
	for _, bc := range []struct {
		name string
		cold bool
	}{{"cold-64", true}, {"warm-64", false}} {
		b.Run(bc.name, func(b *testing.B) {
			tc := newTestCluster(b, 3, Config{}, nil)
			post := func(body string) {
				if code, _, got := tc.post("/v1/license", body); code != http.StatusOK {
					b.Fatalf("batch: %d: %s", code, got)
				}
			}
			warm := batchBody(b, licenseRange(0, items))
			post(warm)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body := warm
				if bc.cold {
					b.StopTimer()
					body = batchBody(b, licenseRange((i+1)*items, items))
					b.StartTimer()
				}
				post(body)
			}
		})
	}
}
