package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestLicenseBatchPartialFailure drives a batch mixing every per-item
// failure mode with valid requests (including a duplicate), and verifies
// each slot answers independently: decisions where the regime answers,
// the exact resolver error text where it does not, and identical bytes
// for identical items.
func TestLicenseBatchPartialFailure(t *testing.T) {
	h := newTestServer(t).Handler()
	body := `{"requests":[` +
		`{"ctp":2000,"destination":"japan"},` + // valid
		`{"system":"no-such-machine","destination":"japan"},` + // unknown system
		`{"destination":"india"},` + // neither system nor ctp
		`{"system":"Cray C916","ctp":100,"destination":"india"},` + // both
		`{"ctp":-5,"destination":"india"},` + // non-positive CTP, fails in evaluation
		`{"ctp":100,"destination":"india","date":1984.0},` + // pre-regime date
		`{"ctp":2000,"destination":"japan"}` + // duplicate of item 0
		`]}`
	rec := do(t, h, "POST", "/v1/license", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", rec.Code, rec.Body)
	}
	var br BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Decisions) != 7 {
		t.Fatalf("answered %d items, want 7", len(br.Decisions))
	}
	wantErr := map[int]string{
		1: `unknown system "no-such-machine"`,
		2: "missing system name or ctp rating",
		3: "give a system name or a ctp rating, not both",
		4: "safeguards: malformed license application: non-positive CTP -5 Mtops",
		5: "no control threshold in force at 1984.00; give one explicitly",
	}
	for i, item := range br.Decisions {
		if msg, bad := wantErr[i]; bad {
			if item.Decision != nil {
				t.Errorf("item %d: got a decision, want error %q", i, msg)
				continue
			}
			if item.Error != msg {
				t.Errorf("item %d: error = %q, want %q", i, item.Error, msg)
			}
			continue
		}
		if item.Decision == nil {
			t.Errorf("item %d: error %q, want a decision", i, item.Error)
		}
	}
	// Duplicate items share one cached decision, so their wire renderings
	// are identical.
	d0, _ := json.Marshal(br.Decisions[0])
	d6, _ := json.Marshal(br.Decisions[6])
	if !bytes.Equal(d0, d6) {
		t.Errorf("duplicate items differ: %s vs %s", d0, d6)
	}
}

// TestLicenseBatchBodyMatchesStdlib re-marshals the decoded batch
// response with encoding/json and requires the handler's hand-assembled
// body to be byte-identical — the batch extension of the codec's
// differential-identity contract.
func TestLicenseBatchBodyMatchesStdlib(t *testing.T) {
	h := newTestServer(t).Handler()
	bodies := []string{
		`{"requests":[]}`,
		`{"requests":[{"ctp":2000,"destination":"japan"}]}`,
		`{"requests":[{"system":"Cray C916","destination":"India","endUse":"weather  modeling\t"},` +
			`{"system":"nope","destination":"x"},{"ctp":10,"destination":"iran"}]}`,
	}
	for _, body := range bodies {
		rec := do(t, h, "POST", "/v1/license", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
		}
		var br BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		want, err := json.Marshal(br)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("batch body diverges from stdlib marshal:\n got: %s\nwant: %s", rec.Body.Bytes(), want)
		}
		if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
			t.Errorf("Content-Length = %q, body is %d bytes", got, rec.Body.Len())
		}
	}
}

// TestLicenseBatchColdAndWarmAgree answers one large mixed batch cold on
// two servers and requires byte-identical bodies, then answers it warm
// on the first and requires the cold body again: which server computed
// an item, and whether the cache or a fill answered it, is not
// observable.
func TestLicenseBatchColdAndWarmAgree(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i := 0; i < 96; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		switch i % 4 {
		case 0:
			fmt.Fprintf(&sb, `{"ctp":%d,"destination":"japan","endUse":"lot %d"}`, 100+i*37, i)
		case 1:
			fmt.Fprintf(&sb, `{"ctp":%d,"destination":"india"}`, 1900+i*11)
		case 2:
			fmt.Fprintf(&sb, `{"system":"Cray C916","destination":"dest-%d"}`, i)
		default:
			fmt.Fprintf(&sb, `{"system":"missing-%d","destination":"japan"}`, i)
		}
	}
	sb.WriteString(`]}`)
	body := sb.String()

	first, second := newTestServer(t), newTestServer(t)
	cold := do(t, first.Handler(), "POST", "/v1/license", body)
	other := do(t, second.Handler(), "POST", "/v1/license", body)
	if cold.Code != http.StatusOK || other.Code != http.StatusOK {
		t.Fatalf("status first=%d second=%d", cold.Code, other.Code)
	}
	if !bytes.Equal(cold.Body.Bytes(), other.Body.Bytes()) {
		t.Error("two servers' cold answers to one batch differ")
	}
	// And a second, warm pass over the same batch is byte-identical to
	// the cold one (hit ≡ cold, batch form).
	warm := do(t, first.Handler(), "POST", "/v1/license", body)
	if !bytes.Equal(warm.Body.Bytes(), cold.Body.Bytes()) {
		t.Error("warm batch body differs from cold batch body")
	}
}

// TestConcurrentColdBatches posts cold batches from several callers at
// once, so their fills run side by side through one cache and one flight
// group: each answer must arrive before the deadline, byte-identical to
// a second server's answer to the same batch posted alone.
func TestConcurrentColdBatches(t *testing.T) {
	const callers, rounds, items = 4, 4, 64
	body := func(c, r int) string {
		var sb strings.Builder
		sb.WriteString(`{"requests":[`)
		for i := 0; i < items; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"ctp":%d,"destination":"india","endUse":"caller %d"}`, 100+r*items+i, c)
		}
		sb.WriteString(`]}`)
		return sb.String()
	}
	par, ref := newTestServer(t), newTestServer(t)

	got := make([]*httptest.ResponseRecorder, callers*rounds)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got[c*rounds+r] = do(t, par.Handler(), "POST", "/v1/license", body(c, r))
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent cold batches unanswered after 10s")
	}

	for i, rec := range got {
		want := do(t, ref.Handler(), "POST", "/v1/license", body(i/rounds, i%rounds))
		if rec.Code != http.StatusOK || want.Code != http.StatusOK {
			t.Fatalf("batch %d: status %d, reference %d: %s", i, rec.Code, want.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("batch %d differs from the reference server's answer", i)
		}
	}
}
