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

// TestLicenseBatchParallelMatchesInline answers one large batch on a
// multi-worker server and again on a BatchWorkers:1 server, requiring
// byte-identical bodies: parallel evaluation is an execution detail, not
// an observable one.
func TestLicenseBatchParallelMatchesInline(t *testing.T) {
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

	par, err := New(Config{Clock: testClock, BatchWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	inl, err := New(Config{Clock: testClock, BatchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	recPar := do(t, par.Handler(), "POST", "/v1/license", body)
	recInl := do(t, inl.Handler(), "POST", "/v1/license", body)
	if recPar.Code != http.StatusOK || recInl.Code != http.StatusOK {
		t.Fatalf("status parallel=%d inline=%d", recPar.Code, recInl.Code)
	}
	if !bytes.Equal(recPar.Body.Bytes(), recInl.Body.Bytes()) {
		t.Error("parallel batch body differs from inline batch body")
	}
	// And a second, warm pass over the same batch is byte-identical to
	// the cold one (hit ≡ cold, batch form).
	recWarm := do(t, par.Handler(), "POST", "/v1/license", body)
	if !bytes.Equal(recWarm.Body.Bytes(), recPar.Body.Bytes()) {
		t.Error("warm batch body differs from cold batch body")
	}
}

// TestConcurrentColdBatches posts cold batches from several callers at
// once to a multi-worker server. Every batch has enough misses to want
// the parallel batch pool, which must never Run for two batches at once:
// each answer must arrive before the deadline, byte-identical to a
// BatchWorkers:1 server's answer to the same batch.
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
	par, err := New(Config{Clock: testClock, BatchWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	inl, err := New(Config{Clock: testClock, BatchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}

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
		want := do(t, inl.Handler(), "POST", "/v1/license", body(i/rounds, i%rounds))
		if rec.Code != http.StatusOK || want.Code != http.StatusOK {
			t.Fatalf("batch %d: status %d, inline %d: %s", i, rec.Code, want.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("batch %d differs from the inline server's answer", i)
		}
	}
}
