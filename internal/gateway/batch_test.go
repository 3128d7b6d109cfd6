package gateway

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/serve"
)

// TestSplitBatchItemsRoundTrip pins the framing scanner: a batch body
// splits into its per-item values verbatim, and rejoining them under the
// canonical framing reproduces the original bytes exactly.
func TestSplitBatchItemsRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		body   string
		want   []string
		rejoin string // the canonical rejoined body, when not body itself
	}{
		{
			name: "decisions and errors",
			body: `{"decisions":[{"decision":{"license":true,"ctp":21125}},{"error":"unknown system"},{"decision":{"note":"x"}}]}` + "\n",
			want: []string{`{"decision":{"license":true,"ctp":21125}}`, `{"error":"unknown system"}`, `{"decision":{"note":"x"}}`},
		},
		{
			name: "single item",
			body: `{"decisions":[{"decision":{"a":1}}]}` + "\n",
			want: []string{`{"decision":{"a":1}}`},
		},
		{
			name: "empty batch",
			body: `{"decisions":[]}` + "\n",
			want: nil,
		},
		{
			name: "braces brackets and commas inside strings",
			body: `{"decisions":[{"error":"no, really: }]{[\" fine"},{"decision":[1,[2,3],{"s":"a,b"}]}]}` + "\n",
			want: []string{`{"error":"no, really: }]{[\" fine"}`, `{"decision":[1,[2,3],{"s":"a,b"}]}`},
		},
		{
			name: "trailing backslash escapes",
			body: `{"decisions":[{"error":"path c:\\"},{"decision":{"q":"\\\","}}]}` + "\n",
			want: []string{`{"error":"path c:\\"}`, `{"decision":{"q":"\\\","}}`},
		},
		{
			name: "no trailing newline",
			body: `{"decisions":[{"decision":{"a":1}},{"decision":{"b":2}}]}`,
			want: []string{`{"decision":{"a":1}}`, `{"decision":{"b":2}}`},
		},
		{
			name:   "whitespace-only batch",
			body:   "{\"decisions\":[ \n\t]}\n",
			want:   nil,
			rejoin: `{"decisions":[]}` + "\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			items, ok := splitBatchItems([]byte(tc.body))
			if !ok {
				t.Fatalf("split rejected %q", tc.body)
			}
			if len(items) != len(tc.want) {
				t.Fatalf("got %d items, want %d: %q", len(items), len(tc.want), items)
			}
			for i := range items {
				if string(items[i]) != tc.want[i] {
					t.Errorf("item %d = %q, want %q", i, items[i], tc.want[i])
				}
			}
			// Rejoin under the canonical framing and compare to the body
			// (modulo the trailing newline the server always appends).
			rejoined := append([]byte(nil), batchBodyPrefix...)
			rejoined = append(rejoined, bytes.Join(items, []byte(","))...)
			rejoined = append(rejoined, ']', '}', '\n')
			wantBody := tc.body
			if tc.rejoin != "" {
				wantBody = tc.rejoin
			} else if !bytes.HasSuffix([]byte(wantBody), []byte("\n")) {
				wantBody += "\n"
			}
			if string(rejoined) != wantBody {
				t.Errorf("rejoin = %q, want %q", rejoined, wantBody)
			}
		})
	}
}

// TestSplitBatchItemsRejects pins the scanner's strictness: anything
// that is not exactly the backends' batch framing, or that encoding/json
// refuses, fails the split (the gateway then refuses to reassemble
// rather than corrupting).
func TestSplitBatchItemsRejects(t *testing.T) {
	bad := []string{
		"",
		"{}\n",
		`{"decision":{"a":1}}` + "\n",         // single-decision body, not a batch
		`{"decisions":[{"a":1}}` + "\n",       // missing closing bracket
		`{"decisions":[{"a":1}]` + "\n",       // missing closing brace
		`{"decisions":[{"a":1}]}extra` + "\n", // trailing junk
		`{"decisions":[{"a":1]}]}` + "\n",     // unbalanced nesting
		`{"decisions":[{"s":"unterminated]}` + "\n",           // string never closes
		`{"DECISIONS":[{"a":1}]}` + "\n",                      // wrong field case
		`{"decisions":[{"a":1}],"requests":[{"b":2}]}` + "\n", // second field after the array
		`{"decisions":[,]}` + "\n",                            // two empty items
		`{"decisions":[{"a":1},]}` + "\n",                     // trailing comma: an empty last item
		`{"decisions":[,{"a":1}]}` + "\n",                     // leading comma: an empty first item
		`{"decisions":[{"a":1},,{"b":2}]}` + "\n",             // an empty middle item
		`{"decisions":[decision]}` + "\n",                     // a bare word, not a value
		`{"decisions":[{"a" 1}]}` + "\n",                      // member without a colon
		"{\"decisions\":[{\"s\":\"a\x01b\"}]}\n",              // raw control byte in a string
		`{"decisions":[{"s":"\x"}]}` + "\n",                   // invalid escape
	}
	for _, body := range bad {
		if items, ok := splitBatchItems([]byte(body)); ok {
			t.Errorf("split accepted %q as %q", body, items)
		}
	}
}

// TestEncodeBatchRoundTrips pins the sub-batch encoder against the
// server's own acceptance rules: whatever encodeBatch renders, the
// backend's decoder must read back as the same batch.
func TestEncodeBatchRoundTrips(t *testing.T) {
	reqs := []serve.LicenseRequest{
		{CTP: 21125, Destination: "india"},
		{System: "Intel Paragon XP/S 150", Destination: "france", EndUse: "weather"},
		{CTP: 1500.5, Destination: "japan", Threshold: 2000, Date: 1995.5},
	}
	body, err := encodeBatch(reqs)
	if err != nil {
		t.Fatalf("encodeBatch: %v", err)
	}
	_, batch, isBatch, ok := serve.DecodeLicenseBody(body)
	if !ok || !isBatch {
		t.Fatalf("server decoder rejected encoded batch %q (ok=%v isBatch=%v)", body, ok, isBatch)
	}
	if !reflect.DeepEqual(batch, reqs) {
		t.Fatalf("round trip changed the batch:\n got %+v\nwant %+v", batch, reqs)
	}
}

// FuzzSplitBatchItems holds the scanner to encoding/json: a body it
// accepts must decode as a batch with as many items, each equal to the
// decoder's raw value once its surrounding whitespace is trimmed. No
// input may panic it.
func FuzzSplitBatchItems(f *testing.F) {
	for _, body := range []string{
		`{"decisions":[{"decision":{"license":true,"ctp":21125}},{"error":"unknown system"}]}` + "\n",
		`{"decisions":[{"error":"no, really: }]{[\" fine"},{"decision":[1,[2,3],{"s":"a,b"}]}]}` + "\n",
		`{"decisions":[{"error":"path c:\\"}]}`,
		`{"decisions":[]}` + "\n",
		`{"decisions":[ 1 , "two" ,null]}`,
		`{"decisions":[{"a":1}],"requests":[{"b":2}]}` + "\n",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		items, ok := splitBatchItems(body)
		if !ok {
			return
		}
		var oracle struct{ Decisions []json.RawMessage }
		if err := json.Unmarshal(body, &oracle); err != nil {
			t.Fatalf("split accepted %q, which encoding/json refuses: %v", body, err)
		}
		if len(items) != len(oracle.Decisions) {
			t.Fatalf("split %q into %d items, encoding/json finds %d", body, len(items), len(oracle.Decisions))
		}
		for i, it := range items {
			if got := bytes.TrimSpace(it); !bytes.Equal(got, oracle.Decisions[i]) {
				t.Fatalf("item %d of %q = %q, encoding/json reads %q", i, body, got, oracle.Decisions[i])
			}
		}
	})
}
