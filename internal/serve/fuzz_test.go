package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/safeguards"
	"repro/internal/units"
)

// FuzzLicenseRequest throws arbitrary bodies at POST /v1/license through
// the full middleware stack. The service contract under fuzzing: never a
// 5xx, never a panic, and every response body — success or error — is
// well-formed JSON.
func FuzzLicenseRequest(f *testing.F) {
	seeds := []string{
		`{"system":"Cray C916","destination":"India"}`,
		`{"ctp":21125,"destination":"india","endUse":"weather modeling"}`,
		`{"ctp":"4.5k","destination":"france","threshold":"1,500 Mtops"}`,
		`{"ctp":1e309,"destination":"japan"}`,
		`{"ctp":-1,"destination":"iran","date":1992.5}`,
		`{"requests":[{"ctp":200,"destination":"japan"},{"system":"nope","destination":"x"}]}`,
		`{"requests":[]}`,
		`{"system":"cray","ctp":5,"destination":"india"}`,
		`{"destination":"india","threshold":{"nested":true}}`,
		`{"ctp":"21,125","destination":"  INDIA  ","date":"1995"}`,
		`{`,
		``,
		`[]`,
		`"just a string"`,
		`{"ctp":1,"destination":"india"} trailing`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	s, err := New(Config{Clock: func() time.Time { return time.Unix(800000000, 0) }})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v1/license", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("5xx (%d) for body %q: %s", rec.Code, body, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("response to %q is not JSON (status %d): %q", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("error response for %q lacks an error field: %s", body, rec.Body)
			}
		}
	})
}

// splitDecisionKey is the strings.Split parse parseDecisionKey replaced,
// kept as the fuzz oracle for the scanner.
func splitDecisionKey(key string, a *fillArgs) bool {
	parts := strings.Split(key, string(rune(keySep)))
	if len(parts) != 5 {
		return false
	}
	rated, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return false
	}
	th, err := strconv.ParseFloat(parts[4], 64)
	if err != nil {
		return false
	}
	*a = fillArgs{sysName: parts[0], rated: units.Mtops(rated), dest: parts[2], endUse: parts[3], th: units.Mtops(th)}
	return true
}

// sameArgs compares fill arguments with the floats bit for bit. Any NaN
// matches any NaN: the key renders every NaN as "NaN", so a payload
// cannot survive it.
func sameArgs(x, y fillArgs) bool {
	sameFloat := func(p, q units.Mtops) bool {
		if math.IsNaN(float64(p)) || math.IsNaN(float64(q)) {
			return math.IsNaN(float64(p)) && math.IsNaN(float64(q))
		}
		return math.Float64bits(float64(p)) == math.Float64bits(float64(q))
	}
	return x.sysName == y.sysName && x.dest == y.dest && x.endUse == y.endUse &&
		sameFloat(x.rated, y.rated) && sameFloat(x.th, y.th)
}

// FuzzCachedDecisionBytes holds the decision cache's split to the
// encoder for any destination and end use (HTML-escaped characters,
// invalid UTF-8, U+2028) and any CTP and threshold: head plus tail is
// json.Marshal's bytes plus the newline, with that body's length and
// hash. A decision keeps a tail exactly when it is at or above the
// threshold, and that tail is its tier skeleton's own.
func FuzzCachedDecisionBytes(f *testing.F) {
	f.Add("india", "weather modeling", 21125.0, 2000.0)
	f.Add("france", "numerical weather prediction", 1500.0, 2000.0)
	f.Add(" North Korea ", "", 7000.0, 7000.0)
	f.Add("<b>&amp;</b>", "a\u2028b\u2029c", 1e308, 5e-324)
	f.Add("\xff\xfejapan", "\x00\x1f\"\\", 4.5, 4.25)
	f.Fuzz(func(t *testing.T, dest, endUse string, rated, th float64) {
		a := fillArgs{dest: dest, endUse: endUse, rated: units.Mtops(rated), th: units.Mtops(th)}
		d := cachedMatchesMarshal(t, &a)
		if d == nil {
			return
		}
		if atOrAbove := !(rated < th); atOrAbove != (d.tail != nil) {
			t.Fatalf("%+v: at or above threshold %v, shared tail %q", a, atOrAbove, d.tail)
		}
		if d.tail != nil && &d.tail[0] != &tierSkeletons[safeguards.TierOf(dest)].tail[0] {
			t.Fatalf("%+v: tail %q is not the %v skeleton's", a, d.tail, safeguards.TierOf(dest))
		}
	})
}

// FuzzDecisionKeyRoundTrip pins parseDecisionKey to appendDecisionKey.
// When no string field holds the separator byte, parsing a rendered key
// gives back exactly the inputs; when one does, the key has more than
// five fields and parsing fails. Either way the allocation-free scanner
// agrees with the strings.Split parse it replaced.
func FuzzDecisionKeyRoundTrip(f *testing.F) {
	s, err := New(Config{Clock: testClock})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	for _, req := range []LicenseRequest{
		{CTP: 21125, Destination: "India", EndUse: "modeling"},
		{CTP: 1500, Destination: "poland", Threshold: 7000},
		{System: "Cray C916", Destination: "russia", EndUse: "oil"},
	} {
		var a fillArgs
		if herr := s.resolveLicense(&req, &a); herr != nil {
			f.Fatalf("resolve %+v: %v", req, herr)
		}
		f.Add(a.sysName, a.dest, a.endUse, float64(a.rated), float64(a.th))
	}
	f.Add("", "china\x1fx", "y", 21125.0, 2000.0)
	f.Add("", "china", "x\x1fy", 21125.0, 2000.0)

	f.Fuzz(func(t *testing.T, sys, dest, endUse string, rated, th float64) {
		in := fillArgs{sysName: sys, dest: dest, endUse: endUse, rated: units.Mtops(rated), th: units.Mtops(th)}
		key := string(appendDecisionKey(nil, &in))
		var got, ref fillArgs
		ok := parseDecisionKey(key, &got)
		if refOK := splitDecisionKey(key, &ref); ok != refOK || ok && !sameArgs(got, ref) {
			t.Fatalf("key %q: scanner (%v, %+v) disagrees with strings.Split (%v, %+v)", key, ok, got, refOK, ref)
		}
		if strings.IndexByte(sys+dest+endUse, keySep) >= 0 {
			if ok {
				t.Fatalf("key %q has a separator in a field but parsed as %+v", key, got)
			}
			return
		}
		if !ok || !sameArgs(got, in) {
			t.Fatalf("key %q: parsed (%v, %+v), want %+v", key, ok, got, in)
		}
	})
}
