package serve

import (
	"encoding/json"
	"math"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/units"
)

// trickyStrings exercises every escape class the stdlib encoder handles:
// HTML escaping, two-byte escapes, control bytes, invalid UTF-8, the
// line-separator runes, and surrogate-pair material.
var trickyStrings = []string{
	"",
	"plain ascii",
	`quotes " and \ backslash`,
	"<script>&amp;</script>",
	"tabs\tnewlines\nreturns\r",
	"control \x00 \x01 \x1f bytes",
	"invalid \xff\xfe utf-8 \xc3\x28",
	"line\u2028and\u2029separators",
	"music \U0001D11E beyond the BMP",
	"caf\u00e9 ﬀ ligature",
}

var trickyFloats = []float64{
	0, 1, -1, 21125, 1500, 0.5, -0.25, 1e-7, 1e21, 1e20, 123456.789,
	math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.NaN(),
}

// FuzzAppendLicenseRequest: the strict parser accepts every body
// AppendLicenseRequest renders and decodes it exactly as encoding/json
// does, so well-formed client bodies never pay for the stdlib fallback.
func FuzzAppendLicenseRequest(f *testing.F) {
	for i, s := range trickyStrings {
		fl := trickyFloats[i%len(trickyFloats)]
		f.Add(s, s, s, fl, fl, fl)
	}
	f.Add("Cray C916", "india", "weather", 21125.0, 1500.0, 1995.45)
	f.Add("", "japan", "", 4500.0, 0.0, 0.0)

	f.Fuzz(func(t *testing.T, system, dest, endUse string, ctp, th, date float64) {
		r := &LicenseRequest{
			System: system, CTP: CTPValue(ctp), Destination: dest,
			EndUse: endUse, Threshold: CTPValue(th), Date: date,
		}
		body, ok := AppendLicenseRequest(nil, r)
		if !ok {
			return
		}
		var fast licensePostBody
		if !parseLicensePostBody(body, &fast) {
			t.Fatalf("strict parser declined the encoding of %+v: %s", r, body)
		}
		var ref licensePostBody
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("stdlib rejects the encoding of %+v: %v", r, err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("decoding diverged for %s:\nfast:   %+v\nstdlib: %+v", body, fast, ref)
		}
	})
}

// FuzzParseLicensePostBody pins the strict parser to the stdlib: every
// body the strict parser accepts must decode identically under the
// verbatim stdlib path (DisallowUnknownFields + trailing-data check), so
// falling back on !ok can never change an accepted request's meaning.
func FuzzParseLicensePostBody(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"ctp":21125,"destination":"india","endUse":"weather modeling"}`,
		`{"system":"Cray C916","destination":"India","threshold":1500,"date":1992.5}`,
		`{"ctp":"4.5k","destination":"france"}`,
		`{"ctp":"21,125 Mtops","destination":" INDIA "}`,
		` { "ctp" : 1e3 , "destination" : "x" } `,
		`{"requests":[]}`,
		`{"requests":null}`,
		`{"requests":[{"ctp":200,"destination":"japan"},null,{"system":"nope","destination":"x"}]}`,
		`{"destination":"caf\u00e9 \ud834\udd1e \uD800 end"}`,
		`{"destination":"dup","destination":"wins"}`,
		`{"ctp":5,"destination":"india"} garbage`,
		`{"CTP":5,"destination":"india"}`,
		`{"unknown":1}`,
		`{"ctp":-0.5e-2,"destination":"0"}`,
		`[]`,
		`{"ctp":`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var fast licensePostBody
		if !parseLicensePostBody([]byte(body), &fast) {
			return
		}
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var ref licensePostBody
		if err := dec.Decode(&ref); err != nil {
			t.Fatalf("fast parser accepted %q but stdlib rejects it: %v", body, err)
		}
		if dec.More() {
			t.Fatalf("fast parser accepted %q but stdlib sees trailing data", body)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("decoding diverged for %q:\nfast:   %+v\nstdlib: %+v", body, fast, ref)
		}
	})
}

// refParseLicenseQuery is the replaced url.Values-based GET parser,
// kept verbatim as the differential reference for parseLicenseQuery.
func refParseLicenseQuery(raw string) (LicenseRequest, *statusError) {
	q, _ := url.ParseQuery(raw)
	req := LicenseRequest{
		System:      q.Get("system"),
		Destination: q.Get("dest"),
		EndUse:      q.Get("endUse"),
	}
	if req.Destination == "" {
		req.Destination = q.Get("destination")
	}
	if v := q.Get("ctp"); v != "" {
		m, err := units.ParseMtops(v)
		if err != nil {
			return req, httpErr(400, "bad ctp: %v", err)
		}
		req.CTP = CTPValue(m)
	}
	if v := q.Get("threshold"); v != "" {
		m, err := units.ParseMtops(v)
		if err != nil {
			return req, httpErr(400, "bad threshold: %v", err)
		}
		req.Threshold = CTPValue(m)
	}
	if v := q.Get("date"); v != "" {
		d, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return req, httpErr(400, "bad date %q", v)
		}
		req.Date = d
	}
	return req, nil
}

// FuzzParseLicenseQuery proves the allocation-free query parser
// observably identical to the url.Values path it replaced: same parsed
// request, same error status and text, for arbitrary raw query strings.
func FuzzParseLicenseQuery(f *testing.F) {
	seeds := []string{
		"ctp=21125&dest=india&endUse=modeling",
		"system=Cray+C916&dest=iran",
		"ctp=4.5k&destination=france&date=1992.5",
		"dest=a&dest=b&destination=c",
		"ctp=bogus&dest=x",
		"threshold=nope",
		"date=yesterday",
		"ctp=1;dest=x&threshold=2",
		"a=%zz&ctp=100&dest=ok%20then",
		"ctp=%31%30%30&dest=%e6%97%a5%e6%9c%ac",
		"=nokey&&dest",
		"dest=trailing%2",
		"endUse=a+b%2Bc",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		var fast LicenseRequest
		fastErr := parseLicenseQuery(raw, &fast)
		want, refErr := refParseLicenseQuery(raw)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("error divergence for %q: fast=%v ref=%v", raw, fastErr, refErr)
		}
		if fastErr != nil {
			if fastErr.code != refErr.code || fastErr.Error() != refErr.Error() {
				t.Fatalf("error mismatch for %q: fast=%d %q ref=%d %q",
					raw, fastErr.code, fastErr.Error(), refErr.code, refErr.Error())
			}
			return
		}
		if fast != want {
			t.Fatalf("parse divergence for %q:\nfast: %+v\nref:  %+v", raw, fast, want)
		}
	})
}

// FuzzQueryUnescape pins queryUnescape to url.QueryUnescape.
func FuzzQueryUnescape(f *testing.F) {
	for _, s := range []string{"", "plain", "a+b", "%41%6243", "%zz", "%4", "100%", "%e6%97%a5"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := queryUnescape(s)
		want, err := url.QueryUnescape(s)
		if ok != (err == nil) {
			t.Fatalf("acceptance divergence for %q: fast ok=%v, stdlib err=%v", s, ok, err)
		}
		if ok && got != want {
			t.Fatalf("unescape divergence for %q: fast %q, stdlib %q", s, got, want)
		}
	})
}
