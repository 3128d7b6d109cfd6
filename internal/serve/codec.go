package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/units"
)

// This file holds the license request parsers: a strict POST-body parser
// with the verbatim stdlib decoder as its fallback, and an
// allocation-free GET query parser. Responses are encoded with
// encoding/json once per cache fill (encodeCached), so no encoder lives
// here.

// appendCanonicalFloat appends the canonical cache-key rendering of v —
// the append-style canonicalFloat, for key construction without the
// per-call string. It is also CTPValue's wire format ('g', shortest).
func appendCanonicalFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// AppendLicenseRequest appends r's json.Marshal encoding to dst. ok is
// false where json.Marshal errors: a non-finite CTP, threshold or date.
func AppendLicenseRequest(dst []byte, r *LicenseRequest) ([]byte, bool) {
	b, err := json.Marshal(r)
	return append(dst, b...), err == nil
}

// ---- strict decoding -----------------------------------------------------

// jsonCursor is a strict single-pass JSON reader. Every read method
// reports !ok on any input the fast path does not handle — malformed
// JSON, but also valid JSON json.Marshal never produces (escaped keys,
// case-insensitive field names, unknown fields). The caller treats !ok
// as "re-parse with encoding/json".
type jsonCursor struct {
	data []byte
	pos  int
}

func (c *jsonCursor) skipWS() {
	for c.pos < len(c.data) {
		switch c.data[c.pos] {
		case ' ', '\t', '\n', '\r':
			c.pos++
		default:
			return
		}
	}
}

// lit consumes the exact literal s.
func (c *jsonCursor) lit(s string) bool {
	if len(c.data)-c.pos < len(s) || string(c.data[c.pos:c.pos+len(s)]) != s {
		return false
	}
	c.pos += len(s)
	return true
}

func (c *jsonCursor) byteIs(b byte) bool {
	return c.pos < len(c.data) && c.data[c.pos] == b
}

// readKey reads an object key as raw bytes. Keys with escapes, control
// bytes, or non-ASCII report !ok — json.Marshal only emits plain ASCII
// keys for these shapes, and anything else must take the stdlib path so
// case-insensitive matching and DisallowUnknownFields behave exactly.
func (c *jsonCursor) readKey() ([]byte, bool) {
	if !c.byteIs('"') {
		return nil, false
	}
	start := c.pos + 1
	for i := start; i < len(c.data); i++ {
		switch b := c.data[i]; {
		case b == '"':
			c.pos = i + 1
			return c.data[start:i], true
		case b == '\\' || b < ' ' || b >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// readString reads a JSON string value with encoding/json's exact
// semantics: the escapes the scanner admits, surrogate-pair decoding,
// and invalid UTF-8 replaced rune-by-rune with U+FFFD.
func (c *jsonCursor) readString() (string, bool) {
	if !c.byteIs('"') {
		return "", false
	}
	start := c.pos + 1
	// Fast path: no escapes, no control bytes, valid UTF-8.
	i := start
	for i < len(c.data) {
		b := c.data[i]
		if b == '"' {
			c.pos = i + 1
			return string(c.data[start:i]), true
		}
		if b == '\\' || b < ' ' {
			break
		}
		if b < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(c.data[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	// Slow path: build the unquoted value byte-by-byte.
	buf := append([]byte(nil), c.data[start:i]...)
	for i < len(c.data) {
		switch b := c.data[i]; {
		case b == '"':
			c.pos = i + 1
			return string(buf), true
		case b < ' ':
			return "", false
		case b == '\\':
			i++
			if i >= len(c.data) {
				return "", false
			}
			switch c.data[i] {
			case '"', '\\', '/':
				buf = append(buf, c.data[i])
				i++
			case 'b':
				buf = append(buf, '\b')
				i++
			case 'f':
				buf = append(buf, '\f')
				i++
			case 'n':
				buf = append(buf, '\n')
				i++
			case 'r':
				buf = append(buf, '\r')
				i++
			case 't':
				buf = append(buf, '\t')
				i++
			case 'u':
				i--
				r := getu4(c.data[i:])
				if r < 0 {
					return "", false
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r1 := getu4(c.data[i:])
					if dec := utf16.DecodeRune(r, r1); dec != unicode.ReplacementChar {
						i += 6
						buf = utf8.AppendRune(buf, dec)
						break
					}
					r = unicode.ReplacementChar
				}
				buf = utf8.AppendRune(buf, r)
			default:
				return "", false
			}
		case b < utf8.RuneSelf:
			buf = append(buf, b)
			i++
		default:
			r, size := utf8.DecodeRune(c.data[i:])
			i += size
			buf = utf8.AppendRune(buf, r)
		}
	}
	return "", false
}

// getu4 decodes \uXXXX at the start of s, returning -1 on malformed input.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, b := range s[2:6] {
		var v byte
		switch {
		case '0' <= b && b <= '9':
			v = b - '0'
		case 'a' <= b && b <= 'f':
			v = b - 'a' + 10
		case 'A' <= b && b <= 'F':
			v = b - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(v)
	}
	return r
}

// readNumber reads a JSON number with the scanner's exact grammar and
// converts it with strconv.ParseFloat; grammar violations and range
// errors report !ok.
func (c *jsonCursor) readNumber() (float64, bool) {
	start := c.pos
	i := c.pos
	if i < len(c.data) && c.data[i] == '-' {
		i++
	}
	switch {
	case i < len(c.data) && c.data[i] == '0':
		i++
	case i < len(c.data) && '1' <= c.data[i] && c.data[i] <= '9':
		for i < len(c.data) && '0' <= c.data[i] && c.data[i] <= '9' {
			i++
		}
	default:
		return 0, false
	}
	if i < len(c.data) && c.data[i] == '.' {
		i++
		if i >= len(c.data) || c.data[i] < '0' || c.data[i] > '9' {
			return 0, false
		}
		for i < len(c.data) && '0' <= c.data[i] && c.data[i] <= '9' {
			i++
		}
	}
	if i < len(c.data) && (c.data[i] == 'e' || c.data[i] == 'E') {
		i++
		if i < len(c.data) && (c.data[i] == '+' || c.data[i] == '-') {
			i++
		}
		if i >= len(c.data) || c.data[i] < '0' || c.data[i] > '9' {
			return 0, false
		}
		for i < len(c.data) && '0' <= c.data[i] && c.data[i] <= '9' {
			i++
		}
	}
	f, err := strconv.ParseFloat(string(c.data[start:i]), 64)
	if err != nil {
		return 0, false
	}
	c.pos = i
	return f, true
}

// readCTP reads a ctp/threshold value with CTPValue's semantics: a JSON
// number, or a ParseMtops-format string.
func (c *jsonCursor) readCTP() (CTPValue, bool) {
	if c.byteIs('"') {
		s, ok := c.readString()
		if !ok {
			return 0, false
		}
		m, err := units.ParseMtops(s)
		if err != nil {
			return 0, false
		}
		return CTPValue(m), true
	}
	f, ok := c.readNumber()
	return CTPValue(f), ok
}

// parseLicenseFields parses one request object's fields into req. When
// reqs is non-nil a "requests" key is admitted and stored through it
// (the batch shape of licensePostBody).
func (c *jsonCursor) parseLicenseFields(req *LicenseRequest, reqs *[]LicenseRequest) bool {
	if !c.byteIs('{') {
		return false
	}
	c.pos++
	c.skipWS()
	if c.byteIs('}') {
		c.pos++
		return true
	}
	for {
		c.skipWS()
		key, ok := c.readKey()
		if !ok {
			return false
		}
		c.skipWS()
		if !c.byteIs(':') {
			return false
		}
		c.pos++
		c.skipWS()
		switch string(key) {
		case "system", "destination", "endUse", "ctp", "threshold", "date":
		case "requests":
			if reqs == nil {
				return false
			}
		default:
			// Unknown field: rejected whatever the value, matching
			// DisallowUnknownFields on the fallback path.
			return false
		}
		if c.lit("null") {
			// encoding/json leaves the field untouched on null.
		} else {
			switch string(key) {
			case "system":
				if req.System, ok = c.readString(); !ok {
					return false
				}
			case "destination":
				if req.Destination, ok = c.readString(); !ok {
					return false
				}
			case "endUse":
				if req.EndUse, ok = c.readString(); !ok {
					return false
				}
			case "ctp":
				if req.CTP, ok = c.readCTP(); !ok {
					return false
				}
			case "threshold":
				if req.Threshold, ok = c.readCTP(); !ok {
					return false
				}
			case "date":
				if req.Date, ok = c.readNumber(); !ok {
					return false
				}
			case "requests":
				if reqs == nil || !c.parseRequestList(reqs) {
					return false
				}
			default:
				return false
			}
		}
		c.skipWS()
		if c.byteIs(',') {
			c.pos++
			continue
		}
		if c.byteIs('}') {
			c.pos++
			return true
		}
		return false
	}
}

// parseRequestList parses the "requests" array. A null element leaves its
// slot as the zero request, exactly as encoding/json does.
func (c *jsonCursor) parseRequestList(reqs *[]LicenseRequest) bool {
	if !c.byteIs('[') {
		return false
	}
	c.pos++
	out := []LicenseRequest{}
	c.skipWS()
	if c.byteIs(']') {
		c.pos++
		*reqs = out
		return true
	}
	for {
		c.skipWS()
		out = append(out, LicenseRequest{})
		if !c.lit("null") && !c.parseLicenseFields(&out[len(out)-1], nil) {
			return false
		}
		c.skipWS()
		if c.byteIs(',') {
			c.pos++
			continue
		}
		if c.byteIs(']') {
			c.pos++
			*reqs = out
			return true
		}
		return false
	}
}

// parseLicensePostBody is the fast path of decodeLicensePostBody: it
// accepts exactly the canonical body shape and reports !ok for everything else,
// including trailing non-whitespace (the dec.More() check of the stdlib
// path). The differential fuzz test proves every accepted body decodes
// identically to encoding/json.
func parseLicensePostBody(data []byte, out *licensePostBody) bool {
	c := jsonCursor{data: data}
	c.skipWS()
	if !c.parseLicenseFields(&out.LicenseRequest, &out.Requests) {
		return false
	}
	c.skipWS()
	return c.pos == len(c.data)
}

// errTrailingData reports a body with more after its JSON value.
var errTrailingData = errors.New("trailing data")

// decodeLicensePostBody decodes a /v1/license POST body into out. The
// strict parser answers every body it accepts; everything else re-runs
// the verbatim stdlib path (DisallowUnknownFields plus a trailing-data
// check), so acceptance rules and error texts are encoding/json's.
func decodeLicensePostBody(body []byte, out *licensePostBody) error {
	*out = licensePostBody{}
	if parseLicensePostBody(body, out) {
		return nil
	}
	*out = licensePostBody{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return err
	}
	if dec.More() {
		return errTrailingData
	}
	return nil
}

// ---- query-string parsing ------------------------------------------------

// queryUnescape is url.QueryUnescape without the error value: '+' means
// space, %XX decodes, malformed escapes report !ok. The common case — no
// escapes at all — returns the input without allocating.
func queryUnescape(s string) (string, bool) {
	plain := true
	n := 0
	for i := 0; i < len(s); {
		switch s[i] {
		case '%':
			if i+2 >= len(s) || !isHex(s[i+1]) || !isHex(s[i+2]) {
				return "", false
			}
			plain = false
			i += 3
		case '+':
			plain = false
			i++
		default:
			i++
		}
		n++
	}
	if plain {
		return s, true
	}
	buf := make([]byte, 0, n)
	for i := 0; i < len(s); {
		switch s[i] {
		case '%':
			buf = append(buf, unhex(s[i+1])<<4|unhex(s[i+2]))
			i += 3
		case '+':
			buf = append(buf, ' ')
			i++
		default:
			buf = append(buf, s[i])
			i++
		}
	}
	return string(buf), true
}

func isHex(b byte) bool {
	return '0' <= b && b <= '9' || 'a' <= b && b <= 'f' || 'A' <= b && b <= 'F'
}

func unhex(b byte) byte {
	switch {
	case '0' <= b && b <= '9':
		return b - '0'
	case 'a' <= b && b <= 'f':
		return b - 'a' + 10
	default:
		return b - 'A' + 10
	}
}

// parseLicenseQuery parses a /v1/license GET query string straight into
// req without materializing url.Values: pairs in order, first occurrence
// of a key wins, pairs with semicolons or malformed escapes skipped —
// exactly the observable behavior of the r.URL.Query()/q.Get path it
// replaces. A returned *statusError carries the response the old path
// would have written.
func parseLicenseQuery(raw string, req *LicenseRequest) *statusError {
	var system, dest, destination, ctp, threshold, date, endUse string
	const (
		seenSystem = 1 << iota
		seenDest
		seenDestination
		seenCTP
		seenThreshold
		seenDate
		seenEndUse
	)
	seen := 0
	for raw != "" {
		var pair string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			pair, raw = raw, ""
		}
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		keyRaw, valRaw := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			keyRaw, valRaw = pair[:i], pair[i+1:]
		}
		key, ok := queryUnescape(keyRaw)
		if !ok {
			continue
		}
		var slot *string
		var bit int
		switch key {
		case "system":
			slot, bit = &system, seenSystem
		case "dest":
			slot, bit = &dest, seenDest
		case "destination":
			slot, bit = &destination, seenDestination
		case "ctp":
			slot, bit = &ctp, seenCTP
		case "threshold":
			slot, bit = &threshold, seenThreshold
		case "date":
			slot, bit = &date, seenDate
		case "endUse":
			slot, bit = &endUse, seenEndUse
		default:
			continue
		}
		val, ok := queryUnescape(valRaw)
		if !ok {
			continue
		}
		if seen&bit == 0 {
			seen |= bit
			*slot = val
		}
	}

	req.System = system
	req.Destination = dest
	if req.Destination == "" {
		req.Destination = destination
	}
	req.EndUse = endUse
	if ctp != "" {
		m, err := units.ParseMtops(ctp)
		if err != nil {
			return httpErr(400, "bad ctp: %v", err)
		}
		req.CTP = CTPValue(m)
	}
	if threshold != "" {
		m, err := units.ParseMtops(threshold)
		if err != nil {
			return httpErr(400, "bad threshold: %v", err)
		}
		req.Threshold = CTPValue(m)
	}
	if date != "" {
		d, err := strconv.ParseFloat(date, 64)
		if err != nil {
			return httpErr(400, "bad date %q", date)
		}
		req.Date = d
	}
	return nil
}
