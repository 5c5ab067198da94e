package spec

// This file is the fixed-schema JSON codec of the fepiad wire protocol.
//
// The encoder writes ResultJSON, BatchResponse, WatchFrame and
// WatchSummary straight into a byte slice, indented or compact from one
// code path. Its output is byte-identical to json.Encoder (with
// SetIndent("", "  ") for the indented layout): the same float format,
// string escaping, omitempty rules and trailing newline. Every other
// value goes through json.Encoder itself.
//
// The decoders accept a strict subset of JSON for File, BatchRequest and
// WatchRequest: exact lower-case keys, no duplicate or unknown keys, no
// null, no string escapes, valid UTF-8 and JSON-grammar numbers. Anything
// outside the subset reports ok=false and the caller falls back to
// json.Unmarshal, so an accepted document decodes to exactly the value
// json.Unmarshal would produce and every rejected one keeps its
// json.Unmarshal error message.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends the JSON encoding of v and a newline to dst, exactly
// as json.Encoder writes it: with SetIndent("", "  ") when indent is
// true, compact otherwise. ResultJSON, BatchResponse, WatchFrame and
// WatchSummary values take the fixed-schema path; any other value is
// encoded by encoding/json. On error dst is returned unextended.
func AppendJSON(dst []byte, v any, indent bool) ([]byte, error) {
	e := wireEncoder{b: dst, indent: indent}
	switch v := v.(type) {
	case ResultJSON:
		e.result(&v)
	case BatchResponse:
		e.batch(&v)
	case WatchFrame:
		e.frame(&v)
	case WatchSummary:
		e.summary(&v)
	default:
		buf := bytes.NewBuffer(dst)
		enc := json.NewEncoder(buf)
		if indent {
			enc.SetIndent("", "  ")
		}
		if err := enc.Encode(v); err != nil {
			return dst, err
		}
		return buf.Bytes(), nil
	}
	if e.err != nil {
		return dst, e.err
	}
	return append(e.b, '\n'), nil
}

// wireEncoder appends one document. The indented layout is json.Indent's:
// every member and element on its own line, two spaces per depth, ": "
// after keys, and empty containers kept as "{}" and "[]".
type wireEncoder struct {
	b      []byte
	indent bool
	depth  int
	// empty reports that the innermost open container has no member yet.
	empty bool
	err   error
}

func (e *wireEncoder) newline() {
	if e.indent {
		e.b = append(e.b, '\n')
		for i := 0; i < e.depth; i++ {
			e.b = append(e.b, ' ', ' ')
		}
	}
}

func (e *wireEncoder) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
	e.empty = true
}

func (e *wireEncoder) close(c byte) {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.b = append(e.b, c)
	e.empty = false
}

// elem starts the next member or element of the open container.
func (e *wireEncoder) elem() {
	if !e.empty {
		e.b = append(e.b, ',')
	}
	e.empty = false
	e.newline()
}

// key starts an object member; k is a constant, plain-ASCII field name.
func (e *wireEncoder) key(k string) {
	e.elem()
	e.b = append(e.b, '"')
	e.b = append(e.b, k...)
	e.b = append(e.b, '"', ':')
	if e.indent {
		e.b = append(e.b, ' ')
	}
}

func (e *wireEncoder) null() { e.b = append(e.b, "null"...) }

func (e *wireEncoder) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

func (e *wireEncoder) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

// float formats like encoding/json: ES6 number formatting, 'e' notation
// below 1e-6 and from 1e21 on, with a one-digit negative exponent
// unpadded. NaN and ±Inf fail the document with json's own error.
func (e *wireEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

func (e *wireEncoder) floats(xs []float64) {
	if xs == nil {
		e.null()
		return
	}
	e.open('[')
	for _, x := range xs {
		e.elem()
		e.float(x)
	}
	e.close(']')
}

const hexDigits = "0123456789abcdef"

// str appends s as a JSON string with json.Encoder's default escaping:
// HTML-significant <, > and & as \u00XX, invalid UTF-8 as \ufffd, and
// U+2028/U+2029 escaped.
func (e *wireEncoder) str(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

func (e *wireEncoder) meta(m *ResponseMeta) {
	e.open('{')
	if m.Node != "" {
		e.key("node")
		e.str(m.Node)
	}
	if m.Forwarded {
		e.key("forwarded")
		e.bool(true)
	}
	if m.Degraded {
		e.key("degraded")
		e.bool(true)
	}
	if m.Cache != "" {
		e.key("cache")
		e.str(m.Cache)
	}
	if m.Anytime {
		e.key("anytime")
		e.bool(true)
	}
	e.close('}')
}

func (e *wireEncoder) radii(rs []RadiusJSON) {
	if rs == nil {
		e.null()
		return
	}
	e.open('[')
	for i := range rs {
		r := &rs[i]
		e.elem()
		e.open('{')
		e.key("feature")
		e.str(r.Feature)
		e.key("radius")
		e.float(r.Radius)
		e.key("bound")
		e.str(r.Kind)
		if len(r.Boundary) > 0 {
			e.key("boundary")
			e.floats(r.Boundary)
		}
		e.close('}')
	}
	e.close(']')
}

func (e *wireEncoder) result(r *ResultJSON) {
	e.open('{')
	if r.Name != "" {
		e.key("name")
		e.str(r.Name)
	}
	e.key("perturbation")
	e.str(r.Perturbation)
	if r.Units != "" {
		e.key("units")
		e.str(r.Units)
	}
	e.key("robustness")
	e.float(r.Robustness)
	if r.Critical != "" {
		e.key("critical_feature")
		e.str(r.Critical)
	}
	e.key("radii")
	e.radii(r.Radii)
	if r.Meta != nil {
		e.key("meta")
		e.meta(r.Meta)
	}
	e.close('}')
}

func (e *wireEncoder) batch(br *BatchResponse) {
	e.open('{')
	e.key("results")
	if br.Results == nil {
		e.null()
	} else {
		e.open('[')
		for i := range br.Results {
			e.elem()
			e.result(&br.Results[i])
		}
		e.close(']')
	}
	if br.Meta != nil {
		e.key("meta")
		e.meta(br.Meta)
	}
	e.close('}')
}

func (e *wireEncoder) frame(f *WatchFrame) {
	e.open('{')
	e.key("step")
	e.int(f.Step)
	e.key("orig")
	e.floats(f.Orig)
	e.key("robustness")
	e.float(f.Robustness)
	if f.Critical != "" {
		e.key("critical_feature")
		e.str(f.Critical)
	}
	e.key("changed")
	e.radii(f.Changed)
	e.key("changed_count")
	e.int(f.ChangedCount)
	if f.Meta != nil {
		e.key("meta")
		e.meta(f.Meta)
	}
	e.close('}')
}

func (e *wireEncoder) summary(s *WatchSummary) {
	e.open('{')
	e.key("done")
	e.bool(s.Done)
	e.key("steps")
	e.int(s.Steps)
	e.key("total_changed")
	e.int(s.TotalChanged)
	if s.Error != "" {
		e.key("error")
		e.str(s.Error)
	}
	if s.ErrorKind != "" {
		e.key("error_kind")
		e.str(s.ErrorKind)
	}
	e.close('}')
}

// decode decodes a request document with the fast decoder when it
// accepts data, and with json.Unmarshal otherwise. A json.Unmarshal
// failure is a *ValidationError.
func decode[T any](data []byte, fast func([]byte, *T) bool) (T, error) {
	var v T
	if fast(data, &v) {
		return v, nil
	}
	var slow T // v may hold a partial fast decode
	if err := json.Unmarshal(data, &slow); err != nil {
		return slow, &ValidationError{Msg: "malformed JSON: " + err.Error(), Err: err}
	}
	return slow, nil
}

// decodeFile, decodeBatchRequest and decodeWatchRequest are the
// fast-path decoders: each reports ok=false, leaving a partly filled
// value, on anything outside the accepted subset.
func decodeFile(data []byte, f *File) bool {
	d := wireDecoder{data: data}
	d.file(f)
	return d.end()
}

func decodeBatchRequest(data []byte, req *BatchRequest) bool {
	d := wireDecoder{data: data}
	var seen uint
	for k, ok := d.firstKey(); ok; k, ok = d.nextKey() {
		switch string(k) {
		case "systems":
			d.once(&seen, 1)
			req.Systems = []File{}
			for more := d.firstElem(); more; more = d.nextElem() {
				req.Systems = append(req.Systems, File{})
				d.file(&req.Systems[len(req.Systems)-1])
			}
		default:
			d.bad = true
		}
	}
	return d.end()
}

func decodeWatchRequest(data []byte, req *WatchRequest) bool {
	d := wireDecoder{data: data}
	var seen uint
	for k, ok := d.firstKey(); ok; k, ok = d.nextKey() {
		switch string(k) {
		case "system":
			d.once(&seen, 1)
			d.file(&req.System)
		case "points":
			d.once(&seen, 2)
			req.Points = [][]float64{}
			for more := d.firstElem(); more; more = d.nextElem() {
				req.Points = append(req.Points, d.floats())
			}
		default:
			d.bad = true
		}
	}
	return d.end()
}

// wireDecoder walks one document. Once bad is set every read fails, so
// the struct decoders run straight through and the caller checks once.
type wireDecoder struct {
	data []byte
	i    int
	bad  bool
}

// end reports whether the document decoded cleanly with nothing but
// whitespace after it.
func (d *wireDecoder) end() bool {
	if d.bad {
		return false
	}
	d.ws()
	return d.i == len(d.data)
}

func (d *wireDecoder) ws() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c, after optional whitespace, if it comes next.
func (d *wireDecoder) eat(c byte) bool {
	if d.bad {
		return false
	}
	d.ws()
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// once marks a member as seen and fails the document on a duplicate.
func (d *wireDecoder) once(seen *uint, bit uint) {
	if *seen&bit != 0 {
		d.bad = true
	}
	*seen |= bit
}

// firstKey opens an object and returns its first member's key, with the
// colon consumed; ok is false for an empty object or a failure.
func (d *wireDecoder) firstKey() (key []byte, ok bool) {
	if !d.eat('{') {
		d.bad = true
		return nil, false
	}
	if d.eat('}') {
		return nil, false
	}
	return d.memberKey()
}

// nextKey returns the next member's key, or ok=false at the closing
// brace or on a failure.
func (d *wireDecoder) nextKey() (key []byte, ok bool) {
	if d.eat(',') {
		return d.memberKey()
	}
	if !d.eat('}') {
		d.bad = true
	}
	return nil, false
}

func (d *wireDecoder) memberKey() ([]byte, bool) {
	k, ok := d.rawString()
	if !ok || !d.eat(':') {
		d.bad = true
		return nil, false
	}
	return k, true
}

// firstElem opens an array and reports whether it has an element.
func (d *wireDecoder) firstElem() bool {
	if !d.eat('[') {
		d.bad = true
		return false
	}
	return !d.eat(']')
}

// nextElem reports whether another element follows, consuming the comma
// or the closing bracket.
func (d *wireDecoder) nextElem() bool {
	if d.eat(',') {
		return true
	}
	if !d.eat(']') {
		d.bad = true
	}
	return false
}

// rawString returns the contents of the next string, which must hold no
// escape and no control character and be valid UTF-8. The slice aliases
// the document; callers copy it.
func (d *wireDecoder) rawString() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	ascii := true
	for i := d.i; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[d.i:i]
			if !ascii && !utf8.Valid(s) {
				return nil, false
			}
			d.i = i + 1
			return s, true
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (d *wireDecoder) str() string {
	s, ok := d.rawString()
	if !ok {
		d.bad = true
	}
	return string(s)
}

func (d *wireDecoder) bool() bool {
	if d.bad {
		return false
	}
	d.ws()
	switch rest := d.data[d.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		d.i += 4
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		d.i += 5
	default:
		d.bad = true
	}
	return false
}

// number returns the next number token, checked against the JSON
// grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (d *wireDecoder) number() []byte {
	if d.bad {
		return nil
	}
	d.ws()
	data, i := d.data, d.i
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if i = skipDigits(data, i); i < 0 {
		d.bad = true
		return nil
	}
	if i < len(data) && data[i] == '.' {
		if i = skipDigits(data, i+1); i < 0 {
			d.bad = true
			return nil
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i = skipDigits(data, i); i < 0 {
			d.bad = true
			return nil
		}
	}
	tok := data[d.i:i]
	d.i = i
	return tok
}

// skipDigits returns the index after the run of digits at data[i:], or
// -1 when there is none.
func skipDigits(data []byte, i int) int {
	start := i
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// float parses like json.Unmarshal into a float64: an out-of-range
// number fails.
func (d *wireDecoder) float() float64 {
	tok := d.number()
	if tok == nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.bad = true
	}
	return f
}

// int parses like json.Unmarshal into an int: a fraction, an exponent or
// an overflow fails.
func (d *wireDecoder) int() int {
	tok := d.number()
	if tok == nil {
		return 0
	}
	n, err := strconv.Atoi(string(tok))
	if err != nil {
		d.bad = true
	}
	return n
}

// floats decodes a number array into a fresh, non-nil slice sized by the
// commas before the next closing bracket.
func (d *wireDecoder) floats() []float64 {
	d.ws()
	hint := 1
	if d.i < len(d.data) && d.data[d.i] == '[' {
		if end := bytes.IndexByte(d.data[d.i:], ']'); end > 0 {
			hint += bytes.Count(d.data[d.i:d.i+end], []byte{','})
		}
	}
	out := make([]float64, 0, hint)
	for more := d.firstElem(); more; more = d.nextElem() {
		out = append(out, d.float())
	}
	return out
}

func (d *wireDecoder) floatPtr() *float64 {
	v := d.float()
	return &v
}

func (d *wireDecoder) file(f *File) {
	var seen uint
	for k, ok := d.firstKey(); ok; k, ok = d.nextKey() {
		switch string(k) {
		case "name":
			d.once(&seen, 1)
			f.Name = d.str()
		case "perturbation":
			d.once(&seen, 2)
			d.perturbation(&f.Perturbation)
		case "norm":
			d.once(&seen, 4)
			f.Norm = d.str()
		case "features":
			d.once(&seen, 8)
			f.Features = []FeatureSpec{}
			for more := d.firstElem(); more; more = d.nextElem() {
				f.Features = append(f.Features, FeatureSpec{})
				d.feature(&f.Features[len(f.Features)-1])
			}
		case "anytime":
			d.once(&seen, 16)
			f.Anytime = d.bool()
		default:
			d.bad = true
		}
	}
}

func (d *wireDecoder) perturbation(p *PerturbationSpec) {
	var seen uint
	for k, ok := d.firstKey(); ok; k, ok = d.nextKey() {
		switch string(k) {
		case "name":
			d.once(&seen, 1)
			p.Name = d.str()
		case "orig":
			d.once(&seen, 2)
			p.Orig = d.floats()
		case "units":
			d.once(&seen, 4)
			p.Units = d.str()
		case "discrete":
			d.once(&seen, 8)
			p.Discrete = d.bool()
		default:
			d.bad = true
		}
	}
}

func (d *wireDecoder) feature(fs *FeatureSpec) {
	var seen uint
	for k, ok := d.firstKey(); ok; k, ok = d.nextKey() {
		switch string(k) {
		case "name":
			d.once(&seen, 1)
			fs.Name = d.str()
		case "min":
			d.once(&seen, 2)
			fs.Min = d.floatPtr()
		case "max":
			d.once(&seen, 4)
			fs.Max = d.floatPtr()
		case "impact":
			d.once(&seen, 8)
			d.impact(&fs.Impact)
		default:
			d.bad = true
		}
	}
}

func (d *wireDecoder) impact(is *ImpactSpec) {
	var seen uint
	for k, ok := d.firstKey(); ok; k, ok = d.nextKey() {
		switch string(k) {
		case "type":
			d.once(&seen, 1)
			is.Type = d.str()
		case "coeffs":
			d.once(&seen, 2)
			is.Coeffs = d.floats()
		case "offset":
			d.once(&seen, 4)
			is.Offset = d.float()
		case "terms":
			d.once(&seen, 8)
			is.Terms = []TermSpec{}
			for more := d.firstElem(); more; more = d.nextElem() {
				is.Terms = append(is.Terms, TermSpec{})
				d.term(&is.Terms[len(is.Terms)-1])
			}
		default:
			d.bad = true
		}
	}
}

func (d *wireDecoder) term(ts *TermSpec) {
	var seen uint
	for k, ok := d.firstKey(); ok; k, ok = d.nextKey() {
		switch string(k) {
		case "kind":
			d.once(&seen, 1)
			ts.Kind = d.str()
		case "index":
			d.once(&seen, 2)
			ts.Index = d.int()
		case "coeff":
			d.once(&seen, 4)
			ts.Coeff = d.float()
		case "p":
			d.once(&seen, 8)
			ts.P = d.float()
		default:
			d.bad = true
		}
	}
}
