package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"fepia/internal/core"
)

// wideFile is a 64×64 finishing-time system shaped like the request
// benchmark's wide analyze documents: one application per machine under
// a shared makespan bound.
func wideFile() File {
	const dim = 64
	orig := make([]float64, dim)
	for i := range orig {
		orig[i] = 1 + float64((i*37)%dim)/7
	}
	bound := 1.3 * orig[dim-1]
	f := File{Name: "wide-1", Perturbation: PerturbationSpec{Name: "C", Orig: orig, Units: "s"}}
	for m := 0; m < dim; m++ {
		coeffs := make([]float64, dim)
		coeffs[(m*5)%dim] = 1
		f.Features = append(f.Features, FeatureSpec{
			Name:   fmt.Sprintf("finish(m%d)", m),
			Max:    &bound,
			Impact: ImpactSpec{Type: "linear", Coeffs: coeffs},
		})
	}
	return f
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// wideWatchDoc is a watch request over wideFile with two nudged points.
func wideWatchDoc(tb testing.TB) []byte {
	f := wideFile()
	a := append([]float64(nil), f.Perturbation.Orig...)
	b := append([]float64(nil), a...)
	b[3] += 0.25
	return mustMarshal(tb, WatchRequest{System: f, Points: [][]float64{a, b}})
}

// wideResultDoc is the analysed wideFile as a ResultJSON document.
func wideResultDoc(tb testing.TB) []byte {
	sys, err := Build(wideFile())
	if err != nil {
		tb.Fatal(err)
	}
	a, err := core.Analyze(sys.Features, sys.Perturbation, sys.Options)
	if err != nil {
		tb.Fatal(err)
	}
	res := Encode(sys.Name, a)
	res.Meta = &ResponseMeta{Node: "n1", Cache: CacheHit}
	return mustMarshal(tb, res)
}

// TestRouteKeyGolden pins the route keys of reference documents, so
// ring placement — which node owns a spec — cannot drift between
// versions of the decoder or the key derivation.
func TestRouteKeyGolden(t *testing.T) {
	sys, err := Parse([]byte(webFarm))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sys.RouteKey(), uint64(0x2e3f894ab3c54605); got != want {
		t.Errorf("webFarm route key %#016x, want %#016x", got, want)
	}
	systems, err := ParseBatch([]byte(batchDoc))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{0xe39c90c64afc936d, 0x513cf80d203cb39f} {
		if got := systems[i].RouteKey(); got != want {
			t.Errorf("batch system %d route key %#016x, want %#016x", i, got, want)
		}
	}
}

// TestDecodeSubset pins which documents the fast decoder takes: the
// reference documents must not fall back, and each construct outside
// the subset must — while Parse still returns what json.Unmarshal
// decodes, or fails with its error.
func TestDecodeSubset(t *testing.T) {
	const lin = `"features":[{"max":1,"impact":{"type":"linear","coeffs":[1]}}]`
	cases := []struct {
		name, doc string
		fast      bool
	}{
		{"webFarm", webFarm, true},
		{"wide", string(mustMarshal(t, wideFile())), true},
		{"anytime and discrete", `{"perturbation":{"orig":[1],"discrete":true},"anytime":false,` + lin + `}`, true},
		{"terms", `{"perturbation":{"orig":[0,0]},"features":[{"min":-1e-3,"impact":{"type":"terms","terms":[{"kind":"exp","index":1,"coeff":2,"p":0.1}]}}]}`, true},
		{"upper-case key", `{"Name":"x","perturbation":{"orig":[1]},` + lin + `}`, false},
		{"escape", `{"name":"a\u0062","perturbation":{"orig":[1]},` + lin + `}`, false},
		{"null", `{"name":null,"perturbation":{"orig":[1]},` + lin + `}`, false},
		{"duplicate", `{"name":"a","name":"b","perturbation":{"orig":[1]},` + lin + `}`, false},
		{"unknown key", `{"extra":1,"perturbation":{"orig":[1]},` + lin + `}`, false},
		{"invalid UTF-8", "{\"name\":\"\xff\",\"perturbation\":{\"orig\":[1]}," + lin + "}", false},
		{"trailing data", webFarm + `}`, false},
		{"fractional index", `{"perturbation":{"orig":[0]},"features":[{"max":1,"impact":{"type":"terms","terms":[{"kind":"linear","index":0.0,"coeff":1}]}}]}`, false},
	}
	for _, tc := range cases {
		var f File
		if got := decodeFile([]byte(tc.doc), &f); got != tc.fast {
			t.Errorf("%s: fast path accepted=%v, want %v", tc.name, got, tc.fast)
		}
		var want File
		jerr := json.Unmarshal([]byte(tc.doc), &want)
		sys, err := Parse([]byte(tc.doc))
		if jerr != nil {
			if err == nil || !strings.HasSuffix(err.Error(), "malformed JSON: "+jerr.Error()) {
				t.Errorf("%s: Parse error %v, want json.Unmarshal's %v", tc.name, err, jerr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(sys.File, want) {
			t.Errorf("%s: Parse decoded %+v, json.Unmarshal %+v", tc.name, sys.File, want)
		}
	}
	var req BatchRequest
	if !decodeBatchRequest([]byte(batchDoc), &req) {
		t.Error("batch fixture fell back to json.Unmarshal")
	}
	var wreq WatchRequest
	if !decodeWatchRequest(wideWatchDoc(t), &wreq) {
		t.Error("watch request fell back to json.Unmarshal")
	}
}

// FuzzDecodeParity checks the fast decoders against json.Unmarshal:
// whenever one accepts a document, json.Unmarshal must accept it too and
// produce a deeply equal value, down to nil versus empty slices and the
// min/max pointers.
func FuzzDecodeParity(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add([]byte(seed))
	}
	f.Add(mustMarshal(f, wideFile()))
	f.Add([]byte(batchDoc))
	f.Add(wideWatchDoc(f))
	f.Add([]byte(`{"system":{"perturbation":{"orig":[]},"features":[]},"points":[[],[1e-400,-0]]}`))
	f.Add([]byte(`{"name":"a\u0062","perturbation":{"orig":[1],"units":null}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var file, fileWant File
		if decodeFile(data, &file) {
			if err := json.Unmarshal(data, &fileWant); err != nil {
				t.Fatalf("fast path accepted a File json.Unmarshal rejects: %v", err)
			}
			if !reflect.DeepEqual(file, fileWant) {
				t.Fatalf("File decodes differ:\nfast %#v\njson %#v", file, fileWant)
			}
		}
		var br, brWant BatchRequest
		if decodeBatchRequest(data, &br) {
			if err := json.Unmarshal(data, &brWant); err != nil {
				t.Fatalf("fast path accepted a BatchRequest json.Unmarshal rejects: %v", err)
			}
			if !reflect.DeepEqual(br, brWant) {
				t.Fatalf("BatchRequest decodes differ:\nfast %#v\njson %#v", br, brWant)
			}
		}
		var wr, wrWant WatchRequest
		if decodeWatchRequest(data, &wr) {
			if err := json.Unmarshal(data, &wrWant); err != nil {
				t.Fatalf("fast path accepted a WatchRequest json.Unmarshal rejects: %v", err)
			}
			if !reflect.DeepEqual(wr, wrWant) {
				t.Fatalf("WatchRequest decodes differ:\nfast %#v\njson %#v", wr, wrWant)
			}
		}
	})
}

// FuzzEncodeParity checks AppendJSON against json.Encoder, compact and
// indented: the documents decoded from doc, and documents carrying the
// arbitrary string s and float x in every string and float slot, must
// encode to the same bytes, or both fail.
func FuzzEncodeParity(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(wideResultDoc(f), "", 0.0)
	for _, seed := range parseSeeds {
		f.Add([]byte(seed), "λ", 1.5)
	}
	f.Add([]byte(`{"results":[],"meta":{}}`), "<a href='x'>&amp;</a>", 1e-7)
	f.Add([]byte(`{"step":3,"orig":[],"changed":[],"changed_count":0,"meta":{}}`), "bad \xff\xfe utf-8", 1e21)
	f.Add([]byte(`{"done":true,"steps":2,"error":"x","error_kind":"timeout"}`), "sep \u2028 \u2029 \"q\" \\ \t\n\x01", negZero)
	f.Add([]byte(`{"radii":[{"feature":"f","radius":-0,"bound":"at_max","boundary":[1e-9,123456789e13]}]}`), "", math.NaN())
	f.Fuzz(func(t *testing.T, doc []byte, s string, x float64) {
		var (
			res ResultJSON
			br  BatchResponse
			fr  WatchFrame
			ws  WatchSummary
		)
		// Partial decodes are fine: they are still documents to encode.
		_ = json.Unmarshal(doc, &res)
		_ = json.Unmarshal(doc, &br)
		_ = json.Unmarshal(doc, &fr)
		_ = json.Unmarshal(doc, &ws)
		radii := []RadiusJSON{{Feature: s, Radius: x, Kind: s, Boundary: []float64{x, -x, 1 / x}}, {Kind: s}}
		meta := &ResponseMeta{Node: s, Forwarded: true, Degraded: x > 0, Cache: s, Anytime: true}
		injected := ResultJSON{Name: s, Perturbation: s, Units: s, Robustness: x, Critical: s, Radii: radii, Meta: meta}
		for _, v := range []any{
			res, br, fr, ws, injected,
			BatchResponse{Results: []ResultJSON{injected, res, {}}, Meta: &ResponseMeta{}},
			WatchFrame{Step: int(x), Orig: []float64{x}, Robustness: x, Critical: s, Changed: radii, ChangedCount: len(s), Meta: meta},
			WatchSummary{Done: true, Steps: len(s), TotalChanged: -1, Error: s, ErrorKind: s},
		} {
			for _, indent := range []bool{false, true} {
				var want bytes.Buffer
				enc := json.NewEncoder(&want)
				if indent {
					enc.SetIndent("", "  ")
				}
				werr := enc.Encode(v)
				got, gerr := AppendJSON([]byte("prefix"), v, indent)
				switch {
				case (werr == nil) != (gerr == nil):
					t.Fatalf("%T indent=%v: json.Encoder error %v, AppendJSON error %v", v, indent, werr, gerr)
				case werr == nil && !bytes.Equal(got, append([]byte("prefix"), want.Bytes()...)):
					t.Fatalf("%T indent=%v: encodings differ:\njson   %q\nappend %q", v, indent, want.Bytes(), got[len("prefix"):])
				case werr != nil && string(got) != "prefix":
					t.Fatalf("%T indent=%v: failed encode extended dst to %q", v, indent, got)
				}
			}
		}
	})
}
