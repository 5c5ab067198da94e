package spec

import (
	"errors"
	"strings"
	"testing"
)

// TestValidationErrorPaths checks every parse failure is a typed
// *ValidationError carrying the JSON field path of the offending value
// and matching the ErrInvalidSpec sentinel.
func TestValidationErrorPaths(t *testing.T) {
	cases := []struct {
		name, doc, wantPath string
	}{
		{"malformed JSON", `{`, ""},
		{"empty perturbation", `{"features":[{"max":1,"impact":{"type":"linear","coeffs":[1]}}]}`, "perturbation"},
		{"unknown norm", `{"perturbation":{"orig":[1]},"norm":"l7","features":[{"max":1,"impact":{"type":"linear","coeffs":[1]}}]}`, "norm"},
		{"no features", `{"perturbation":{"orig":[1]}}`, "features"},
		{"no bounds", `{"perturbation":{"orig":[1]},"features":[{"impact":{"type":"linear","coeffs":[1]}}]}`, "features[0]"},
		{"inverted bounds", `{"perturbation":{"orig":[1]},"features":[{"min":5,"max":1,"impact":{"type":"linear","coeffs":[1]}}]}`, "features[0]"},
		{"coeff dimension", `{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"linear","coeffs":[1,2]}}]}`, "features[0].impact.coeffs"},
		{"missing type", `{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{}}]}`, "features[0].impact.type"},
		{"unknown type", `{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"magic"}}]}`, "features[0].impact.type"},
		{"empty terms", `{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"terms"}}]}`, "features[0].impact.terms"},
		{"unknown kind", `{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"terms","terms":[{"kind":"linear","index":0,"coeff":1},{"kind":"quux","index":0,"coeff":1}]}}]}`, "features[0].impact.terms[1].kind"},
		{"bad term index", `{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"terms","terms":[{"kind":"linear","index":5,"coeff":1}]}}]}`, "features[0].impact.terms"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: %v does not match ErrInvalidSpec", tc.name, err)
		}
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Errorf("%s: %T is not a *ValidationError", tc.name, err)
			continue
		}
		if ve.Path != tc.wantPath {
			t.Errorf("%s: path %q, want %q (msg: %s)", tc.name, ve.Path, tc.wantPath, ve.Msg)
		}
		if !strings.Contains(err.Error(), "spec: ") {
			t.Errorf("%s: error text %q lacks the spec prefix", tc.name, err)
		}
	}
}

// TestValidationErrorUnwrap checks the underlying cause stays reachable.
func TestValidationErrorUnwrap(t *testing.T) {
	_, err := Parse([]byte(`{`))
	var ve *ValidationError
	if !errors.As(err, &ve) || ve.Err == nil {
		t.Fatalf("malformed JSON lost its cause: %+v", err)
	}
	if !strings.Contains(ve.Msg, "malformed JSON") {
		t.Errorf("msg = %q", ve.Msg)
	}
}

// TestPrefixPath relocates validation paths and passes other errors
// through.
func TestPrefixPath(t *testing.T) {
	inner := &ValidationError{Path: "features[2].impact", Msg: "x"}
	var ve *ValidationError
	if !errors.As(PrefixPath("systems[7]", inner), &ve) || ve.Path != "systems[7].features[2].impact" {
		t.Errorf("prefixed path = %+v", ve)
	}
	if !errors.As(PrefixPath("systems[0]", &ValidationError{Msg: "doc-level"}), &ve) || ve.Path != "systems[0]" {
		t.Errorf("doc-level prefix = %+v", ve)
	}
	plain := errors.New("not a validation error")
	if got := PrefixPath("systems[0]", plain); got != plain {
		t.Errorf("non-validation error was rewritten: %v", got)
	}
}

// batchDoc is the reference two-system batch document.
const batchDoc = `{"systems": [
  {"name":"a","perturbation":{"orig":[1,2]},"features":[{"max":10,"impact":{"type":"linear","coeffs":[1,1]}}]},
  {"name":"b","perturbation":{"orig":[3]},"norm":"l1","features":[{"max":9,"impact":{"type":"linear","coeffs":[2]}}]}
]}`

// TestParseBatch round-trips the batch envelope and roots inner failures
// at systems[i].
func TestParseBatch(t *testing.T) {
	systems, err := ParseBatch([]byte(batchDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) != 2 || systems[0].Name != "a" || systems[1].Name != "b" {
		t.Fatalf("parsed: %+v", systems)
	}

	for name, tc := range map[string]struct{ doc, wantPath string }{
		"malformed":  {`{"systems": [`, ""},
		"empty":      {`{"systems": []}`, "systems"},
		"bad second": {`{"systems": [{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"linear","coeffs":[1]}}]},{"perturbation":{"orig":[1]},"features":[]}]}`, "systems[1].features"},
	} {
		_, err := ParseBatch([]byte(tc.doc))
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Errorf("%s: %v is not a ValidationError", name, err)
			continue
		}
		if ve.Path != tc.wantPath {
			t.Errorf("%s: path %q, want %q", name, ve.Path, tc.wantPath)
		}
	}
}
