package spec

import (
	"testing"

	"fepia/internal/core"
)

// parseSeeds are the spec documents every fuzz target of this package
// starts from.
var parseSeeds = []string{
	webFarm,
	`{`,
	`{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"linear","coeffs":[1]}}]}`,
	`{"perturbation":{"orig":[0,0]},"norm":"l1","features":[{"min":-1,"impact":{"type":"terms","terms":[{"kind":"exp","index":1,"coeff":2,"p":0.1}]}}]}`,
	`{"perturbation":{"orig":[1e308,1e308]},"features":[{"max":1e308,"impact":{"type":"linear","coeffs":[1e308,1e308]}}]}`,
}

// FuzzParse checks that arbitrary byte input never panics the spec parser
// and that everything it accepts is actually analysable (the invariant
// downstream tools rely on). Run the seeds with `go test`; explore with
// `go test -fuzz=FuzzParse ./internal/spec`.
func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := Parse(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted specs must be analysable without panicking. Errors are
		// legitimate (e.g. non-ℓ₂ norm with a non-linear impact).
		a, err := core.Analyze(sys.Features, sys.Perturbation, sys.Options)
		if err != nil {
			return
		}
		// And the result must be encodable.
		_ = Encode(sys.Name, a)
	})
}
