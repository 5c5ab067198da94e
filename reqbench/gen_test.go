package main

import (
	"bytes"
	"testing"

	"fepia/internal/batch"
	"fepia/internal/spec"
)

func TestSeedYieldsIdenticalBodies(t *testing.T) {
	for _, name := range []string{wlAnalyze, wlBatch, wlWatch} {
		a, err := newWorkload(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newWorkload(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newWorkload(name, 43)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.pool) != len(b.pool) {
			t.Fatalf("%s: pool sizes %d and %d for one seed", name, len(a.pool), len(b.pool))
		}
		for i := range a.pool {
			if !bytes.Equal(a.pool[i], b.pool[i]) {
				t.Fatalf("%s: body %d differs between two generations from one seed", name, i)
			}
		}
		if bytes.Equal(a.pool[0], c.pool[0]) {
			t.Errorf("%s: seeds 42 and 43 generated the same first body", name)
		}
	}
}

// TestPoolShapes pins the cache behaviour each workload relies on: the
// analyze pool fits the default radius cache, the batch pool holds more
// than twice its capacity in distinct radii.
func TestPoolShapes(t *testing.T) {
	a, err := newWorkload(wlAnalyze, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(a.pool) * wideDim; n > batch.DefaultCacheCapacity {
		t.Errorf("analyze pool has %d radii, more than the default cache holds (%d)", n, batch.DefaultCacheCapacity)
	}
	b, err := newWorkload(wlBatch, 1)
	if err != nil {
		t.Fatal(err)
	}
	radii := 0
	for _, body := range b.pool {
		systems, err := spec.ParseBatch(body)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range systems {
			radii += len(s.Features)
		}
	}
	if radii <= 2*batch.DefaultCacheCapacity {
		t.Errorf("batch pool has %d distinct radii, want more than twice the default capacity %d", radii, batch.DefaultCacheCapacity)
	}
}
