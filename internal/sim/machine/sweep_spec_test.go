package machine

import (
	"reflect"
	"testing"

	"repro/internal/workloads"
)

// TestNewSweepSpecGeometryChangesCurves runs the same trace against a
// different associativity and line size and expects different miss
// behaviour — the overrides must actually reach the caches.
func TestNewSweepSpecGeometryChangesCurves(t *testing.T) {
	sizes := []int{16, 32}
	w := workloads.Representative17()[4]
	const budget = 60_000

	def, err := NewSweepSpec(sizes, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	workloads.Run(w, def, budget)

	narrow, err := NewSweepSpec(sizes, 2, 128)
	if err != nil {
		t.Fatal(err)
	}
	workloads.Run(w, narrow, budget)

	if reflect.DeepEqual(def.Curves(), narrow.Curves()) {
		t.Fatal("2-way/128B curves identical to 8-way/64B — overrides ignored")
	}
}

// TestNewSweepSpecRejectsBadGeometry pins validation.
func TestNewSweepSpecRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		sizes      []int
		ways, line int
	}{
		{[]int{16}, 0, 48},         // line not a power of two
		{[]int{16}, 0, 4},          // line too small
		{[]int{16}, -1, 0},         // negative ways
		{[]int{16}, 3, 0},          // 16 KB not divisible into 3-way 64B sets
		{[]int{16}, 0, 8192},       // 16 KB smaller than one 8-way 8 KB-line set
		{[]int{16}, 1 << 58, 0},    // ways*line wraps to 0
		{[]int{16}, 0, 1 << 62},    // ways*line wraps to 0
		{[]int{16, 1 << 54}, 0, 0}, // kb<<10 wraps to 0
		{[]int{16, 1 << 30}, 0, 0}, // 2^34 lines: over the sweep cap
		{[]int{-16}, 0, 0},         // non-positive size
		{[]int{17}, 17, 0},         // wider than a concrete cache holds
		{[]int{16}, 32, 0},         // likewise
	}
	for _, c := range cases {
		if _, err := NewSweepSpec(c.sizes, c.ways, c.line); err == nil {
			t.Errorf("NewSweepSpec(%v, %d, %d) accepted invalid geometry", c.sizes, c.ways, c.line)
		}
	}
}
