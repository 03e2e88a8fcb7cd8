package experiments

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim/machine"
	"repro/internal/workloads"
)

// oracleCurves fills one geometry's curves through the concrete-cache
// oracle: one machine.NewSweepSpec pass over the workload's trace,
// every cache accessed instruction by instruction.
func oracleCurves(t *testing.T, w workloads.Workload, budget int64, sizes []int, ways, line int) machine.Curves {
	t.Helper()
	sw, err := machine.NewSweepSpec(sizes, ways, line)
	if err != nil {
		t.Fatal(err)
	}
	workloads.Run(w, sw, budget)
	return sw.Curves()
}

// TestSweepEnginesByteIdentical is the session-level differential: the
// session's stack-distance curves must equal the concrete-cache
// oracle's bit for bit at every geometry, costing one trace pass each.
func TestSweepEnginesByteIdentical(t *testing.T) {
	opt := tinyOptions()
	w := workloads.Representative17()[14] // H-WordCount
	cases := []struct {
		sizes      []int
		ways, line int
	}{
		{[]int{16, 64, 256}, 0, 0},
		{[]int{16, 64, 256}, 1, 0},
		{[]int{16, 64, 256}, 16, 0},
		{[]int{16, 32}, 2, 128},
	}
	s := NewSession(opt)
	for _, c := range cases {
		got := s.SweepCurvesMulti(w, opt.SweepBudget, c.sizes, []int{c.ways}, c.line)[0]
		want := oracleCurves(t, w, opt.SweepBudget, c.sizes, c.ways, c.line)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ways=%d line=%d: session diverges from the cache oracle\nsession %+v\noracle  %+v", c.ways, c.line, got, want)
		}
	}
	if s.TracePasses() != int64(len(cases)) {
		t.Errorf("session ran %d trace passes, want %d", s.TracePasses(), len(cases))
	}
}

// TestSweepCurvesMultiOnePass pins the multi-geometry cost model: N
// cold associativities fill from exactly one trace pass, each under
// the same key a single-geometry request would use (so follow-up
// single requests are pure store hits), and each bit-identical to the
// concrete-cache oracle.
func TestSweepCurvesMultiOnePass(t *testing.T) {
	opt := tinyOptions()
	w := workloads.Representative17()[4] // S-WordCount
	sizes := []int{16, 64, 256, 1024}
	waysList := []int{1, 2, 8, 16}

	s := NewSession(opt)
	multi := s.SweepCurvesMulti(w, opt.SweepBudget, sizes, waysList, 0)
	if got := s.TracePasses(); got != 1 {
		t.Fatalf("multi-geometry fill cost %d trace passes, want 1", got)
	}
	for i, ways := range waysList {
		if want := oracleCurves(t, w, opt.SweepBudget, sizes, ways, 0); !reflect.DeepEqual(multi[i], want) {
			t.Errorf("ways=%d: multi curves diverge from the cache oracle", ways)
		}
		// Same keys: a single-geometry request must hit warm.
		if got := s.SweepCurvesMulti(w, opt.SweepBudget, sizes, []int{ways}, 0)[0]; !reflect.DeepEqual(got, multi[i]) {
			t.Errorf("ways=%d: single-geometry readback differs", ways)
		}
	}
	if got := s.TracePasses(); got != 1 {
		t.Fatalf("warm readbacks re-traced: %d passes", got)
	}
}

// TestSweepCurvesConcurrentOrders fills the same cold keys from
// concurrent callers listing the associativities in opposite orders
// (ways 8 is the default, 0): they must not deadlock on each other's
// flights, must agree, and must share one trace pass.
func TestSweepCurvesConcurrentOrders(t *testing.T) {
	opt := tinyOptions()
	w := workloads.MPI6()[0]
	sizes := []int{16, 64}
	orders := [2][]int{{0, 4}, {4, 8}}
	s := NewSession(opt)
	got := make([][]machine.Curves, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = s.SweepCurvesMulti(w, opt.SweepBudget, sizes, orders[i%2], 0)
		}(i)
	}
	wg.Wait()
	for i := 2; i < len(got); i++ {
		if !reflect.DeepEqual(got[i], got[i%2]) {
			t.Errorf("caller %d disagrees with caller %d", i, i%2)
		}
	}
	if !reflect.DeepEqual(got[0][0], got[1][1]) || !reflect.DeepEqual(got[0][1], got[1][0]) {
		t.Error("the two orders disagree")
	}
	if n := s.TracePasses(); n != 1 {
		t.Errorf("%d trace passes, want 1", n)
	}
}

// TestScenarioWaysSetCanonical pins the multi-associativity keying
// contract: sorted dedup, singleton folding into the single-geometry
// form (defaults folding further to zero), and rejection of the
// malformed combinations.
func TestScenarioWaysSetCanonical(t *testing.T) {
	opt := tinyOptions()

	one, err := Scenario{Groups: []string{"mpi"}, WaysSet: []int{8}}.Canonical(opt)
	if err != nil {
		t.Fatal(err)
	}
	def, err := Scenario{Groups: []string{"mpi"}}.Canonical(opt)
	if err != nil {
		t.Fatal(err)
	}
	if ScenarioKey(one).ID() != ScenarioKey(def).ID() {
		t.Error("ways_set [8] does not alias the default-geometry scenario")
	}

	multi, err := Scenario{Groups: []string{"mpi"}, WaysSet: []int{16, 2, 2, 8}}.Canonical(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(multi.WaysSet, []int{2, 8, 16}) || multi.Ways != 0 {
		t.Errorf("ways_set not sorted/deduped: %+v", multi)
	}
	again, err := multi.Canonical(opt)
	if err != nil || ScenarioKey(again).ID() != ScenarioKey(multi).ID() {
		t.Fatalf("Canonical not idempotent over ways_set: %v", err)
	}

	bad := []Scenario{
		{Groups: []string{"mpi"}, Ways: 2, WaysSet: []int{4}},                   // both forms
		{Groups: []string{"mpi"}, WaysSet: []int{1, 2, 3, 4, 5, 6, 7, 8, 16}},   // over limit
		{Groups: []string{"mpi"}, WaysSet: []int{0}},                            // non-positive
		{Groups: []string{"mpi"}, WaysSet: []int{-2, 4}},                        // negative
		{Groups: []string{"mpi"}, WaysSet: []int{3}},                            // fractional sets at 16 KB
		{Groups: []string{"mpi"}, WaysSet: []int{2, 6}, SizesKB: []int{16, 32}}, // 6-way doesn't divide
	}
	for i, sc := range bad {
		if _, err := sc.Canonical(opt); err == nil {
			t.Errorf("case %d (%+v) passed validation", i, sc)
		}
	}
}

// TestScenarioWaysSetOnePassByteIdentical runs the golden
// multi-associativity scenario at Quick(): its bytes must hash to the
// committed digest, and the whole geometry set must cost one trace
// pass per workload.
func TestScenarioWaysSetOnePassByteIdentical(t *testing.T) {
	s := NewSession(Quick())
	got, err := RunScenario(s, goldenScenarios["multigeo"])
	if err != nil {
		t.Fatal(err)
	}
	if s.TracePasses() != 1 {
		t.Errorf("multigeo scenario cost %d trace passes, want 1", s.TracePasses())
	}
	if sum, want := sha256Hex(got), goldenDigests(t)["scenario/multigeo"]; sum != want {
		t.Fatalf("multigeo scenario digest %s, golden %s:\n%s", sum, want, got)
	}
}
