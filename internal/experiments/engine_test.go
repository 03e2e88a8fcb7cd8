package experiments

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim/machine"
	"repro/internal/workloads"
)

// tinyOptions keeps the engine-correctness tests fast; equivalence and
// determinism hold at any budget.
func tinyOptions() Options {
	return Options{Budget: 25_000, SweepBudget: 15_000, RosterBudget: 8_000}
}

// tinySession is shared by the equivalence tests below; like the
// engine's normal operation, every cache fills once and is reused.
var tinySession = NewSession(tinyOptions())

// visibleExceptReduction selects every paper unit but the §3
// reduction, which profiles its own 77-workload roster and dominates
// run time without exercising any shared cache.
func visibleExceptReduction() []string {
	var names []string
	for _, n := range VisibleUnitNames() {
		if n != "reduction" {
			names = append(names, n)
		}
	}
	return names
}

// TestSweepSingleTracePass is the counting probe of the memoized sweep
// cache: generating all four sweep figures must trace each distinct
// workload exactly once, not once per figure per view (the seed's 9
// group sweeps, 50 passes).
func TestSweepSingleTracePass(t *testing.T) {
	s := NewSession(tinyOptions())
	Fig6(s)
	Fig7(s)
	Fig8(s)
	Fig9(s)
	unique := len(hadoopGroup()) + len(parsecGroup()) + len(workloads.MPI6())
	if got := s.TracePasses(); got != int64(unique) {
		t.Fatalf("Fig6-9 executed %d trace passes, want exactly %d (one per workload)", got, unique)
	}
	// Re-running any figure must not trace anything again.
	Fig6(s)
	Fig9(s)
	if got := s.TracePasses(); got != int64(unique) {
		t.Fatalf("re-running figures re-traced: %d passes, want %d", got, unique)
	}
}

// Accessors selecting one view of a workload's curves, independent of
// the production view table so a mis-mapped view cannot hide.
func curveInst(c machine.Curves) []float64    { return c.Inst }
func curveData(c machine.Curves) []float64    { return c.Data }
func curveUnified(c machine.Curves) []float64 { return c.Unified }

// oracleGroup averages one view of the group's curves from per-workload
// concrete-cache oracle passes at the paper's geometry, in input order
// as sweepGroup averages. Passes are memoized in oracle by workload ID.
func oracleGroup(t *testing.T, oracle map[string]machine.Curves, list []workloads.Workload, budget int64, view func(machine.Curves) []float64) []float64 {
	t.Helper()
	sizes := machine.DefaultSweepSizesKB
	sum := make([]float64, len(sizes))
	for _, w := range list {
		c, ok := oracle[w.ID]
		if !ok {
			c = oracleCurves(t, w, budget, sizes, 0, 0)
			oracle[w.ID] = c
		}
		for i, v := range view(c) {
			sum[i] += v
		}
	}
	for i := range sum {
		sum[i] /= float64(len(list))
	}
	return sum
}

// assertFiguresMatchOracle checks Figs. 6-9 as the session renders
// them against the per-instruction concrete-cache oracle at the
// session's sweep budget: same groups, and bit for bit the same curves
// and knees for every figure and group.
func assertFiguresMatchOracle(t *testing.T, s *Session) {
	t.Helper()
	groups := map[string][]workloads.Workload{
		"Hadoop-workloads": hadoopGroup(),
		"PARSEC-workloads": parsecGroup(),
		"MPI-workloads":    workloads.MPI6(),
	}
	hp := []string{"Hadoop-workloads", "PARSEC-workloads"}
	figures := [4]struct {
		run   func(*Session) SweepResult
		view  func(machine.Curves) []float64
		order []string
	}{
		{Fig6, curveInst, hp},
		{Fig7, curveData, hp},
		{Fig8, curveUnified, hp},
		{Fig9, curveInst, []string{"Hadoop-workloads", "PARSEC-workloads", "MPI-workloads"}},
	}
	budget := s.Opt.SweepBudget
	oracle := map[string]machine.Curves{}
	for _, f := range figures {
		got := f.run(s)
		if !slices.Equal(got.Order, f.order) || len(got.Curves) != len(f.order) {
			t.Fatalf("budget %d: %s groups %v, want %v", budget, got.Title, got.Order, f.order)
		}
		want := SweepResult{SizesKB: got.SizesKB, Curves: map[string][]float64{}}
		for _, name := range f.order {
			want.Curves[name] = oracleGroup(t, oracle, groups[name], budget, f.view)
			wc, gc := want.Curves[name], got.Curves[name]
			if len(wc) != len(gc) {
				t.Fatalf("budget %d: %s/%s: %d sizes vs %d", budget, got.Title, name, len(gc), len(wc))
			}
			for i := range wc {
				if math.Float64bits(wc[i]) != math.Float64bits(gc[i]) {
					t.Errorf("budget %d: %s/%s at %d KB: memoized %v != oracle %v",
						budget, got.Title, name, got.SizesKB[i], gc[i], wc[i])
				}
			}
			for _, frac := range []float64{0.15, 0.2, 0.25} {
				if want.Knee(name, frac) != got.Knee(name, frac) {
					t.Errorf("budget %d: %s/%s knee(%.2f): memoized %d != oracle %d",
						budget, got.Title, name, frac, got.Knee(name, frac), want.Knee(name, frac))
				}
			}
		}
	}
}

// TestMemoizedSweepsMatchSerial asserts the memoized concurrent sweep
// path on the shared tiny session reproduces the per-instruction
// concrete-cache oracle bit for bit.
func TestMemoizedSweepsMatchSerial(t *testing.T) {
	assertFiguresMatchOracle(t, tinySession)
}

// renderAll renders every visible artifact of an engine run in order.
func renderAll(t *testing.T, results []UnitResult) string {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("unit %s: %v", r.Unit.Name, r.Err)
		}
		if r.Artifact != nil {
			r.Artifact.Render(&buf)
		}
	}
	return buf.String()
}

// TestEngineParallelMatchesSerial asserts the concurrent engine renders
// byte-identical output to a one-worker run, which visits units one at
// a time in definition order, primers first, for the same options —
// every table, figure, curve and knee.
func TestEngineParallelMatchesSerial(t *testing.T) {
	sel := visibleExceptReduction()
	serial := NewSession(tinyOptions())
	serial.Parallelism = 1
	es := &Engine{Session: serial, Select: sel}
	serialRes, err := es.Run()
	if err != nil {
		t.Fatal(err)
	}
	ep := &Engine{Session: tinySession, Select: sel}
	parRes, err := ep.Run()
	if err != nil {
		t.Fatal(err)
	}
	serialOut := renderAll(t, serialRes)
	parOut := renderAll(t, parRes)
	if serialOut != parOut {
		t.Fatalf("parallel engine output differs from serial output:\n--- serial %d bytes, parallel %d bytes",
			len(serialOut), len(parOut))
	}
	if len(serialOut) == 0 {
		t.Fatal("engine rendered nothing")
	}
}

// TestEngineSelectPullsDeps asserts selection runs the transitive
// primer closure and nothing else.
func TestEngineSelectPullsDeps(t *testing.T) {
	e := &Engine{Session: NewSession(Options{Budget: 10_000, SweepBudget: 8_000, RosterBudget: 8_000}),
		Select: []string{"fig6"}}
	results, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range results {
		names[r.Unit.Name] = true
	}
	for _, want := range []string{"fig6", "warm-sweep-hadoop", "warm-sweep-parsec"} {
		if !names[want] {
			t.Errorf("selected run missing %s (got %v)", want, names)
		}
	}
	if names["warm-reps"] || names["table2"] || names["fig9"] {
		t.Errorf("selected run pulled in unrelated units: %v", names)
	}
	// The sweep cache must hold only the two selected groups.
	if got, want := e.Session.TracePasses(), int64(len(hadoopGroup())+len(parsecGroup())); got != want {
		t.Errorf("selected run executed %d trace passes, want %d", got, want)
	}
}

// TestUnitsAreTwoLevel pins the shape the engine's two phases rely
// on: unit names are unique, hidden primers have no dependencies,
// every dependency of a visible unit names a primer, and every primer
// is some visible unit's dependency.
func TestUnitsAreTwoLevel(t *testing.T) {
	units := Units()
	hidden := map[string]bool{}
	seen := map[string]bool{}
	for _, u := range units {
		if seen[u.Name] {
			t.Errorf("duplicate unit name %q", u.Name)
		}
		seen[u.Name] = true
		if u.Hidden {
			hidden[u.Name] = true
			if len(u.Deps) != 0 {
				t.Errorf("primer %s has dependencies %v", u.Name, u.Deps)
			}
		}
	}
	used := map[string]bool{}
	for _, u := range units {
		if u.Hidden {
			continue
		}
		for _, d := range u.Deps {
			if !hidden[d] {
				t.Errorf("unit %s depends on %q, which is not a primer", u.Name, d)
			}
			used[d] = true
		}
	}
	for name := range hidden {
		if !used[name] {
			t.Errorf("primer %s is no visible unit's dependency", name)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := (&Engine{Session: NewSession(tinyOptions()), Select: []string{"nonesuch"}}).Run(); err == nil {
		t.Error("unknown selection not rejected")
	}
	if _, err := (&Engine{Session: NewSession(tinyOptions()), Select: []string{"warm-reps"}}).Run(); err == nil {
		t.Error("primer selection not rejected")
	}
}

func TestEngineTimingTable(t *testing.T) {
	e := &Engine{Session: tinySession, Select: []string{"table1", "table3"}}
	results, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	tt := TimingTable(results)
	// One row per unit plus the total line.
	if len(tt.Rows) != len(results)+1 {
		t.Fatalf("timing table has %d rows for %d results", len(tt.Rows), len(results))
	}
}

// TestSessionConcurrentAccess hammers every session cache from many
// goroutines at once; run under -race it guards the lock-free-read,
// once-guarded-fill pattern against regression. It also checks all
// callers observe the same cached values.
func TestSessionConcurrentAccess(t *testing.T) {
	s := NewSession(Options{Budget: 10_000, SweepBudget: 8_000, RosterBudget: 8_000})
	sweepList := append(append([]workloads.Workload{}, hadoopGroup()...), workloads.MPI6()...)
	const hammers = 8
	var wg sync.WaitGroup
	repsLen := make([]int, hammers)
	kneeKB := make([]int, hammers)
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			repsLen[g] = len(s.Reps())
			_ = s.MPI()
			_ = s.AtomReps()
			avg, runs := s.Suites()
			if len(avg) != len(runs) {
				t.Errorf("suite maps disagree: %d vs %d", len(avg), len(runs))
			}
			_ = s.BigDataAverage()
			for _, w := range sweepList {
				c := s.SweepCurvesMulti(w, s.Opt.SweepBudget, machine.DefaultSweepSizesKB, []int{0}, 0)[0]
				if len(c.Inst) == 0 || len(c.Data) == 0 || len(c.Unified) == 0 {
					t.Errorf("empty sweep curves for %s", w.ID)
				}
			}
			kneeKB[g] = Fig6(s).Knee("Hadoop-workloads", 0.2)
		}(g)
	}
	wg.Wait()
	for g := 1; g < hammers; g++ {
		if repsLen[g] != repsLen[0] {
			t.Errorf("goroutine %d saw %d reps, first saw %d", g, repsLen[g], repsLen[0])
		}
		if kneeKB[g] != kneeKB[0] {
			t.Errorf("goroutine %d computed knee %d, first computed %d", g, kneeKB[g], kneeKB[0])
		}
	}
	// Each sweep workload must have been traced exactly once despite
	// eight concurrent requesters, plus the PARSEC group from Fig6.
	want := int64(len(sweepList) + len(parsecGroup()))
	if got := s.TracePasses(); got != want {
		t.Errorf("%d trace passes under concurrency, want %d", got, want)
	}
}

// TestKneeEdgeCases pins the Knee contract on degenerate curves.
func TestKneeEdgeCases(t *testing.T) {
	sizes := []int{16, 32, 64}
	mk := func(c []float64) SweepResult {
		return SweepResult{SizesKB: sizes[:len(c)], Curves: map[string][]float64{"g": c}}
	}
	// Flat curve: the knee is the first (smallest) size — no capacity
	// is needed to reach the floor.
	if got := mk([]float64{0.3, 0.3, 0.3}).Knee("g", 0.2); got != 16 {
		t.Errorf("flat curve knee = %d KB, want 16", got)
	}
	// Monotonically rising curve: the 16 KB point is already the
	// minimum, so the knee is again the first size.
	if got := mk([]float64{0.1, 0.2, 0.3}).Knee("g", 0.2); got != 16 {
		t.Errorf("rising curve knee = %d KB, want 16", got)
	}
	// Single-size sweep: the only size is the knee.
	if got := mk([]float64{0.4}).Knee("g", 0.2); got != 16 {
		t.Errorf("single-size knee = %d KB, want 16", got)
	}
	// Zero miss ratio at the smallest size: defined as 0 (no curve).
	if got := mk([]float64{0, 0, 0}).Knee("g", 0.2); got != 0 {
		t.Errorf("zero curve knee = %d KB, want 0", got)
	}
	// Missing curve: 0.
	if got := mk([]float64{0.1}).Knee("absent", 0.2); got != 0 {
		t.Errorf("absent curve knee = %d KB, want 0", got)
	}
	// A normal descending curve: knee where the curve has descended
	// frac of its range from the 16 KB value.
	r := SweepResult{SizesKB: sizes, Curves: map[string][]float64{"g": {0.4, 0.2, 0.1}}}
	if got := r.Knee("g", 0.5); got != 32 {
		t.Errorf("descending curve knee = %d KB, want 32", got)
	}
}
