package experiments

import (
	"bytes"
	"math"
	"sync"
	"testing"

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
// workload exactly once, not once per figure per view (the seed's 10
// group passes).
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

// TestMemoizedSweepsMatchSerial asserts the memoized concurrent sweep
// path reproduces the seed's serial path bit for bit: same curves, same
// knees, for every figure and group.
func TestMemoizedSweepsMatchSerial(t *testing.T) {
	serial := SerialSweepFigures(NewSession(tinyOptions()))
	s := tinySession
	memo := [4]SweepResult{Fig6(s), Fig7(s), Fig8(s), Fig9(s)}
	for f := range serial {
		want, got := serial[f], memo[f]
		if want.Title != got.Title {
			t.Fatalf("figure %d title %q vs %q", f, got.Title, want.Title)
		}
		for _, name := range want.Order {
			wc, gc := want.Curves[name], got.Curves[name]
			if len(wc) != len(gc) {
				t.Fatalf("%s/%s: %d sizes vs %d", want.Title, name, len(gc), len(wc))
			}
			for i := range wc {
				if math.Float64bits(wc[i]) != math.Float64bits(gc[i]) {
					t.Errorf("%s/%s at %d KB: memoized %v != serial %v",
						want.Title, name, want.SizesKB[i], gc[i], wc[i])
				}
			}
			for _, frac := range []float64{0.15, 0.2, 0.25} {
				if want.Knee(name, frac) != got.Knee(name, frac) {
					t.Errorf("%s/%s knee(%.2f): memoized %d != serial %d",
						want.Title, name, frac, got.Knee(name, frac), want.Knee(name, frac))
				}
			}
		}
	}
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
// a time in dependency order, for the same options — every table,
// figure, curve and knee.
func TestEngineParallelMatchesSerial(t *testing.T) {
	sel := visibleExceptReduction()
	es := &Engine{Session: NewSession(tinyOptions()), Parallelism: 1, Select: sel}
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

func TestEngineValidation(t *testing.T) {
	if _, err := (&Engine{Session: NewSession(tinyOptions()), Select: []string{"nonesuch"}}).Run(); err == nil {
		t.Error("unknown selection not rejected")
	}
	bad := []Unit{
		{Name: "a", Deps: []string{"b"}, Run: func(*Session) (Artifact, error) { return nil, nil }},
		{Name: "b", Deps: []string{"a"}, Run: func(*Session) (Artifact, error) { return nil, nil }},
	}
	if _, err := (&Engine{Session: NewSession(tinyOptions()), Units: bad}).Run(); err == nil {
		t.Error("dependency cycle not rejected")
	}
	dangling := []Unit{{Name: "a", Deps: []string{"ghost"}, Run: func(*Session) (Artifact, error) { return nil, nil }}}
	if _, err := (&Engine{Session: NewSession(tinyOptions()), Units: dangling}).Run(); err == nil {
		t.Error("unknown dependency not rejected")
	}
	dup := []Unit{
		{Name: "a", Run: func(*Session) (Artifact, error) { return nil, nil }},
		{Name: "a", Run: func(*Session) (Artifact, error) { return nil, nil }},
	}
	if _, err := (&Engine{Session: NewSession(tinyOptions()), Units: dup}).Run(); err == nil {
		t.Error("duplicate unit name not rejected")
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
				c := s.SweepCurves(w, s.Opt.SweepBudget)
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

// TestFig6Fig9QualitativeClaims re-pins the paper's §5.4/§5.5 readings
// through the engine path: the Hadoop instruction footprint dwarfs
// PARSEC's, and the MPI implementations track PARSEC, not Hadoop.
func TestFig6Fig9QualitativeClaims(t *testing.T) {
	s := quickSession
	f6 := Fig6(s)
	hk := f6.Knee("Hadoop-workloads", 0.2)
	pk := f6.Knee("PARSEC-workloads", 0.2)
	if hk <= pk {
		t.Errorf("Fig6: Hadoop knee %d KB not beyond PARSEC knee %d KB (paper: ~1024 vs ~128)", hk, pk)
	}
	f9 := Fig9(s)
	mk := f9.Knee("MPI-workloads", 0.2)
	pk9 := f9.Knee("PARSEC-workloads", 0.2)
	hk9 := f9.Knee("Hadoop-workloads", 0.2)
	if mk > pk9*4 {
		t.Errorf("Fig9: MPI knee %d KB far beyond PARSEC knee %d KB — should track PARSEC", mk, pk9)
	}
	if mk >= hk9 {
		t.Errorf("Fig9: MPI knee %d KB not below Hadoop knee %d KB", mk, hk9)
	}
	// And at the smallest cache the MPI miss ratio sits with PARSEC's
	// order of magnitude, well below Hadoop's.
	m16 := f9.Curves["MPI-workloads"][0]
	h16 := f9.Curves["Hadoop-workloads"][0]
	if m16 >= h16 {
		t.Errorf("Fig9 at 16 KB: MPI %.4f not below Hadoop %.4f", m16, h16)
	}
}
