package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/sim/machine"
)

// TestScenarioCanonicalEquivalence pins the keying contract: specs
// meaning the same experiment — unordered selections, explicit
// defaults, mixed-case names — canonicalize identically and therefore
// share one artifact key.
func TestScenarioCanonicalEquivalence(t *testing.T) {
	opt := tinyOptions()
	a := Scenario{
		Groups:    []string{"parsec", "hadoop", "hadoop"},
		Workloads: []string{"S-Sort", "H-Grep"},
		Views:     []string{"data", "inst"},
	}
	b := Scenario{
		Groups:    []string{"Hadoop", "PARSEC"},
		Workloads: []string{"H-Grep", "S-Sort", "H-Grep"},
		Budget:    opt.SweepBudget, // explicit default
		SizesKB:   []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192},
		Ways:      8,  // explicit modeled default folds to 0
		LineBytes: 64, // likewise
		Views:     []string{"inst", "data"},
	}
	ca, err := a.Canonical(opt)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical(opt)
	if err != nil {
		t.Fatal(err)
	}
	if ScenarioKey(ca).ID() != ScenarioKey(cb).ID() {
		t.Fatalf("equivalent specs keyed differently:\n%s\n%s",
			ScenarioKey(ca).Label, ScenarioKey(cb).Label)
	}
	if ca.Ways != 0 || ca.LineBytes != 0 {
		t.Fatalf("default geometry not folded: %+v", ca)
	}
	// Canonical is idempotent.
	cc, err := ca.Canonical(opt)
	if err != nil || ScenarioKey(cc).ID() != ScenarioKey(ca).ID() {
		t.Fatalf("Canonical not idempotent: %v", err)
	}
}

// TestScenarioCanonicalAllocs pins the serving daemon's warm scenario
// path: canonicalizing a spec validates its workload IDs against the
// once-built ID set and constructs no Workload. Building the
// catalogue takes about 256 allocations, so the cap catches any call
// that builds it per request.
func TestScenarioCanonicalAllocs(t *testing.T) {
	spec := Scenario{Workloads: []string{"H-Grep", "S-Sort"}, SizesKB: []int{16, 64, 256}}
	opt := Quick()
	if _, err := spec.Canonical(opt); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { spec.Canonical(opt) }); n > 16 {
		t.Fatalf("Canonical allocates %.0f times per call, want <= 16", n)
	}
}

// TestScenarioIDsMatchCatalogue keeps validation and the cold path in
// step: Canonical accepts exactly the IDs run can resolve.
func TestScenarioIDsMatchCatalogue(t *testing.T) {
	catalogue := scenarioCatalogue()
	ids := scenarioIDs()
	if len(ids) != len(catalogue) {
		t.Fatalf("ID set holds %d IDs, catalogue %d", len(ids), len(catalogue))
	}
	for id := range catalogue {
		if _, ok := ids[id]; !ok {
			t.Errorf("catalogue workload %q missing from the ID set", id)
		}
	}
}

// TestScenarioValidation pins rejection of every malformed field.
func TestScenarioValidation(t *testing.T) {
	opt := tinyOptions()
	bad := []Scenario{
		{},                                 // selects nothing
		{Groups: []string{"nosuchgroup"}},  // unknown group
		{Workloads: []string{"Z-Nothing"}}, // unknown workload
		{Groups: []string{"mpi"}, SizesKB: []int{0}},            // non-positive size
		{Groups: []string{"mpi"}, SizesKB: []int{64, 64}},       // duplicate size
		{Groups: []string{"mpi"}, Ways: 3},                      // fractional sets at 16 KB
		{Groups: []string{"mpi"}, LineBytes: 48},                // line not a power of two
		{Groups: []string{"mpi"}, Views: []string{"imaginary"}}, // unknown view
		{Groups: []string{"mpi"}, Budget: 1 << 40},              // absurd budget
		// Geometries whose sweep would exhaust memory or overflow the
		// set arithmetic: each used to crash the serving daemon.
		{Workloads: []string{"H-Grep"}, SizesKB: []int{1 << 30}},            // 1 TB: 2^34 lines
		{Workloads: []string{"H-Grep"}, SizesKB: []int{16, 1 << 30}},        // a later size over the cap
		{Workloads: []string{"H-Grep"}, Ways: 1 << 58},                      // ways*line wraps to 0
		{Workloads: []string{"H-Grep"}, LineBytes: 1 << 62},                 // ways*line wraps to 0
		{Workloads: []string{"H-Grep"}, SizesKB: []int{16, 1 << 54}},        // kb<<10 wraps to 0
		{Workloads: []string{"H-Grep"}, LineBytes: 8, WaysSet: []int{1, 2}}, // every size fits; 3,143,680 words summed
	}
	for i, sc := range bad {
		if _, err := sc.Canonical(opt); err == nil {
			t.Errorf("case %d (%+v) passed validation", i, sc)
		}
	}
}

// TestScenarioMatchesPaperFigure pins artefact sharing: a scenario at
// default budget/sizes/geometry pulls the same per-workload sweep
// artefacts the paper figures fill — running fig6's groups as a
// scenario over a warm store must trace nothing new.
func TestScenarioMatchesPaperFigure(t *testing.T) {
	store := artifact.New()
	s := NewSession(tinyOptions())
	s.Store = store

	// Warm the store with fig6's sweeps.
	Fig6(s)
	warmPasses := s.TracePasses()
	if warmPasses == 0 {
		t.Fatal("Fig6 traced nothing")
	}

	out, err := RunScenario(s, Scenario{Groups: []string{"hadoop", "parsec"}})
	if err != nil {
		t.Fatal(err)
	}
	if s.TracePasses() != warmPasses {
		t.Fatalf("default-geometry scenario re-traced: %d -> %d passes", warmPasses, s.TracePasses())
	}
	if !strings.Contains(string(out), "hadoop-workloads") || !strings.Contains(string(out), "knee(") {
		t.Fatalf("scenario rendering missing expected content:\n%s", out)
	}
}

// TestScenarioPricesOnlyItsViews pins the per-view cost model. A
// default-view scenario over N workloads makes N passes and stores
// instruction curves alone; a later data-view request at the same
// geometry makes one more pass per workload it names and stores data
// curves alone; a three-view scenario still makes one pass per
// workload.
func TestScenarioPricesOnlyItsViews(t *testing.T) {
	opt := tinyOptions()
	ids := []string{"H-Grep", "S-Sort"}
	catalogue := scenarioCatalogue()
	stored := func(s *Session, id, view string) bool {
		key := sweepKeyFor(catalogue[id], opt.SweepBudget, machine.DefaultSweepSizesKB, 0, 0, view)
		_, ok := artifact.Peek(s.ArtifactStore(), key, func([]float64) bool { return true })
		return ok
	}
	expect := func(s *Session, passes int64, views map[string][]string) {
		t.Helper()
		if s.TracePasses() != passes {
			t.Errorf("%d trace passes, want %d", s.TracePasses(), passes)
		}
		for _, id := range ids {
			for _, sv := range sweepViews {
				want := slices.Contains(views[id], sv.name)
				if got := stored(s, id, sv.name); got != want {
					t.Errorf("%s %s curves stored %v, want %v", id, sv.name, got, want)
				}
			}
		}
	}

	s := NewSession(opt)
	if _, err := RunScenario(s, Scenario{Workloads: ids}); err != nil {
		t.Fatal(err)
	}
	expect(s, 2, map[string][]string{"H-Grep": {"inst"}, "S-Sort": {"inst"}})
	if _, err := RunScenario(s, Scenario{Workloads: ids[:1], Views: []string{"data"}}); err != nil {
		t.Fatal(err)
	}
	expect(s, 3, map[string][]string{"H-Grep": {"inst", "data"}, "S-Sort": {"inst"}})

	all := NewSession(opt)
	if _, err := RunScenario(all, Scenario{Workloads: ids, Views: []string{"inst", "data", "unified"}}); err != nil {
		t.Fatal(err)
	}
	every := []string{"inst", "data", "unified"}
	expect(all, 2, map[string][]string{"H-Grep": every, "S-Sort": every})
}

// TestScenarioWarmRepeatIsPureStoreIO pins the serving fast path: the
// second identical request renders nothing and simulates nothing, and
// the bytes are identical — including across sessions sharing the
// store.
func TestScenarioWarmRepeatIsPureStoreIO(t *testing.T) {
	store := artifact.New()
	s := NewSession(tinyOptions())
	s.Store = store
	spec := Scenario{Name: "warmth", Workloads: []string{"H-Grep", "S-Sort"}, Views: []string{"inst", "unified"}}

	cold, err := RunScenario(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Renders() != 1 {
		t.Fatalf("cold scenario renders = %d, want 1", s.Renders())
	}
	warm, err := RunScenario(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm scenario bytes differ")
	}
	if s.Renders() != 1 || s.TracePasses() != 2 {
		t.Fatalf("warm repeat recomputed: renders=%d passes=%d", s.Renders(), s.TracePasses())
	}

	other := NewSession(tinyOptions())
	other.Store = store
	again, err := RunScenario(other, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, again) {
		t.Fatal("cross-session scenario bytes differ")
	}
	if other.Renders() != 0 || other.TracePasses() != 0 {
		t.Fatalf("cross-session warm scenario recomputed: renders=%d passes=%d",
			other.Renders(), other.TracePasses())
	}
}

// TestScenarioGeometryOverridesChangeContent pins that ways/line
// overrides flow through to the caches: the same selection at 2-way
// associativity renders different numbers and keys differently.
func TestScenarioGeometryOverridesChangeContent(t *testing.T) {
	s := NewSession(tinyOptions())
	base := Scenario{Workloads: []string{"H-Grep"}, SizesKB: []int{16, 64}}
	narrow := Scenario{Workloads: []string{"H-Grep"}, SizesKB: []int{16, 64}, Ways: 2}

	cb, err := base.Canonical(s.Opt)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := narrow.Canonical(s.Opt)
	if err != nil {
		t.Fatal(err)
	}
	if ScenarioKey(cb).ID() == ScenarioKey(cn).ID() {
		t.Fatal("geometry override did not change the scenario key")
	}
	ob, err := RunScenario(s, base)
	if err != nil {
		t.Fatal(err)
	}
	on, err := RunScenario(s, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ob, on) {
		t.Fatal("2-way scenario rendered identical bytes to 8-way")
	}
}

// FuzzScenarioCanonical feeds arbitrary JSON request bodies to
// Canonical, as the serving daemon does: it must never panic, an
// accepted spec must be a fixed point, and the spec's key must survive
// a JSON round trip. The committed seeds include the golden scenarios
// and geometries that once crashed the daemon.
func FuzzScenarioCanonical(f *testing.F) {
	opt := Quick()
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Scenario
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		canon, err := spec.Canonical(opt)
		if err != nil {
			return
		}
		again, err := canon.Canonical(opt)
		if err != nil {
			t.Fatalf("canonical form %+v rejected: %v", canon, err)
		}
		if !reflect.DeepEqual(again, canon) {
			t.Fatalf("Canonical is not idempotent:\n%+v\n%+v", canon, again)
		}
		enc, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		var back Scenario
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatal(err)
		}
		if ScenarioKey(back).ID() != ScenarioKey(canon).ID() {
			t.Fatalf("key changed across a JSON round trip: %s", enc)
		}
	})
}
