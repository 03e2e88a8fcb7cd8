package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/sim/machine"
	"repro/internal/workloads"
)

// renderUnits renders every visible artifact of an engine run, keyed
// by unit name.
func renderUnits(t *testing.T, results []UnitResult) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("unit %s: %v", r.Unit.Name, r.Err)
		}
		if r.Unit.Hidden || r.Artifact == nil {
			continue
		}
		var buf bytes.Buffer
		r.Artifact.Render(&buf)
		out[r.Unit.Name] = buf.Bytes()
	}
	return out
}

// TestColdWarmEngineByteIdentical is the PR's acceptance probe: a
// warm-store engine run over a fresh store sharing the cold run's
// directory (modelling a second process) must render byte-identical
// output while executing zero dataset generations, zero trace passes
// and zero profiling runs.
func TestColdWarmEngineByteIdentical(t *testing.T) {
	dir := t.TempDir()

	cold, err := artifact.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	prev := datagen.SetStore(cold)
	t.Cleanup(func() { datagen.SetStore(prev) })

	coldSess := NewSession(tinyOptions())
	coldSess.Store = cold
	coldRes, err := (&Engine{Session: coldSess}).Run()
	if err != nil {
		t.Fatal(err)
	}
	coldOut := renderUnits(t, coldRes)
	if coldSess.TracePasses() == 0 || coldSess.ProfileRuns() == 0 || coldSess.Renders() == 0 {
		t.Fatalf("cold run recomputed nothing (trace=%d profile=%d renders=%d): probes broken",
			coldSess.TracePasses(), coldSess.ProfileRuns(), coldSess.Renders())
	}

	warm, err := artifact.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	datagen.SetStore(warm)
	gen0 := datagen.Generations()
	warmSess := NewSession(tinyOptions())
	warmSess.Store = warm
	warmRes, err := (&Engine{Session: warmSess}).Run()
	if err != nil {
		t.Fatal(err)
	}
	warmOut := renderUnits(t, warmRes)

	if got := warmSess.TracePasses(); got != 0 {
		t.Errorf("warm run executed %d trace passes, want 0", got)
	}
	if got := warmSess.ProfileRuns(); got != 0 {
		t.Errorf("warm run executed %d profiling runs, want 0", got)
	}
	if got := datagen.Generations() - gen0; got != 0 {
		t.Errorf("warm run executed %d dataset generations, want 0", got)
	}
	if got := warmSess.Renders(); got != 0 {
		t.Errorf("warm run rendered %d units, want 0 (render artefacts must persist)", got)
	}
	if len(warmOut) != len(coldOut) {
		t.Fatalf("warm run rendered %d units, cold %d", len(warmOut), len(coldOut))
	}
	for name, want := range coldOut {
		if got, ok := warmOut[name]; !ok {
			t.Errorf("warm run missing unit %s", name)
		} else if !bytes.Equal(got, want) {
			t.Errorf("unit %s: warm output differs from cold (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// bulkBackend is a map backend with a closure download, counting
// per-key Gets and FetchAll calls.
type bulkBackend struct {
	mu       sync.Mutex
	entries  map[string][]byte
	gets     int
	fetchAll int
}

func (b *bulkBackend) Get(id string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	e, ok := b.entries[id]
	return e, ok
}

func (b *bulkBackend) Put(id string, data []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.entries[id] = data
}

func (b *bulkBackend) FetchAll(ids []string) map[string][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fetchAll++
	out := map[string][]byte{}
	for _, id := range ids {
		if e, ok := b.entries[id]; ok {
			out[id] = e
		}
	}
	return out
}

// TestWarmEngineStagesEveryKeyItReads pins Engine.prefetch: after a
// cold full run has filled a bulk-capable backend, a full run in a
// fresh session over a new store on that backend must find every
// persisted key it reads in the one closure download — zero per-key
// backend Gets and exactly one FetchAll.
func TestWarmEngineStagesEveryKeyItReads(t *testing.T) {
	bb := &bulkBackend{entries: map[string][]byte{}}
	cold := NewSession(tinyOptions())
	cold.Store = artifact.NewWithBackend(bb)
	coldOut := runUnits(t, &Engine{Session: cold})

	bb.mu.Lock()
	bb.gets, bb.fetchAll = 0, 0
	bb.mu.Unlock()
	warm := NewSession(tinyOptions())
	warm.Store = artifact.NewWithBackend(bb)
	warmOut := runUnits(t, &Engine{Session: warm})

	bb.mu.Lock()
	gets, fetchAll := bb.gets, bb.fetchAll
	bb.mu.Unlock()
	if gets != 0 || fetchAll != 1 {
		t.Errorf("warm run issued %d per-key Gets and %d FetchAll calls, want 0 and 1", gets, fetchAll)
	}
	if st := warm.Store.Stats(); st.Prefetched == 0 || st.BackendHits != st.Prefetched {
		t.Errorf("warm run staged %d entries for %d backend hits, want every hit staged", st.Prefetched, st.BackendHits)
	}
	if len(warmOut) != len(coldOut) {
		t.Fatalf("warm run rendered %d units, cold %d", len(warmOut), len(coldOut))
	}
	for name, want := range coldOut {
		if !bytes.Equal(warmOut[name], want) {
			t.Errorf("unit %s: warm output differs from cold", name)
		}
	}
}

// TestColdScenarioLooksEachKeyUpOnce counts the backend lookups of a
// cold scenario shaped like the cold requests a serving fleet answers:
// H-Grep at 16 and 64 KB under ways {1, 8}, instruction view. Each of
// its three new keys — two sweep curves and the rendered scenario — is
// looked up once, by its own fill.
func TestColdScenarioLooksEachKeyUpOnce(t *testing.T) {
	bb := &bulkBackend{entries: map[string][]byte{}}
	s := NewSession(tinyOptions())
	s.Store = artifact.NewWithBackend(bb)
	spec := Scenario{Workloads: []string{"H-Grep"}, SizesKB: []int{16, 64}, WaysSet: []int{1, 8}}
	if _, err := RunScenario(s, spec); err != nil {
		t.Fatal(err)
	}
	bb.mu.Lock()
	defer bb.mu.Unlock()
	if bb.gets != 3 || len(bb.entries) != 3 {
		t.Errorf("cold scenario made %d backend Gets for %d new keys, want 3 and 3", bb.gets, len(bb.entries))
	}
}

// runUnits runs e and renders its visible units.
func runUnits(t *testing.T, e *Engine) map[string][]byte {
	t.Helper()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return renderUnits(t, res)
}

// TestShardedEngineMergesToFullRun partitions the visible units across
// two shards sharing one store (the in-process model of two processes
// sharing -cache-dir): the shards' outputs must partition the full
// run's visible set and merge to byte-identical artifacts.
func TestShardedEngineMergesToFullRun(t *testing.T) {
	sel := visibleExceptReduction()

	full := &Engine{Session: NewSession(tinyOptions()), Select: sel}
	fullRes, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	fullOut := renderUnits(t, fullRes)

	shared := artifact.New()
	merged := map[string][]byte{}
	for shard := 0; shard < 2; shard++ {
		sess := NewSession(tinyOptions())
		sess.Store = shared
		e := &Engine{Session: sess, Select: sel, Shard: shard, ShardCount: 2}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		for name, b := range renderUnits(t, res) {
			if _, dup := merged[name]; dup {
				t.Errorf("unit %s rendered by more than one shard", name)
			}
			merged[name] = b
		}
	}

	if len(merged) != len(fullOut) {
		t.Fatalf("shards rendered %d units, full run %d", len(merged), len(fullOut))
	}
	for name, want := range fullOut {
		if got, ok := merged[name]; !ok {
			t.Errorf("no shard rendered unit %s", name)
		} else if !bytes.Equal(got, want) {
			t.Errorf("unit %s: sharded output differs from full run", name)
		}
	}
}

func TestShardValidation(t *testing.T) {
	for _, bad := range [][2]int{{2, 2}, {-1, 2}, {1, 1}, {1, 0}} {
		e := &Engine{Session: NewSession(tinyOptions()), Shard: bad[0], ShardCount: bad[1]}
		if _, err := e.Run(); err == nil {
			t.Errorf("shard %d/%d not rejected", bad[0], bad[1])
		}
	}
}

// TestParseShard is the table-driven contract of the one shard-spec
// parser all three CLIs share: well-formed "i/n" specs parse, and
// malformed, signed, spaced, out-of-range or trailing-junk specs all
// fail loudly instead of silently producing an empty or aliased shard.
func TestParseShard(t *testing.T) {
	good := []struct {
		spec     string
		shard, n int
	}{
		{"0/2", 0, 2},
		{"1/2", 1, 2},
		{"1/3", 1, 3},
		{"7/8", 7, 8},
		{"02/16", 2, 16},
	}
	for _, tc := range good {
		i, n, err := ParseShard(tc.spec)
		if err != nil || i != tc.shard || n != tc.n {
			t.Errorf("ParseShard(%q) = %d, %d, %v; want %d, %d", tc.spec, i, n, err, tc.shard, tc.n)
		}
	}
	bad := []string{
		"",     // empty
		"1",    // no slash
		"1/",   // missing count
		"/2",   // missing shard
		"2/2",  // shard == count
		"3/2",  // shard > count
		"2/1",  // count < 2 (a "shard" that would silently drop work)
		"0/1",  // count < 2
		"0/0",  // count zero
		"-1/3", // negative shard
		"1/-3", // negative count
		"+1/3", // signs are not digits
		"1/+3",
		" 1/3", // padding
		"1/3 ",
		"1 /3",
		"0/2x", // trailing junk
		"x0/2",
		"1/3/5", // too many parts
		"a/b",
		"1.0/3",
	}
	for _, spec := range bad {
		if i, n, err := ParseShard(spec); err == nil {
			t.Errorf("ParseShard(%q) accepted as %d/%d", spec, i, n)
		}
	}
}

// FuzzParseShard feeds arbitrary -shard specs to ParseShard: it must
// never panic, an accepted spec names a shard 0 <= i < n of n >= 2,
// and the spec's plain decimal form parses back to the same shard.
func FuzzParseShard(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		i, n, err := ParseShard(spec)
		if err != nil {
			return
		}
		if n < 2 || i < 0 || i >= n {
			t.Fatalf("ParseShard(%q) accepted shard %d/%d", spec, i, n)
		}
		plain := fmt.Sprintf("%d/%d", i, n)
		if bi, bn, err := ParseShard(plain); err != nil || bi != i || bn != n {
			t.Fatalf("ParseShard(%q) = %d/%d, but %q parses as %d/%d (%v)", spec, i, n, plain, bi, bn, err)
		}
	})
}

// TestRosterMemoized pins the PR-1 follow-up: the 77-workload roster
// profiles once per session and the reduction consumes the cached
// pass.
func TestRosterMemoized(t *testing.T) {
	s := NewSession(tinyOptions())
	roster := s.Roster()
	if len(roster) != 77 {
		t.Fatalf("roster has %d profiles, want 77", len(roster))
	}
	runs := s.ProfileRuns()
	if runs != 77 {
		t.Fatalf("roster executed %d profiling runs, want 77", runs)
	}
	if again := s.Roster(); &again[0] != &roster[0] {
		t.Error("second Roster() rebuilt the set")
	}
	r, err := Reduction(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Profiles) != 77 {
		t.Fatalf("reduction saw %d profiles", len(r.Profiles))
	}
	if got := s.ProfileRuns(); got != runs {
		t.Errorf("reduction re-profiled: %d runs after, %d before", got, runs)
	}
}

// TestSessionsShareStore pins cross-session sharing: a second session
// over the same in-memory store recomputes nothing and observes
// identical values.
func TestSessionsShareStore(t *testing.T) {
	shared := artifact.New()
	s1 := NewSession(tinyOptions())
	s1.Store = shared
	reps := s1.Reps()
	c1 := s1.SweepCurvesMulti(workloads.MPI6()[0], s1.Opt.SweepBudget, machine.DefaultSweepSizesKB, []int{0}, 0)[0]

	s2 := NewSession(tinyOptions())
	s2.Store = shared
	reps2 := s2.Reps()
	c2 := s2.SweepCurvesMulti(workloads.MPI6()[0], s2.Opt.SweepBudget, machine.DefaultSweepSizesKB, []int{0}, 0)[0]
	if s2.ProfileRuns() != 0 || s2.TracePasses() != 0 {
		t.Fatalf("second session recomputed: %d profile runs, %d trace passes",
			s2.ProfileRuns(), s2.TracePasses())
	}
	for i := range reps {
		if reps[i].Vector != reps2[i].Vector {
			t.Fatalf("shared-store sessions disagree on %s", reps[i].Workload.ID)
		}
	}
	for i := range c1.Inst {
		if c1.Inst[i] != c2.Inst[i] {
			t.Fatal("shared-store sessions disagree on sweep curves")
		}
	}

	// cmd/bdbench reads the representatives as an ad-hoc list at the
	// session budget: the same artefacts Reps() filled.
	s3 := NewSession(tinyOptions())
	s3.Store = shared
	s3.Profiles(machine.XeonE5645(), workloads.Representative17(), s3.Opt.Budget)
	if s3.ProfileRuns() != 0 {
		t.Fatalf("ad-hoc read of the representatives after Reps() ran %d profiles, want 0", s3.ProfileRuns())
	}
}

// TestProfilesOrderAndCompleteness pins Session.Profiles, the one path
// every workload list is profiled through: one profiling run and one
// profile per workload, in input order, each with a vector, a run
// summary and a branch tally whose class breakdown adds up.
func TestProfilesOrderAndCompleteness(t *testing.T) {
	list := workloads.MPI6()
	s := NewSession(tinyOptions())
	profiles := s.Profiles(machine.XeonE5645(), list, 50_000)
	if len(profiles) != len(list) || s.ProfileRuns() != int64(len(list)) {
		t.Fatalf("%d profiles from %d runs for %d workloads", len(profiles), s.ProfileRuns(), len(list))
	}
	for i, p := range profiles {
		if p.Workload.ID != list[i].ID {
			t.Fatalf("profile %d out of order: %s != %s", i, p.Workload.ID, list[i].ID)
		}
		if p.Vector[metrics.IPC] <= 0 {
			t.Fatalf("%s: zero IPC", p.Workload.ID)
		}
		if p.Run == nil || p.Run.Insts == 0 {
			t.Fatalf("%s: missing run summary", p.Workload.ID)
		}
		b := p.Branch
		if b.Branches == 0 || b.Mispredicts != b.MisCond+b.MisRet+b.MisInd {
			t.Fatalf("%s: branch tally %+v: no branches, or classes do not sum to the mispredictions", p.Workload.ID, b)
		}
	}
}

// TestProfileKeysDisambiguateRosters guards the ID-collision trap:
// Table 2's H-Difference (Hive) and the roster's H-Difference (Hadoop)
// share an ID but must not share a store artefact.
func TestProfileKeysDisambiguateRosters(t *testing.T) {
	var repsHD, rosterHD workloads.Workload
	for _, w := range workloads.Representative17() {
		if w.ID == "H-Difference" {
			repsHD = w
		}
	}
	for _, w := range workloads.Roster77() {
		if w.ID == "H-Difference" {
			rosterHD = w
		}
	}
	if repsHD.Stack.Name == rosterHD.Stack.Name {
		t.Skip("rosters no longer collide on H-Difference")
	}
	if workloads.Signature(repsHD) == workloads.Signature(rosterHD) {
		t.Fatal("signatures collide for distinct H-Difference definitions")
	}

	s := NewSession(tinyOptions())
	a := s.Profiles(machine.XeonE5645(), []workloads.Workload{repsHD}, s.Opt.Budget)
	b := s.Profiles(machine.XeonE5645(), []workloads.Workload{rosterHD}, s.Opt.Budget)
	if s.ProfileRuns() != 2 {
		t.Fatalf("%d profiling runs for two distinct definitions, want 2", s.ProfileRuns())
	}
	if a[0].Vector == b[0].Vector {
		t.Fatal("distinct stacks produced identical vectors — cache collision?")
	}
}
