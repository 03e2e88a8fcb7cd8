// Package experiments regenerates every table and figure of the
// paper's evaluation (Tables 1-4, Figures 1-9, the §3 reduction and the
// §5.5 software-stack study). Each experiment returns structured rows
// and can render itself; cmd/repro and the root bench harness drive
// them, usually through the concurrent Engine.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim/machine"
	"repro/internal/suites"
	"repro/internal/workloads"
)

// Options size the experiment runs.
type Options struct {
	// Budget is the instruction budget per workload run.
	Budget int64
	// SweepBudget is the budget per workload in the Fig. 6-9 cache
	// sweeps, and a scenario's budget when it sets none.
	SweepBudget int64
	// RosterBudget is the budget per workload in the 77-workload
	// reduction.
	RosterBudget int64
}

// Default returns the full-fidelity options used by cmd/repro.
func Default() Options {
	return Options{Budget: 4_000_000, SweepBudget: 1_500_000, RosterBudget: 1_500_000}
}

// Quick returns reduced budgets for tests.
func Quick() Options {
	return Options{Budget: 400_000, SweepBudget: 200_000, RosterBudget: 150_000}
}

// Session shares profiled runs and sweep curves between experiments
// through one uniform fill path: every expensive artefact — a
// workload's 45-metric profile, its Fig. 6-9 sweep curves, a profiled
// set — is content-keyed into an artifact.Store. The store's per-key
// singleflight replaces the bespoke per-cache sync.Once plumbing:
// independent experiments scheduled concurrently (the Engine's normal
// mode) never serialize on one session-wide lock and never repeat a
// profiling pass. With a disk-backed Store the artefacts also persist
// across processes, so warm runs and shard merges recompute nothing.
type Session struct {
	Opt Options

	// Ctx, when non-nil, bounds every simulation this session runs: a
	// cancelled context stops in-flight trace passes and profiling runs
	// within a few thousand instructions (the emitters zero their
	// budgets), aborted fills are discarded — never persisted, never
	// cached against their keys — and the cancellation surfaces as
	// ctx.Err() from Engine.RunContext / RunScenario. Set it before
	// first use; the serving daemon gives every request its own session
	// (sharing one Store) so each request cancels independently.
	//
	// Cancellation unwinds session accessors (Reps, Profiles,
	// SweepCurvesMulti, ...) as a panic carrying ctx.Err(), because
	// their signatures have no error result; Engine.RunContext and
	// RunScenario recover it at the unit boundary. Callers driving a
	// cancellable session by hand must recover the same way (see
	// RecoverCanceled).
	Ctx context.Context

	// Parallelism bounds the worker pool of every profiling and sweep
	// fan-out this session performs (0 = GOMAXPROCS) — including the
	// per-view fan-out of every stack-distance sweep pass
	// (machine.StackSweep.Parallelism is threaded from here) — and the
	// units an Engine over this session runs at once in each phase.
	Parallelism int

	// Store backs every memoized fill. Set it (before first use) to a
	// shared or disk-backed store to share artefacts between sessions
	// or processes; nil uses a private in-memory store, preserving
	// per-session memoization semantics.
	Store *artifact.Store

	storeOnce sync.Once
	st        *artifact.Store

	tracePasses atomic.Int64
	profileRuns atomic.Int64
	renders     atomic.Int64
}

// NewSession returns a session with the given options.
func NewSession(opt Options) *Session {
	return &Session{Opt: opt}
}

// ArtifactStore returns the store backing this session's fills.
func (s *Session) ArtifactStore() *artifact.Store {
	s.storeOnce.Do(func() {
		s.st = s.Store
		if s.st == nil {
			s.st = artifact.New()
		}
	})
	return s.st
}

// canceledErr is the panic value session accessors unwind with when
// their context is cancelled mid-fill. It is also an error (unwrapping
// to context.Canceled / DeadlineExceeded) so the artifact store can
// record it for concurrent waiters of the same fill, and errors.Is
// keeps working wherever it surfaces.
type canceledErr struct{ err error }

func (c canceledErr) Error() string { return "experiments: session cancelled: " + c.err.Error() }
func (c canceledErr) Unwrap() error { return c.err }

// RecoverCanceled converts a session-cancellation panic into *err,
// re-raising anything else. Defer it wherever session accessors run
// under a cancellable context outside the engine:
//
//	func work(s *Session) (err error) {
//	    defer experiments.RecoverCanceled(&err)
//	    s.Reps()
//	    ...
func RecoverCanceled(err *error) {
	if p := recover(); p != nil {
		c, ok := p.(canceledErr)
		if !ok {
			panic(p)
		}
		*err = c.err
	}
}

// ctx returns the session's context (background when unset).
func (s *Session) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// mustFill unwraps a store fill whose compute cannot fail on its own:
// a cancellation unwinds as canceledErr (the session's cooperative
// abort signal), everything else (kind collisions, codec misuse) is a
// programming error.
func mustFill[T any](v T, err error) T {
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			var c canceledErr
			if !errors.As(err, &c) {
				c = canceledErr{err}
			}
			panic(c)
		}
		panic(fmt.Sprintf("experiments: artifact fill failed: %v", err))
	}
	return v
}

// profileKey identifies one profiled run in the store: the machine
// configuration, the workload's full content signature (IDs alone are
// ambiguous across rosters) and the instruction budget.
type profileKey struct {
	Machine  machine.Config
	Workload string
	Budget   int64
}

// profileKeyFor is the store key of w's profile on cfg at budget — the
// one builder behind profileOne's fill and the engine's prefetch.
func profileKeyFor(cfg machine.Config, w workloads.Workload, budget int64) artifact.Key {
	return artifact.KeyOf("profile", profileKey{Machine: cfg, Workload: workloads.Signature(w), Budget: budget})
}

// profileOne fills one workload's profile through the store. The
// persisted form is a ProfileRecord (the live Workload cannot be
// serialized); it rebinds onto w on the way out, which reproduces the
// original Profile exactly.
func (s *Session) profileOne(cfg machine.Config, w workloads.Workload, budget int64) core.Profile {
	rec := mustFill(artifact.GetChecked(s.ArtifactStore(), profileKeyFor(cfg, w, budget),
		func(r core.ProfileRecord) bool { return r.Matches(w) },
		func() (core.ProfileRecord, error) {
			p := core.Profiler{Machine: cfg, Budget: budget}
			prof, err := p.ProfileCtx(s.ctx(), w)
			if err != nil {
				return core.ProfileRecord{}, err // aborted: never recorded, never persisted
			}
			s.profileRuns.Add(1)
			return core.Record(prof), nil
		}))
	return rec.Rebind(w)
}

// setKey identifies a profiled workload set's in-memory assembly.
type setKey struct {
	Machine string
	Set     string
	Budget  int64
	N       int
}

// profiledSet declares one profiled workload set: its machine, its
// workloads and the option that sets its budget. The Session accessor
// that returns the set, the engine primer that warms it and the
// prefetch that stages its persisted keys all read this declaration.
type profiledSet struct {
	name   string
	cfg    func() machine.Config
	list   func() []workloads.Workload
	budget func(Options) int64
}

func budgetOpt(o Options) int64 { return o.Budget }

var (
	repsSet   = profiledSet{"reps17", machine.XeonE5645, workloads.Representative17, budgetOpt}
	mpiSet    = profiledSet{"mpi6", machine.XeonE5645, workloads.MPI6, budgetOpt}
	atomSet   = profiledSet{"reps17", machine.AtomD510, workloads.Representative17, budgetOpt}
	suitesSet = profiledSet{"suites-flat", machine.XeonE5645, suitesFlat, budgetOpt}
	rosterSet = profiledSet{"roster77", machine.XeonE5645, workloads.Roster77,
		func(o Options) int64 { return o.RosterBudget }}
)

// keys lists the persisted profile keys p fills at opt.
func (p profiledSet) keys(opt Options) []artifact.Key {
	cfg, budget, list := p.cfg(), p.budget(opt), p.list()
	keys := make([]artifact.Key, len(list))
	for i, w := range list {
		keys[i] = profileKeyFor(cfg, w, budget)
	}
	return keys
}

// profileSet profiles p's workloads through the store: one persistent
// artefact per workload (shared with any other set containing the same
// workload at the same budget — and with other processes over a disk
// store), filled through a bounded worker pool, plus one in-memory
// entry for the assembled set so repeated callers pay nothing.
func (s *Session) profileSet(p profiledSet) []core.Profile {
	cfg, budget, list := p.cfg(), p.budget(s.Opt), p.list()
	key := artifact.KeyOf("profile-set", setKey{Machine: cfg.Name, Set: p.name, Budget: budget, N: len(list)})
	return mustFill(artifact.GetMem(s.ArtifactStore(), key, func() ([]core.Profile, error) {
		return s.Profiles(cfg, list, budget), nil
	}))
}

// Reps returns the 17 representative workloads profiled on the Xeon.
func (s *Session) Reps() []core.Profile { return s.profileSet(repsSet) }

// MPI returns the six MPI implementations profiled on the Xeon.
func (s *Session) MPI() []core.Profile { return s.profileSet(mpiSet) }

// AtomReps returns the 17 representatives profiled on the Atom D510
// model (used by Table 4's misprediction comparison).
func (s *Session) AtomReps() []core.Profile { return s.profileSet(atomSet) }

// Roster returns the full 77-workload roster profiled on the Xeon at
// the roster budget — the input to the §3 reduction, behind the same
// memoization as Reps()/Suites() so the reduction experiment, cmd/wcrt
// and future experiments share one profiling pass.
func (s *Session) Roster() []core.Profile { return s.profileSet(rosterSet) }

// Profiles characterizes a workload list on cfg at an explicit budget
// and returns the profiles in input order; it is the only way a list
// of workloads is profiled. Each workload is one store artefact filled
// by core.Profiler.ProfileCtx under the session's context, on at most
// Parallelism workers. The artefacts are shared wherever machine and budget match: pass the
// budget the eventual merged read will use — Opt.RosterBudget when
// warming Roster(), Opt.Budget when warming Reps().
func (s *Session) Profiles(cfg machine.Config, list []workloads.Workload, budget int64) []core.Profile {
	out := make([]core.Profile, len(list))
	err := conc.ForEachCtx(s.Ctx, s.Parallelism, len(list), func(i int) {
		out[i] = s.profileOne(cfg, list[i], budget)
	})
	if err != nil {
		// Cancelled mid-fan-out: some slots are zero — unwind rather
		// than hand back a torn profile set.
		panic(canceledErr{err})
	}
	return out
}

// suiteSet is the assembled comparator-suite view (memory tier only:
// the averages are cheap, deterministic reductions of the persisted
// per-workload profiles).
type suiteSet struct {
	avg  map[string]metrics.Vector
	runs map[string][]core.Profile
}

// Suites returns the per-suite average vectors and the underlying runs
// for SPECINT, SPECFP, PARSEC, HPCC, CloudSuite and TPC-C. All suites'
// workloads are flattened into one list and profiled through a single
// bounded worker pool, rather than one serial pass per suite; the
// averages accumulate in input order, so results are bit-identical to
// the serial reference.
func (s *Session) Suites() (map[string]metrics.Vector, map[string][]core.Profile) {
	key := artifact.KeyOf("suite-set", setKey{Machine: machine.XeonE5645().Name, Set: "suites", Budget: s.Opt.Budget})
	v := mustFill(artifact.GetMem(s.ArtifactStore(), key, func() (*suiteSet, error) {
		profs := s.profileSet(suitesSet)
		all := suites.All()
		out := &suiteSet{avg: map[string]metrics.Vector{}, runs: map[string][]core.Profile{}}
		start := 0
		for _, name := range suites.Names() {
			end := start + len(all[name])
			runs := profs[start:end:end]
			out.runs[name] = runs
			out.avg[name] = average(runs)
			start = end
		}
		return out, nil
	}))
	return v.avg, v.runs
}

// suitesFlat lists every comparator-suite workload, suite by suite in
// suites.Names() order.
func suitesFlat() []workloads.Workload {
	all := suites.All()
	var flat []workloads.Workload
	for _, name := range suites.Names() {
		flat = append(flat, all[name]...)
	}
	return flat
}

// sweepKey identifies one view of one workload's cache-sweep curves at
// one geometry. Ways and Line are omitted from the canonical JSON when
// they are the modeled defaults (8 ways, 64-byte lines), so the Fig.
// 6-9 keys are identical whether the curves were filled by a paper
// unit or by an ad-hoc scenario that left the geometry alone — the two
// share one artefact per view.
type sweepKey struct {
	Workload string
	Budget   int64
	SizesKB  []int
	Ways     int `json:",omitempty"`
	Line     int `json:",omitempty"`
	View     string
}

// sweepKeyFor is the store key of one view of w's curves at one
// geometry — the one builder behind sweepCurves' fill and the engine's
// prefetch.
func sweepKeyFor(w workloads.Workload, budget int64, sizes []int, ways, lineBytes int, view string) artifact.Key {
	if ways == machine.DefaultSweepWays {
		ways = 0
	}
	if lineBytes == machine.DefaultSweepLineBytes {
		lineBytes = 0
	}
	return artifact.KeyOf("sweep-curves", sweepKey{
		Workload: workloads.Signature(w), Budget: budget, SizesKB: sizes, Ways: ways, Line: lineBytes, View: view,
	})
}

// sweepViews is the canonical view order: each view's scenario name,
// its machine.Views bit and its curve in a machine.Curves.
var sweepViews = []struct {
	name  string
	bit   machine.Views
	curve func(*machine.Curves) *[]float64
}{
	{"inst", machine.ViewInst, func(c *machine.Curves) *[]float64 { return &c.Inst }},
	{"data", machine.ViewData, func(c *machine.Curves) *[]float64 { return &c.Data }},
	{"unified", machine.ViewUnified, func(c *machine.Curves) *[]float64 { return &c.Unified }},
}

// SweepCurvesMulti fills one workload's cache-sweep curves, all three
// views, at several associativities (sharing sizes and line size) in
// one call, returning one Curves per entry of waysList. ways and
// lineBytes of 0 select the paper defaults: the Fig. 6-9 curves are
// SweepCurvesMulti(w, budget, machine.DefaultSweepSizesKB, []int{0},
// 0)[0]. It fills through the same path as a scenario's selected
// views (sweepCurves), so all its still-cold (geometry, view) pairs
// share one stack-distance trace pass. Invalid geometries panic; the
// scenario canonicalizer validates before any session work.
func (s *Session) SweepCurvesMulti(w workloads.Workload, budget int64, sizes []int, waysList []int, lineBytes int) []machine.Curves {
	return s.sweepCurves(w, budget, sizes, waysList, lineBytes, 0)
}

// sweepCurves is the only way sweep curves are filled: the selected
// views of one workload's curves (0 selects all three) at every
// associativity of waysList, one Curves per entry with the unselected
// views nil. Each (geometry, view) pair is its own artefact, so
// requests for different geometries or views share artefacts freely;
// concurrent callers for one key block on its singleflight. The first
// pair whose fill runs here prices every pair the call selected in a
// single stack-distance trace pass — the cost model: one pass per
// workload per request, however many associativities and views it
// asks for, and none when all are warm. Each key is looked up once, by
// its own fill.
func (s *Session) sweepCurves(w workloads.Workload, budget int64, sizes []int, waysList []int, lineBytes int, views machine.Views) []machine.Curves {
	if len(waysList) == 0 {
		panic("experiments: sweep curves with no geometries")
	}
	check := func(c []float64) bool { return len(c) == len(sizes) }
	type pair struct {
		g   int
		v   int // index into sweepViews
		key artifact.Key
	}
	out := make([]machine.Curves, len(waysList))
	var pairs []pair
	for g, ways := range waysList {
		out[g].SizesKB = sizes
		for v, sv := range sweepViews {
			if views.Has(sv.bit) {
				pairs = append(pairs, pair{g, v, sweepKeyFor(w, budget, sizes, ways, lineBytes, sv.name)})
			}
		}
	}
	var computed []machine.Curves // this call's pass, once it ran
	runPass := func() error {
		var sel machine.Views
		var geoms []machine.SweepGeometry
		at := map[int]int{} // index into waysList → the pass's geometry index
		for _, p := range pairs {
			sel |= sweepViews[p.v].bit
			if _, ok := at[p.g]; !ok {
				at[p.g] = len(geoms)
				geoms = append(geoms, machine.SweepGeometry{SizesKB: sizes, Ways: waysList[p.g]})
			}
		}
		sw, err := machine.NewStackSweepViews(sel, lineBytes, geoms...)
		if err != nil {
			return err
		}
		sw.Parallelism = s.Parallelism
		ctx := s.ctx()
		sw.Cancel = ctx.Done()
		if _, err := workloads.RunBlockCtx(ctx, w, sw, budget, 0); err != nil {
			return err // aborted: histograms truncated, discard
		}
		s.tracePasses.Add(1)
		computed = make([]machine.Curves, len(waysList))
		for g, j := range at {
			computed[g] = sw.Curves(j)
		}
		return nil
	}

	// Fill the keys in one order every caller shares, by key ID. The
	// first key whose fill runs here runs the pass, then fills this
	// call's later keys inside its own flight, so none of the pass's
	// keys completes before that first one: a concurrent caller needing
	// any of them waits on it and then finds them all, instead of
	// winning a later key's flight and tracing again. A flight waits
	// only on later keys in the shared order, so the waits cannot
	// cycle. Whoever computes, the curves are identical.
	st := s.ArtifactStore()
	slices.SortFunc(pairs, func(a, b pair) int { return strings.Compare(a.key.ID(), b.key.ID()) })
	for i, p := range pairs {
		curve := sweepViews[p.v].curve
		if computed != nil {
			*curve(&out[p.g]) = *curve(&computed[p.g])
			continue
		}
		*curve(&out[p.g]) = mustFill(artifact.GetChecked(st, p.key, check, func() ([]float64, error) {
			if err := runPass(); err != nil {
				return nil, err
			}
			for _, q := range pairs[i+1:] {
				if q.key != p.key {
					mustFill(artifact.GetChecked(st, q.key, check, func() ([]float64, error) {
						return *sweepViews[q.v].curve(&computed[q.g]), nil
					}))
				}
			}
			return *curve(&computed[p.g]), nil
		}))
	}
	return out
}

// TracePasses reports how many stack-distance sweep trace passes the
// session has actually executed, each pricing every geometry it was
// asked for at once — the counting probe behind the "exactly one pass
// per (workload, budget)" guarantee; a warm-started session reports 0.
func (s *Session) TracePasses() int64 { return s.tracePasses.Load() }

// ProfileRuns reports how many profiling runs the session has actually
// executed (store hits — memory or disk — add nothing); a warm-started
// session reports 0.
func (s *Session) ProfileRuns() int64 { return s.profileRuns.Load() }

// Renders reports how many engine units the session has actually
// rendered. The engine persists each visible unit's rendered bytes as
// a store artefact keyed by (unit, options, format), so a fully
// warm-started session reports 0 — such a run executes no simulation
// at all and only copies bytes out of the store.
func (s *Session) Renders() int64 { return s.renders.Load() }

// BigDataAverage averages the 17 representatives' vectors.
func (s *Session) BigDataAverage() metrics.Vector {
	return average(s.Reps())
}

// average returns the element-wise mean vector of the profiles.
func average(profiles []core.Profile) metrics.Vector {
	var out metrics.Vector
	if len(profiles) == 0 {
		return out
	}
	for _, p := range profiles {
		for i, v := range p.Vector {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(profiles))
	}
	return out
}
