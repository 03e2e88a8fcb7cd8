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
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/machineutil"
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
	// sweeps (they simulate 30 caches per instruction).
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
	// Cancellation unwinds session accessors (Reps, SweepCurves, ...)
	// as a panic carrying ctx.Err(), because their signatures have no
	// error result; Engine.RunContext and RunScenario recover it at
	// the unit boundary. Callers driving a cancellable session by hand
	// must recover the same way (see RecoverCanceled).
	Ctx context.Context

	// Parallelism bounds the worker pool of every profiling and sweep
	// fan-out this session performs (0 = GOMAXPROCS). The Engine's own
	// Parallelism bounds concurrent experiments; this bounds the work
	// inside each one — including the per-view fan-out of every
	// stack-distance sweep pass (machine.StackSweep.Parallelism is
	// threaded from here).
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

// profileOne fills one workload's profile through the store. The
// persisted form is a ProfileRecord (the live Workload cannot be
// serialized); it rebinds onto w on the way out, which reproduces the
// original Profile exactly.
func (s *Session) profileOne(cfg machine.Config, w workloads.Workload, budget int64) core.Profile {
	key := artifact.KeyOf("profile", profileKey{Machine: cfg, Workload: workloads.Signature(w), Budget: budget})
	rec := mustFill(artifact.GetChecked(s.ArtifactStore(), key,
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

// profileSet profiles list through the store: one persistent artefact
// per workload (shared with any other set containing the same workload
// at the same budget — and with other processes over a disk store),
// filled through a bounded worker pool, plus one in-memory entry for
// the assembled set so repeated callers pay nothing.
func (s *Session) profileSet(set string, cfg machine.Config, list []workloads.Workload, budget int64) []core.Profile {
	key := artifact.KeyOf("profile-set", setKey{Machine: cfg.Name, Set: set, Budget: budget, N: len(list)})
	return mustFill(artifact.GetMem(s.ArtifactStore(), key, func() ([]core.Profile, error) {
		return s.Profiles(cfg, list, budget), nil
	}))
}

// Reps returns the 17 representative workloads profiled on the Xeon.
func (s *Session) Reps() []core.Profile {
	return s.profileSet("reps17", machine.XeonE5645(), workloads.Representative17(), s.Opt.Budget)
}

// MPI returns the six MPI implementations profiled on the Xeon.
func (s *Session) MPI() []core.Profile {
	return s.profileSet("mpi6", machine.XeonE5645(), workloads.MPI6(), s.Opt.Budget)
}

// AtomReps returns the 17 representatives profiled on the Atom D510
// model (used by Table 4's misprediction comparison).
func (s *Session) AtomReps() []core.Profile {
	return s.profileSet("reps17", machine.AtomD510(), workloads.Representative17(), s.Opt.Budget)
}

// Roster returns the full 77-workload roster profiled on the Xeon at
// the roster budget — the input to the §3 reduction, behind the same
// memoization as Reps()/Suites() so the reduction experiment, cmd/wcrt
// and future experiments share one profiling pass.
func (s *Session) Roster() []core.Profile {
	return s.profileSet("roster77", machine.XeonE5645(), workloads.Roster77(), s.Opt.RosterBudget)
}

// Profiles characterizes an ad-hoc workload list on cfg at an explicit
// budget through the same per-workload store artefacts (cmd/wcrt's
// shard mode warms the store with slices of a roster this way). The
// artefacts are shared wherever machine and budget match: pass the
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
		all := suites.All()
		names := suites.Names()
		var flat []workloads.Workload
		spans := make(map[string][2]int, len(names))
		for _, name := range names {
			start := len(flat)
			flat = append(flat, all[name]...)
			spans[name] = [2]int{start, len(flat)}
		}
		profs := s.profileSet("suites-flat", machine.XeonE5645(), flat, s.Opt.Budget)
		out := &suiteSet{
			avg:  make(map[string]metrics.Vector, len(names)),
			runs: make(map[string][]core.Profile, len(names)),
		}
		for _, name := range names {
			span := spans[name]
			runs := profs[span[0]:span[1]:span[1]]
			out.runs[name] = runs
			out.avg[name] = machineutil.Average(runs)
		}
		return out, nil
	}))
	return v.avg, v.runs
}

// sweepKey identifies one workload's cache-sweep curves. Ways and
// Line are omitted from the canonical JSON when they are the modeled
// defaults (8 ways, 64-byte lines), so the Fig. 6-9 keys are identical
// whether the curves were filled by a paper unit or by an ad-hoc
// scenario that left the geometry alone — the two share one artefact.
type sweepKey struct {
	Workload string
	Budget   int64
	SizesKB  []int
	Ways     int `json:",omitempty"`
	Line     int `json:",omitempty"`
}

// SweepCurves returns the memoized Fig. 6-9 cache-sweep curves for one
// workload at the given budget, tracing the workload at most once per
// store (and, with a disk store, at most once ever). Concurrent
// callers for the same workload block on that key's singleflight while
// callers for other workloads proceed in parallel.
func (s *Session) SweepCurves(w workloads.Workload, budget int64) machine.Curves {
	return s.SweepCurvesSpec(w, budget, machine.DefaultSweepSizesKB, 0, 0)
}

// SweepCurvesSpec is SweepCurves with the swept sizes and cache
// geometry chosen by the caller — the primitive behind scenario
// requests. ways and lineBytes of 0 select the paper defaults, and the
// default-geometry artefacts are exactly SweepCurves' (one trace pass
// serves both). Invalid geometries panic; the scenario canonicalizer
// validates before any session work.
func (s *Session) SweepCurvesSpec(w workloads.Workload, budget int64, sizes []int, ways, lineBytes int) machine.Curves {
	return s.SweepCurvesMulti(w, budget, sizes, []int{ways}, lineBytes)[0]
}

// sweepCheck validates a stored curve set against the requested sizes
// (the artifact layer's identity-corruption guard).
func sweepCheck(sizes []int) func(machine.Curves) bool {
	return func(c machine.Curves) bool {
		return len(c.SizesKB) == len(sizes) && len(c.Inst) == len(sizes) &&
			len(c.Data) == len(sizes) && len(c.Unified) == len(sizes)
	}
}

// SweepCurvesMulti fills the sweep curves of several associativities
// (sharing sizes and line size) in one call, returning one Curves per
// entry of waysList. Every still-cold geometry is computed by a single
// shared stack-distance trace pass — the multi-geometry cost model:
// one pass per workload no matter how many associativities the request
// sweeps. Each geometry's artefact lives under exactly the key
// SweepCurvesSpec would use, so single- and multi-geometry requests
// share artefacts freely.
func (s *Session) SweepCurvesMulti(w workloads.Workload, budget int64, sizes []int, waysList []int, lineBytes int) []machine.Curves {
	if len(waysList) == 0 {
		panic("experiments: SweepCurvesMulti with no geometries")
	}
	sig := workloads.Signature(w)
	line := lineBytes
	if line == machine.DefaultSweepLineBytes {
		line = 0
	}
	check := sweepCheck(sizes)
	keys := make([]artifact.Key, len(waysList))
	for i, ways := range waysList {
		if ways == machine.DefaultSweepWays {
			ways = 0
		}
		keys[i] = artifact.KeyOf("sweep-curves", sweepKey{
			Workload: sig, Budget: budget, SizesKB: sizes,
			Ways: ways, Line: line,
		})
	}
	out := make([]machine.Curves, len(waysList))

	// Peek first so the shared pass covers only the geometries still
	// cold here, then fill each key under its own singleflight. The
	// pass runs at most once, lazily, inside the first fill closure
	// that actually executes — a concurrent session may win some keys'
	// flights, and whoever computes, the curves are identical.
	st := s.ArtifactStore()
	var missing []int
	for i := range waysList {
		if v, ok := artifact.Peek(st, keys[i], check); ok {
			out[i] = v
			continue
		}
		missing = append(missing, i)
	}
	var computed map[int]machine.Curves
	runPass := func() error {
		geoms := make([]machine.SweepGeometry, len(missing))
		for j, i := range missing {
			geoms[j] = machine.SweepGeometry{SizesKB: sizes, Ways: waysList[i]}
		}
		sw, err := machine.NewStackSweep(lineBytes, geoms...)
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
		computed = make(map[int]machine.Curves, len(missing))
		for j, i := range missing {
			computed[i] = sw.Curves(j)
		}
		return nil
	}
	for _, i := range missing {
		i := i
		out[i] = mustFill(artifact.GetChecked(st, keys[i], check, func() (machine.Curves, error) {
			if computed == nil {
				if err := runPass(); err != nil {
					return machine.Curves{}, err
				}
			}
			return computed[i], nil
		}))
	}
	return out
}

// primerKeys enumerates the persisted store keys one hidden primer
// unit will fill — the per-workload profile records or sweep curves
// behind it. It must mirror the fills the primer actually performs
// (profileOne / SweepCurvesSpec build identical keys), which is why it
// lives beside those key types. Unknown primers contribute nothing.
func (s *Session) primerKeys(primer string) []artifact.Key {
	profiles := func(cfg machine.Config, list []workloads.Workload, budget int64) []artifact.Key {
		keys := make([]artifact.Key, 0, len(list))
		for _, w := range list {
			keys = append(keys, artifact.KeyOf("profile",
				profileKey{Machine: cfg, Workload: workloads.Signature(w), Budget: budget}))
		}
		return keys
	}
	sweeps := func(list []workloads.Workload, budget int64) []artifact.Key {
		keys := make([]artifact.Key, 0, len(list))
		for _, w := range list {
			keys = append(keys, artifact.KeyOf("sweep-curves", sweepKey{
				Workload: workloads.Signature(w), Budget: budget, SizesKB: machine.DefaultSweepSizesKB,
			}))
		}
		return keys
	}
	switch primer {
	case "warm-reps":
		return profiles(machine.XeonE5645(), workloads.Representative17(), s.Opt.Budget)
	case "warm-mpi":
		return profiles(machine.XeonE5645(), workloads.MPI6(), s.Opt.Budget)
	case "warm-atom":
		return profiles(machine.AtomD510(), workloads.Representative17(), s.Opt.Budget)
	case "warm-suites":
		var flat []workloads.Workload
		all := suites.All()
		for _, name := range suites.Names() {
			flat = append(flat, all[name]...)
		}
		return profiles(machine.XeonE5645(), flat, s.Opt.Budget)
	case "warm-roster":
		return profiles(machine.XeonE5645(), workloads.Roster77(), s.Opt.RosterBudget)
	case "warm-sweep-hadoop":
		return sweeps(hadoopGroup(), s.Opt.SweepBudget)
	case "warm-sweep-parsec":
		return sweeps(parsecGroup(), s.Opt.SweepBudget)
	case "warm-sweep-mpi":
		return sweeps(workloads.MPI6(), s.Opt.SweepBudget)
	}
	return nil
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
	return machineutil.Average(s.Reps())
}
