// Package repro is the public façade of the reproduction of
// "Characterization and Architectural Implications of Big Data
// Workloads" (Wang, Zhan, Jia, Han — ISPASS 2016 / arXiv:1506.07943).
//
// It re-exports the pieces a downstream user composes:
//
//   - workload rosters (the 17 representatives of Table 2, the six MPI
//     twins of §5.5, the 77-workload BigDataBench-like roster, the
//     comparator suites);
//   - machine models (Xeon E5645, Atom D510, the Fig. 6-9 cache
//     sweep);
//   - the 45-metric characterization vector;
//   - WCRT (profile → normalize → PCA → K-means → representatives);
//   - the per-table/figure experiment runners.
//
// See examples/ for runnable entry points and DESIGN.md for the system
// inventory.
package repro

import (
	"time"

	"repro/internal/artifact"
	"repro/internal/artifact/httpstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/sim/machine"
	"repro/internal/workloads"
)

// Workload is one runnable workload (kernel x stack x dataset).
type Workload = workloads.Workload

// Profile is a workload's collected characterization.
type Profile = core.Profile

// Vector is the 45-metric characterization vector.
type Vector = metrics.Vector

// Machine is the composed per-core performance model.
type Machine = machine.Machine

// MachineConfig describes a modelled platform.
type MachineConfig = machine.Config

// Reduction is the outcome of the WCRT subset procedure.
type Reduction = core.Reduction

// Session caches experiment runs.
type Session = experiments.Session

// Engine runs the paper's tables and figures over one Session in two
// phases: the cache primers, then the tables and figures.
type Engine = experiments.Engine

// UnitResult is one executed experiment with its wall time.
type UnitResult = experiments.UnitResult

// XeonE5645 returns the paper's testbed platform model (Table 3).
func XeonE5645() MachineConfig { return machine.XeonE5645() }

// AtomD510 returns the paper's low-power comparison platform (Table 4).
func AtomD510() MachineConfig { return machine.AtomD510() }

// Representative17 returns the paper's Table 2 workload subset.
func Representative17() []Workload { return workloads.Representative17() }

// MPI6 returns the six MPI implementations of §5.5.
func MPI6() []Workload { return workloads.MPI6() }

// Roster77 returns the full BigDataBench-3.0-like roster.
func Roster77() []Workload { return workloads.Roster77() }

// Run executes one workload on a fresh machine and returns its
// characterization vector.
func Run(w Workload, cfg MachineConfig, budget int64) Vector {
	p := &core.Profiler{Machine: cfg, Budget: budget}
	return p.Profile(w).Vector
}

// Characterize profiles a workload list in parallel on the given
// platform (the WCRT profiler), returning the profiles in input order.
func Characterize(list []Workload, cfg MachineConfig, budget int64) []Profile {
	return experiments.NewSession(experiments.Options{Budget: budget}).Profiles(cfg, list, budget)
}

// Reduce runs the WCRT analyzer over profiles: Gaussian normalization,
// PCA to 90% variance, K-means with k clusters (k <= 0 selects k
// automatically), representative selection.
func Reduce(profiles []Profile, k int) (*Reduction, error) {
	a := &core.Analyzer{ExplainTarget: 0.9, Seed: 0x5EED}
	return a.Reduce(profiles, k)
}

// Store is the content-keyed artifact store behind every memoized
// computation: dataset content, profile records, sweep curves and
// rendered experiment units.
type Store = artifact.Store

// StoreBackend is one persistence tier behind a Store: a local
// directory, an artifactd server, or a chain of tiers.
type StoreBackend = artifact.Backend

// GCResult summarizes one store GC sweep.
type GCResult = artifact.GCResult

// MemQuota bounds a Store's in-process memory tier: total resident
// bytes, entry idle age, and per-kind byte caps. Install it with
// Store.SetMemQuota; the zero value is unbounded.
type MemQuota = artifact.MemQuota

// ParseMemQuota parses a quota spec string — comma-separated size
// ("256MB"), idle age ("30m") and kind=size ("scenario-render=64MB")
// parts — into a MemQuota, the same grammar the CLIs' -mem-quota flag
// accepts.
func ParseMemQuota(spec string) (MemQuota, error) { return artifact.ParseQuotaSpec(spec) }

// NewStore returns an in-memory artifact store.
func NewStore() *Store { return artifact.New() }

// NewDiskStore returns an artifact store persisting under dir.
func NewDiskStore(dir string) (*Store, error) { return artifact.NewDisk(dir) }

// NewRemoteStore returns an artifact store persisting through the
// cmd/artifactd server at serverURL; with a non-empty cacheDir a local
// disk tier fronts the server (remote hits are promoted into it).
// Sessions on different machines sharing one server compute each
// artefact once between them and render byte-identical output.
func NewRemoteStore(cacheDir, serverURL string) (*Store, error) {
	return httpstore.OpenStore(cacheDir, serverURL, "")
}

// GCStore sweeps an on-disk store directory down to the given bounds:
// entries older than maxAge are removed, then the least recently used
// are evicted until the directory fits maxBytes (zero = unbounded).
// Safe to run while stores are filling; an evicted artefact is simply
// recomputed on next use.
func GCStore(dir string, maxBytes int64, maxAge time.Duration) (GCResult, error) {
	return artifact.GC(dir, maxBytes, maxAge)
}

// NewSession returns an experiment session with full budgets.
func NewSession() *Session { return experiments.NewSession(experiments.Default()) }

// NewQuickSession returns an experiment session with test budgets.
func NewQuickSession() *Session { return experiments.NewSession(experiments.Quick()) }

// NewPersistentSession returns a full-budget session whose artifacts —
// dataset content, 45-metric profiles, sweep curves — persist under
// dir: a later process warm-starts from the directory and recomputes
// nothing while producing byte-identical results.
//
// Dataset content is cached process-globally, so this call redirects
// the whole process's dataset caching to dir (datagen.SetStore) — the
// last NewPersistentSession wins for datasets. Use one persistent
// directory per process; results are unaffected either way (content is
// deterministic), only where datasets persist.
func NewPersistentSession(dir string) (*Session, error) {
	st, err := artifact.NewDisk(dir)
	if err != nil {
		return nil, err
	}
	datagen.SetStore(st)
	s := experiments.NewSession(experiments.Default())
	s.Store = st
	return s, nil
}

// NewRemoteSession is NewPersistentSession's network counterpart: a
// full-budget session whose artifacts persist through the
// cmd/artifactd server at serverURL, fronted by a local disk tier when
// cacheDir is non-empty. Sessions on different machines sharing one
// server compute each artefact — dataset content included — once
// between them and render byte-identical output.
//
// Like NewPersistentSession, this redirects the whole process's
// dataset caching to the returned store (datagen.SetStore); the last
// New*Session wins for datasets, results are unaffected either way.
func NewRemoteSession(cacheDir, serverURL string) (*Session, error) {
	st, err := httpstore.OpenStore(cacheDir, serverURL, "")
	if err != nil {
		return nil, err
	}
	datagen.SetStore(st)
	s := experiments.NewSession(experiments.Default())
	s.Store = st
	return s, nil
}

// NewEngine returns a concurrent experiment engine over s covering
// every table and figure of the paper.
func NewEngine(s *Session) *Engine { return &experiments.Engine{Session: s} }

// Scenario is a declarative ad-hoc experiment request: a cache sweep
// over any workload subset, budget and cache geometry, canonicalized
// so equivalent requests share one artifact identity (warm repeats are
// pure store I/O).
type Scenario = experiments.Scenario

// RunScenario computes (or fetches warm) and renders a scenario over
// the session, returning the rendered bytes.
func RunScenario(s *Session, spec Scenario) ([]byte, error) {
	return experiments.RunScenario(s, spec)
}

// Server is the reprod serving core: paper units and scenarios over a
// versioned HTTP API (/v1) with per-key request coalescing, a warm
// store fast path, fleet-wide rendezvous routing, async jobs and
// cancellation plumbed down to the simulators. cmd/reprod wraps it in
// a daemon; embed its Handler() to serve from your own process.
type Server = serve.Server

// ServerConfig sizes a Server.
type ServerConfig = serve.Config

// NewServer returns a serving core over cfg. The only error is an
// invalid fleet configuration (ServerConfig.Self / Peers).
func NewServer(cfg ServerConfig) (*Server, error) { return serve.New(cfg) }
