// Package repro is the public façade of the reproduction of
// "Characterization and Architectural Implications of Big Data
// Workloads" (Wang, Zhan, Jia, Han — ISPASS 2016 / arXiv:1506.07943).
//
// It re-exports the pieces a downstream user composes:
//
//   - workload rosters (the 17 representatives of Table 2, the six MPI
//     twins of §5.5, the 77-workload BigDataBench-like roster);
//   - machine presets (Xeon E5645, Atom D510);
//   - the 45-metric characterization vector;
//   - WCRT (profile → normalize → PCA → K-means → representatives).
//
// The paper's tables and figures, the artifact store and the serving
// daemon are driven by cmd/repro, cmd/reprod and cmd/artifactd. See
// examples/ for runnable entry points and DESIGN.md for the system
// inventory.
package repro

import (
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim/machine"
	"repro/internal/workloads"
)

// Workload is one runnable workload (kernel x stack x dataset).
type Workload = workloads.Workload

// Profile is a workload's collected characterization.
type Profile = core.Profile

// Vector is the 45-metric characterization vector.
type Vector = metrics.Vector

// MachineConfig describes a modelled platform.
type MachineConfig = machine.Config

// Reduction is the outcome of the WCRT subset procedure.
type Reduction = core.Reduction

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
