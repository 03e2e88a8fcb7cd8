package experiments

import (
	"io"

	"repro/internal/artifact"
	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim/machine"
	"repro/internal/suites"
	"repro/internal/workloads"
)

// SweepResult is one of the Fig. 6-9 cache-size curves: average miss
// ratio versus L1 capacity for groups of workloads.
type SweepResult struct {
	Title   string
	SizesKB []int
	// Curves maps group name to per-size average miss ratio.
	Curves map[string][]float64
	Order  []string
}

// sweepGroup averages the group's miss-ratio curves, all three views,
// at the paper's default geometry. Each workload's curves are traced
// at most once per store, all three views from a single pass, and
// filled through a bounded worker pool.
func sweepGroup(s *Session, list []workloads.Workload) machine.Curves {
	return sweepGroupMulti(s, list, s.Opt.SweepBudget, machine.DefaultSweepSizesKB, []int{0}, 0, 0)[0]
}

// sweepGroupKeys lists the persisted curve keys sweepGroup fills for
// list at opt: every view of every workload.
func sweepGroupKeys(list []workloads.Workload, opt Options) []artifact.Key {
	var keys []artifact.Key
	for _, w := range list {
		for _, sv := range sweepViews {
			keys = append(keys, sweepKeyFor(w, opt.SweepBudget, machine.DefaultSweepSizesKB, 0, 0, sv.name))
		}
	}
	return keys
}

// sweepGroupMulti averages the selected views (0 selects all three) of
// the group's curves at each associativity of waysList: each
// workload's still-cold (geometry, view) pairs fill from one shared
// stack-distance trace pass (sweepCurves), and the result holds one
// averaged Curves per entry of waysList, the unselected views nil. The
// averaging accumulates in input order, so a multi-geometry or
// multi-view request's curves are bit-identical to the equivalent
// single requests run one by one.
func sweepGroupMulti(s *Session, list []workloads.Workload, budget int64, sizes []int, waysList []int, lineBytes int, views machine.Views) []machine.Curves {
	curves := make([][]machine.Curves, len(list))
	err := conc.ForEachCtx(s.Ctx, s.Parallelism, len(list), func(i int) {
		curves[i] = s.sweepCurves(list[i], budget, sizes, waysList, lineBytes, views)
	})
	if err != nil {
		panic(canceledErr{err}) // torn curve set: unwind, never average
	}
	out := make([]machine.Curves, len(waysList))
	for g := range waysList {
		out[g].SizesKB = sizes
		for _, sv := range sweepViews {
			if !views.Has(sv.bit) {
				continue
			}
			sum := make([]float64, len(sizes))
			for _, c := range curves {
				for i, v := range *sv.curve(&c[g]) {
					sum[i] += v
				}
			}
			for i := range sum {
				sum[i] /= float64(len(list))
			}
			*sv.curve(&out[g]) = sum
		}
	}
	return out
}

// hadoopGroup returns the Hadoop-stack workloads the paper's §5.4 case
// study sweeps.
func hadoopGroup() []workloads.Workload {
	var out []workloads.Workload
	for _, w := range workloads.Representative17() {
		if w.Stack.Name == "Hadoop" {
			out = append(out, w)
		}
	}
	return out
}

func parsecGroup() []workloads.Workload { return suites.PARSEC() }

// Fig6 reproduces Fig. 6: instruction-cache miss ratio vs cache size
// for the Hadoop workloads and PARSEC. The paper's knees: Hadoop
// ≈ 1024 KB, PARSEC ≈ 128 KB.
func Fig6(s *Session) SweepResult {
	return SweepResult{
		Title:   "Figure 6: instruction cache miss ratio vs cache size",
		SizesKB: machine.DefaultSweepSizesKB,
		Order:   []string{"Hadoop-workloads", "PARSEC-workloads"},
		Curves: map[string][]float64{
			"Hadoop-workloads": sweepGroup(s, hadoopGroup()).Inst,
			"PARSEC-workloads": sweepGroup(s, parsecGroup()).Inst,
		},
	}
}

// Fig7 reproduces Fig. 7: data-cache miss ratio vs cache size (the
// curves converge after 64 KB).
func Fig7(s *Session) SweepResult {
	return SweepResult{
		Title:   "Figure 7: data cache miss ratio vs cache size",
		SizesKB: machine.DefaultSweepSizesKB,
		Order:   []string{"Hadoop-workloads", "PARSEC-workloads"},
		Curves: map[string][]float64{
			"Hadoop-workloads": sweepGroup(s, hadoopGroup()).Data,
			"PARSEC-workloads": sweepGroup(s, parsecGroup()).Data,
		},
	}
}

// Fig8 reproduces Fig. 8: unified cache miss ratio vs cache size (the
// curves converge after 1024 KB).
func Fig8(s *Session) SweepResult {
	return SweepResult{
		Title:   "Figure 8: cache miss ratio vs cache size",
		SizesKB: machine.DefaultSweepSizesKB,
		Order:   []string{"Hadoop-workloads", "PARSEC-workloads"},
		Curves: map[string][]float64{
			"Hadoop-workloads": sweepGroup(s, hadoopGroup()).Unified,
			"PARSEC-workloads": sweepGroup(s, parsecGroup()).Unified,
		},
	}
}

// Fig9 reproduces Fig. 9: instruction miss ratio vs cache size with
// the MPI implementations added (they track PARSEC, not Hadoop).
func Fig9(s *Session) SweepResult {
	return SweepResult{
		Title:   "Figure 9: instruction cache miss ratio vs cache size (with MPI)",
		SizesKB: machine.DefaultSweepSizesKB,
		Order:   []string{"Hadoop-workloads", "PARSEC-workloads", "MPI-workloads"},
		Curves: map[string][]float64{
			"Hadoop-workloads": sweepGroup(s, hadoopGroup()).Inst,
			"PARSEC-workloads": sweepGroup(s, parsecGroup()).Inst,
			"MPI-workloads":    sweepGroup(s, workloads.MPI6()).Inst,
		},
	}
}

// Knee returns the smallest cache size (KB) at which a curve has
// descended frac of the way from its 16 KB value to its floor — the
// "footprint" reading the paper applies to Figs. 6-9. (Relative to the
// curve's own range, so a compulsory-miss floor does not mask the
// knee.)
func (r SweepResult) Knee(curve string, frac float64) int {
	c := r.Curves[curve]
	if len(c) == 0 || c[0] == 0 {
		return 0
	}
	lo := c[0]
	for _, v := range c {
		if v < lo {
			lo = v
		}
	}
	threshold := lo + (c[0]-lo)*frac
	for i, v := range c {
		if v <= threshold {
			return r.SizesKB[i]
		}
	}
	return r.SizesKB[len(r.SizesKB)-1]
}

// Render writes the curves as a table.
func (r SweepResult) Render(w io.Writer) {
	t := report.Table{Title: r.Title, Headers: append([]string{"cache KB"}, r.Order...)}
	for i, kb := range r.SizesKB {
		cells := []interface{}{kb}
		for _, name := range r.Order {
			cells = append(cells, r.Curves[name][i])
		}
		t.Add(cells...)
	}
	t.Render(w)
}

// ReductionResult is the §3 outcome: 77 workloads clustered to 17.
type ReductionResult struct {
	Reduction *core.Reduction
	Profiles  []core.Profile
}

// Reduction runs the full WCRT pipeline over the 77-workload roster
// with k=17, as the paper's final configuration. The roster profiles
// come from the session's memoized Roster(), so cmd/wcrt and other
// experiments sharing the session (or its store) reuse the same pass.
func Reduction(s *Session) (*ReductionResult, error) {
	profiles := s.Roster()
	a := &core.Analyzer{ExplainTarget: 0.9, Seed: 0x5EED}
	red, err := a.Reduce(profiles, 17)
	if err != nil {
		return nil, err
	}
	return &ReductionResult{Reduction: red, Profiles: profiles}, nil
}

// Render writes the reduction summary.
func (r *ReductionResult) Render(w io.Writer) {
	t := report.Table{Title: "Section 3: 77 workloads reduced to 17 representatives",
		Headers: []string{"cluster", "representative", "size", "members (sample)"}}
	for i, c := range r.Reduction.Clusters {
		sample := ""
		for j, m := range c.Members {
			if j == 4 {
				sample += " ..."
				break
			}
			if j > 0 {
				sample += " "
			}
			sample += r.Reduction.Names[m]
		}
		t.Add(i+1, r.Reduction.Names[c.Representative], len(c.Members), sample)
	}
	t.Render(w)
}
