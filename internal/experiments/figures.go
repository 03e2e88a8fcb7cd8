package experiments

import (
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim/machine"
	"repro/internal/suites"
	"repro/internal/workloads"
)

// MixRow is one bar of Fig. 1 (retired instruction breakdown).
type MixRow struct {
	Name                         string
	Load, Store, Branch, Int, FP float64
}

func mixRow(name string, v metrics.Vector) MixRow {
	return MixRow{Name: name,
		Load:   v[metrics.MixLoad],
		Store:  v[metrics.MixStore],
		Branch: v[metrics.MixBranch],
		Int:    v[metrics.MixInt],
		FP:     v[metrics.MixFP],
	}
}

// Fig1Result reproduces Fig. 1 plus the §5.1 headline statistics.
type Fig1Result struct {
	Rows []MixRow
	// BigDataBranchAvg is the average branch ratio over the 17
	// representatives (paper: 18.7%).
	BigDataBranchAvg float64
	// BigDataIntAvg is the average integer ratio (paper: 38%).
	BigDataIntAvg float64
	// DataMovementShare is load+store+address-calculation share
	// (paper: ~73%); WithBranches adds branches (paper: ~92%).
	DataMovementShare, WithBranches float64
	// AvgGFLOPS vs PeakGFLOPS is the §5.1 floating-point observation
	// (paper: ~0.1 vs 57.6).
	AvgGFLOPS, PeakGFLOPS float64
}

// Fig1 computes the instruction-mix figure over the representative
// workloads, the MPI versions and the comparator suites.
func Fig1(s *Session) Fig1Result {
	var out Fig1Result
	reps := s.Reps()
	for _, p := range reps {
		out.Rows = append(out.Rows, mixRow(p.Workload.ID, p.Vector))
	}
	for _, p := range s.MPI() {
		out.Rows = append(out.Rows, mixRow(p.Workload.ID, p.Vector))
	}
	avg, _ := s.Suites()
	for _, name := range suites.Names() {
		out.Rows = append(out.Rows, mixRow(name, avg[name]))
	}
	bd := s.BigDataAverage()
	out.BigDataBranchAvg = bd[metrics.MixBranch]
	out.BigDataIntAvg = bd[metrics.MixInt]
	addr := bd[metrics.MixInt] * (bd[metrics.IntAddrShare] + bd[metrics.IntFPAddrShare])
	out.DataMovementShare = bd[metrics.MixLoad] + bd[metrics.MixStore] + addr
	out.WithBranches = out.DataMovementShare + bd[metrics.MixBranch]
	out.AvgGFLOPS = bd[metrics.GFLOPS]
	xeon := machine.XeonE5645()
	out.PeakGFLOPS = float64(xeon.Cores) * xeon.FreqHz * float64(xeon.PeakFlopsPerCycle) / 1e9
	return out
}

// Render writes the figure as a table plus headline lines.
func (f Fig1Result) Render(w io.Writer) {
	t := report.Table{Title: "Figure 1: retired instruction breakdown",
		Headers: []string{"workload", "load%", "store%", "branch%", "integer%", "fp%"}}
	for _, r := range f.Rows {
		t.Add(r.Name, r.Load*100, r.Store*100, r.Branch*100, r.Int*100, r.FP*100)
	}
	t.Render(w)
	t2 := report.Table{Headers: []string{"statistic", "measured", "paper"}}
	t2.Add("big data branch ratio", f.BigDataBranchAvg*100, 18.7)
	t2.Add("big data integer ratio", f.BigDataIntAvg*100, 38.0)
	t2.Add("data movement share", f.DataMovementShare*100, 73.0)
	t2.Add("data movement + branches", f.WithBranches*100, 92.0)
	t2.Add("avg GFLOPS", f.AvgGFLOPS, 0.1)
	t2.Add("peak GFLOPS", f.PeakGFLOPS, 57.6)
	t2.Render(w)
}

// Fig2Result reproduces Fig. 2: the integer-instruction breakdown.
type Fig2Result struct {
	// IntAddr/FPAddr/Other are shares of integer instructions
	// (paper: 64% / 18% / 18%).
	IntAddr, FPAddr, Other float64
	PerWorkload            []struct {
		Name                   string
		IntAddr, FPAddr, Other float64
	}
}

// Fig2 computes the integer breakdown over the 17 representatives.
func Fig2(s *Session) Fig2Result {
	var out Fig2Result
	bd := s.BigDataAverage()
	out.IntAddr = bd[metrics.IntAddrShare]
	out.FPAddr = bd[metrics.IntFPAddrShare]
	out.Other = bd[metrics.IntOtherShare]
	for _, p := range s.Reps() {
		out.PerWorkload = append(out.PerWorkload, struct {
			Name                   string
			IntAddr, FPAddr, Other float64
		}{p.Workload.ID, p.Vector[metrics.IntAddrShare],
			p.Vector[metrics.IntFPAddrShare], p.Vector[metrics.IntOtherShare]})
	}
	return out
}

// Render writes Fig. 2.
func (f Fig2Result) Render(w io.Writer) {
	t := report.Table{Title: "Figure 2: integer instruction breakdown",
		Headers: []string{"workload", "int addr%", "fp addr%", "other%"}}
	for _, r := range f.PerWorkload {
		t.Add(r.Name, r.IntAddr*100, r.FPAddr*100, r.Other*100)
	}
	t.Add("AVERAGE (paper: 64/18/18)", f.IntAddr*100, f.FPAddr*100, f.Other*100)
	t.Render(w)
}

// ValueRow is one bar of a single-metric figure (Figs. 3-5).
type ValueRow struct {
	Name   string
	Values []float64
}

// FigSeriesResult holds a multi-metric bar figure.
type FigSeriesResult struct {
	Title    string
	Metrics  []string
	Rows     []ValueRow
	Averages map[string][]float64
}

// valueFigure assembles a figure over reps + MPI + suites for the given
// metric indices.
func valueFigure(s *Session, title string, names []string, idx []int) FigSeriesResult {
	out := FigSeriesResult{Title: title, Metrics: names, Averages: map[string][]float64{}}
	collect := func(name string, v metrics.Vector) []float64 {
		vals := make([]float64, len(idx))
		for i, ix := range idx {
			vals[i] = v[ix]
		}
		out.Rows = append(out.Rows, ValueRow{Name: name, Values: vals})
		return vals
	}
	for _, p := range s.Reps() {
		collect(p.Workload.ID, p.Vector)
	}
	for _, p := range s.MPI() {
		collect(p.Workload.ID, p.Vector)
	}
	avg, _ := s.Suites()
	for _, name := range suites.Names() {
		collect(name, avg[name])
	}
	bd := s.BigDataAverage()
	vals := make([]float64, len(idx))
	for i, ix := range idx {
		vals[i] = bd[ix]
	}
	out.Averages["big data (17 reps)"] = vals
	// Category and system-behaviour class averages, as the paper
	// reports per subsection.
	reps := s.Reps()
	for _, cat := range []workloads.Category{workloads.Service, workloads.DataAnalysis, workloads.InteractiveAnalysis} {
		var members []core.Profile
		for _, p := range reps {
			if p.Workload.Category == cat {
				members = append(members, p)
			}
		}
		v := average(members)
		vals := make([]float64, len(idx))
		for i, ix := range idx {
			vals[i] = v[ix]
		}
		out.Averages[cat.String()] = vals
	}
	return out
}

// Render writes the figure.
func (f FigSeriesResult) Render(w io.Writer) {
	t := report.Table{Title: f.Title, Headers: append([]string{"workload"}, f.Metrics...)}
	for _, r := range f.Rows {
		cells := make([]interface{}, 0, len(r.Values)+1)
		cells = append(cells, r.Name)
		for _, v := range r.Values {
			cells = append(cells, v)
		}
		t.Add(cells...)
	}
	keys := make([]string, 0, len(f.Averages))
	for k := range f.Averages {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cells := make([]interface{}, 0, len(f.Averages[k])+1)
		cells = append(cells, "AVG "+k)
		for _, v := range f.Averages[k] {
			cells = append(cells, v)
		}
		t.Add(cells...)
	}
	t.Render(w)
}

// Fig3 reproduces Fig. 3 (IPC).
func Fig3(s *Session) FigSeriesResult {
	return valueFigure(s, "Figure 3: IPC", []string{"IPC"}, []int{metrics.IPC})
}

// Fig4 reproduces Fig. 4 (L1I/L1D/L2/L3 MPKI).
func Fig4(s *Session) FigSeriesResult {
	return valueFigure(s, "Figure 4: cache behaviour (MPKI)",
		[]string{"L1I", "L1D", "L2", "L3"},
		[]int{metrics.L1IMPKI, metrics.L1DMPKI, metrics.L2MPKI, metrics.L3MPKI})
}

// Fig5 reproduces Fig. 5 (ITLB/DTLB MPKI).
func Fig5(s *Session) FigSeriesResult {
	return valueFigure(s, "Figure 5: TLB behaviour (MPKI)",
		[]string{"ITLB", "DTLB"},
		[]int{metrics.ITLBMPKI, metrics.DTLBMPKI})
}

// StackImpactResult reproduces §5.5: the same algorithms under MPI,
// Hadoop and Spark.
type StackImpactResult struct {
	Table report.Table
	// MPIAvgIPC vs OtherAvgIPC reproduce the "gap is 21%" measurement.
	MPIAvgIPC, OtherAvgIPC float64
	// MPIAvgL1I vs OtherAvgL1I reproduce the order-of-magnitude L1I
	// claim (paper: 3.4 vs 12.6).
	MPIAvgL1I, OtherAvgL1I float64
}

// StackImpact computes the §5.5 comparison from the session's profiled
// runs.
func StackImpact(s *Session) StackImpactResult {
	out := StackImpactResult{Table: report.Table{
		Title:   "Section 5.5: software stack impact",
		Headers: []string{"workload", "stack", "IPC", "L1I MPKI", "L2 MPKI", "L3 MPKI", "fw share%"},
	}}
	add := func(p core.Profile) {
		out.Table.Add(p.Workload.ID, p.Workload.Stack.Name,
			p.Vector[metrics.IPC], p.Vector[metrics.L1IMPKI],
			p.Vector[metrics.L2MPKI], p.Vector[metrics.L3MPKI],
			p.Run.FrameworkShare*100)
	}
	mpi := s.MPI()
	var nMPI, nOther int
	for _, p := range mpi {
		add(p)
		out.MPIAvgIPC += p.Vector[metrics.IPC]
		out.MPIAvgL1I += p.Vector[metrics.L1IMPKI]
		nMPI++
	}
	for _, p := range s.Reps() {
		switch p.Workload.Stack.Name {
		case "Hadoop", "Spark":
			add(p)
			out.OtherAvgIPC += p.Vector[metrics.IPC]
			out.OtherAvgL1I += p.Vector[metrics.L1IMPKI]
			nOther++
		}
	}
	out.MPIAvgIPC /= float64(nMPI)
	out.MPIAvgL1I /= float64(nMPI)
	out.OtherAvgIPC /= float64(nOther)
	out.OtherAvgL1I /= float64(nOther)
	return out
}
