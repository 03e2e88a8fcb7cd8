package experiments

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sysmodel"
	"repro/internal/workloads"
)

// claimKind says what a claim checks: an ordering or a class (shape),
// or a number against the paper's (magnitude).
type claimKind string

const (
	shape     claimKind = "shape"
	magnitude claimKind = "magnitude"
)

// The verdicts a claim row records.
const (
	pass = true
	miss = false
)

// band is the interval a measured value must fall in; a bound is
// inclusive unless marked open, and NaN falls in no band.
type band struct {
	lo, hi         float64
	openLo, openHi bool
}

func atLeast(x float64) band     { return band{lo: x, hi: math.Inf(1)} }
func above(x float64) band       { return band{lo: x, hi: math.Inf(1), openLo: true} }
func atMost(x float64) band      { return band{lo: math.Inf(-1), hi: x} }
func below(x float64) band       { return band{lo: math.Inf(-1), hi: x, openHi: true} }
func within(lo, hi float64) band { return band{lo: lo, hi: hi} }
func is(x float64) band          { return band{lo: x, hi: x} }

// near is the band of a paper value no test ever banded: within 2x.
func near(paper float64) band { return within(paper/2, paper*2) }

func (b band) holds(v float64) bool {
	return !math.IsNaN(v) && v >= b.lo && v <= b.hi &&
		!(b.openLo && v == b.lo) && !(b.openHi && v == b.hi)
}

func (b band) String() string {
	switch {
	case b.lo == b.hi:
		return fmt.Sprintf("= %g", b.lo)
	case math.IsInf(b.hi, 1) && b.openLo:
		return fmt.Sprintf("> %g", b.lo)
	case math.IsInf(b.hi, 1):
		return fmt.Sprintf(">= %g", b.lo)
	case math.IsInf(b.lo, -1) && b.openHi:
		return fmt.Sprintf("< %g", b.hi)
	case math.IsInf(b.lo, -1):
		return fmt.Sprintf("<= %g", b.hi)
	}
	return fmt.Sprintf("[%g, %g]", b.lo, b.hi)
}

// measure extracts one claim's value from a session.
type measure func(*Session) float64

// claim is one row of the paper's claims: the paper's value, the
// measured value's extractor, the band it must fall in, and the
// verdict recorded at Quick() and at Default(). A recorded miss is a
// claim the model does not reproduce at that budget, kept with its
// measured value.
type claim struct {
	name         string
	kind         claimKind
	paper        string
	band         band
	measure      measure
	quick, deflt bool
	// show, when set, prints a measured value as the paper writes it.
	show func(float64) string
}

func (c claim) shown(v float64) string {
	if c.show != nil {
		return c.show(v)
	}
	return fmt.Sprintf("%.4g", v)
}

// report is one line of a claim's check: kind, paper value, measured
// value, band and verdict.
func (c claim) report(v float64) string {
	b := c.band.String()
	if c.show != nil {
		b = "= " + c.show(c.band.lo)
	}
	return fmt.Sprintf("%s: paper %s, measured %s, band %s: %s", c.kind, c.paper, c.shown(v), b, verdict(c.band.holds(v)))
}

// rowOf is the value of one named bar of a Figs. 3-5 figure.
func rowOf(fig func(*Session) FigSeriesResult, name string, col int) measure {
	return func(s *Session) float64 {
		for _, r := range fig(s).Rows {
			if r.Name == name {
				return r.Values[col]
			}
		}
		return math.NaN()
	}
}

// avgOf is one class average of a Figs. 3-5 figure.
func avgOf(fig func(*Session) FigSeriesResult, class string, col int) measure {
	return func(s *Session) float64 { return fig(s).Averages[class][col] }
}

// mixOf is one share of one Fig. 1 bar.
func mixOf(name string, share func(MixRow) float64) measure {
	return func(s *Session) float64 {
		for _, r := range Fig1(s).Rows {
			if r.Name == name {
				return share(r)
			}
		}
		return math.NaN()
	}
}

func ratio(a, b measure) measure { return func(s *Session) float64 { return a(s) / b(s) } }

// knee is a Fig. 6 or Fig. 9 curve's footprint reading, in KB.
func knee(fig func(*Session) SweepResult, curve string, frac float64) measure {
	return func(s *Session) float64 { return float64(fig(s).Knee(curve, frac)) }
}

// missAt is a sweep curve's miss ratio at one cache size.
func missAt(fig func(*Session) SweepResult, curve string, kb int) measure {
	return func(s *Session) float64 {
		r := fig(s)
		for i, size := range r.SizesKB {
			if size == kb {
				return r.Curves[curve][i]
			}
		}
		return math.NaN()
	}
}

func table2Row(s *Session, id string) Table2Row {
	for _, r := range Table2(s) {
		if r.ID == id {
			return r
		}
	}
	panic("experiments: no Table 2 row " + id)
}

// system is a Table 2 system-behaviour cell.
func system(id string, paper sysmodel.Class, quick, deflt bool) claim {
	return claim{id + "-system", shape, paper.String(), is(float64(paper)),
		func(s *Session) float64 { return float64(table2Row(s, id).System) }, quick, deflt,
		func(v float64) string { return sysmodel.Class(v).String() }}
}

// output is a Table 2 output-versus-input cell.
func output(id string, paper workloads.DataRatio, quick, deflt bool) claim {
	return claim{id + "-output", shape, "Output" + paper.String(), is(float64(paper)),
		func(s *Session) float64 { return float64(table2Row(s, id).OutVsIn) }, quick, deflt,
		func(v float64) string { return "Output" + workloads.DataRatio(v).String() }}
}

const bigData = "big data (17 reps)"

var (
	ipc      = func(name string) measure { return rowOf(Fig3, name, 0) }
	l1i      = func(name string) measure { return rowOf(Fig4, name, 0) }
	l2       = func(name string) measure { return rowOf(Fig4, name, 2) }
	l3       = func(name string) measure { return rowOf(Fig4, name, 3) }
	branch   = func(r MixRow) float64 { return r.Branch }
	bdBranch = func(s *Session) float64 { return Fig1(s).BigDataBranchAvg }
)

// claims is every observation of the paper's evaluation the model is
// held to, one row each. A row a paper-shape test checks (claimsHold)
// keeps that test's band; a paper value no test banded must fall
// within 2x (near). A
// shape row's paper value is the paper's ratio of the two values it
// orders, where the paper gives both. A verdict that moves at either
// budget fails, so a model change that fixes or breaks a claim
// records its new verdict here.
var claims = []claim{
	// Table 2: the 17 representatives' system and data behaviours.
	{"table2-rows", shape, "17", is(17), func(s *Session) float64 { return float64(len(Table2(s))) }, pass, pass, nil},
	system("H-Read", sysmodel.IOIntensive, pass, pass),
	system("H-Grep", sysmodel.CPUIntensive, pass, miss),
	system("H-NaiveBayes", sysmodel.CPUIntensive, pass, pass),
	system("S-Kmeans", sysmodel.CPUIntensive, pass, pass),
	system("S-PageRank", sysmodel.CPUIntensive, pass, pass),
	system("I-SelectQuery", sysmodel.IOIntensive, pass, pass),
	output("S-Sort", workloads.RatioEqual, pass, pass),
	output("H-Read", workloads.RatioEqual, pass, pass),
	output("S-PageRank", workloads.RatioMore, pass, miss),
	output("H-Grep", workloads.RatioNone, pass, pass),

	// Table 4 and §5.1: branch misprediction, Atom D510 against Xeon E5645.
	{"atom-vs-xeon-mispredict", magnitude, "2.8", within(1.7, 5), func(s *Session) float64 { r := Table4(s); return r.AtomAvg / r.XeonAvg }, pass, pass, nil},
	{"xeon-mispredict", magnitude, "0.028", atMost(0.09), func(s *Session) float64 { return Table4(s).XeonAvg }, pass, pass, nil},
	{"atom-mispredict", magnitude, "0.078", near(0.078), func(s *Session) float64 { return Table4(s).AtomAvg }, miss, miss, nil},

	// Fig. 1 and §5.1: the instruction mix.
	{"bd-branch", magnitude, "0.187", within(0.14, 0.26), bdBranch, pass, pass, nil},
	{"bd-integer", magnitude, "0.38", within(0.30, 0.50), func(s *Session) float64 { return Fig1(s).BigDataIntAvg }, pass, pass, nil},
	{"bd-datamove", magnitude, "0.73", near(0.73), func(s *Session) float64 { return Fig1(s).DataMovementShare }, pass, pass, nil},
	{"bd-datamove+branch", magnitude, "0.92", atLeast(0.80), func(s *Session) float64 { return Fig1(s).WithBranches }, pass, pass, nil},
	{"bd-GFLOPS", magnitude, "0.1", atMost(2), func(s *Session) float64 { return Fig1(s).AvgGFLOPS }, pass, pass, nil},
	{"bd-vs-HPCC-branch", shape, ">1", above(1), ratio(bdBranch, mixOf("HPCC", branch)), pass, pass, nil},
	{"bd-vs-SPECFP-branch", shape, ">1", above(1), ratio(bdBranch, mixOf("SPECFP", branch)), pass, pass, nil},
	{"bd-vs-PARSEC-branch", shape, ">1", above(1), ratio(bdBranch, mixOf("PARSEC", branch)), pass, pass, nil},
	{"HPCC-fp", shape, "high", atLeast(0.1), mixOf("HPCC", func(r MixRow) float64 { return r.FP }), pass, pass, nil},
	{"SPECINT-fp", shape, "~0", atMost(0.05), mixOf("SPECINT", func(r MixRow) float64 { return r.FP }), pass, pass, nil},
	{"TPC-C-branch", magnitude, "0.30", atLeast(0.2), mixOf("TPC-C", branch), pass, pass, nil},

	// Fig. 2: the integer-instruction breakdown.
	{"int-addr", magnitude, "0.64", atLeast(0.4), func(s *Session) float64 { return Fig2(s).IntAddr }, pass, pass, nil},
	{"fp-addr", magnitude, "0.18", above(0.02), func(s *Session) float64 { return Fig2(s).FPAddr }, pass, pass, nil},
	{"int-other", magnitude, "0.18", near(0.18), func(s *Session) float64 { return Fig2(s).Other }, pass, pass, nil},

	// Fig. 3: IPC.
	{"bd-IPC", magnitude, "1.28", within(0.9, 1.7), avgOf(Fig3, bigData, 0), pass, pass, nil},
	{"M-vs-H-WC-IPC", shape, "1.64", above(1), ratio(ipc("M-WordCount"), ipc("H-WordCount")), pass, pass, nil},
	{"H-vs-S-WC-IPC", shape, "1.22", above(1), ratio(ipc("H-WordCount"), ipc("S-WordCount")), pass, pass, nil},
	{"H-Read-vs-bd-IPC", shape, "0.625", atMost(1), ratio(ipc("H-Read"), avgOf(Fig3, bigData, 0)), pass, pass, nil},
	{"HPCC-vs-SPECINT-IPC", shape, "1.67", above(1), ratio(ipc("HPCC"), ipc("SPECINT")), pass, pass, nil},
	{"M-WC-IPC", magnitude, "1.8", near(1.8), ipc("M-WordCount"), pass, pass, nil},
	{"H-WC-IPC", magnitude, "1.1", near(1.1), ipc("H-WordCount"), pass, pass, nil},
	{"S-WC-IPC", magnitude, "0.9", near(0.9), ipc("S-WordCount"), pass, pass, nil},
	{"H-Read-IPC", magnitude, "0.8", near(0.8), ipc("H-Read"), pass, pass, nil},
	{"HPCC-IPC", magnitude, "1.5", near(1.5), ipc("HPCC"), pass, pass, nil},
	{"PARSEC-IPC", magnitude, "1.28", near(1.28), ipc("PARSEC"), pass, pass, nil},
	{"SPECINT-IPC", magnitude, "0.9", near(0.9), ipc("SPECINT"), pass, pass, nil},
	{"SPECFP-IPC", magnitude, "1.1", near(1.1), ipc("SPECFP"), pass, pass, nil},

	// Fig. 4: cache MPKI.
	{"H-vs-M-WC-L1I", shape, "3.5", atLeast(3), ratio(l1i("H-WordCount"), l1i("M-WordCount")), pass, pass, nil},
	{"S-vs-H-WC-L1I", shape, "2.43", above(1), ratio(l1i("S-WordCount"), l1i("H-WordCount")), pass, pass, nil},
	{"H-Read-vs-max-rep-L1I", shape, "1", atLeast(1), func(s *Session) float64 {
		top := 0.0
		for _, p := range s.Reps() {
			top = max(top, l1i(p.Workload.ID)(s))
		}
		return l1i("H-Read")(s) / top
	}, pass, pass, nil},
	{"H-vs-M-WC-L2", shape, "10.5", above(1), ratio(l2("H-WordCount"), l2("M-WordCount")), pass, pass, nil},
	{"S-vs-H-WC-L2", shape, "1.9", above(1), ratio(l2("S-WordCount"), l2("H-WordCount")), pass, pass, nil},
	{"M-vs-S-WC-L3", shape, "0.037", below(1), ratio(l3("M-WordCount"), l3("S-WordCount")), pass, pass, nil},
	{"CloudSuite-vs-PARSEC-L1I", shape, ">>1", atLeast(5), ratio(l1i("CloudSuite"), l1i("PARSEC")), pass, pass, nil},
	{"bd-L1I-MPKI", magnitude, "15", near(15), avgOf(Fig4, bigData, 0), pass, pass, nil},
	{"service-L1I-MPKI", magnitude, "51", near(51), avgOf(Fig4, workloads.Service.String(), 0), pass, pass, nil},
	{"CloudSuite-L1I-MPKI", magnitude, "32", near(32), l1i("CloudSuite"), pass, pass, nil},
	{"M-WC-L1I-MPKI", magnitude, "2", near(2), l1i("M-WordCount"), miss, miss, nil},
	{"H-WC-L1I-MPKI", magnitude, "7", near(7), l1i("H-WordCount"), pass, pass, nil},
	{"S-WC-L1I-MPKI", magnitude, "17", near(17), l1i("S-WordCount"), pass, pass, nil},
	{"bd-L2-MPKI", magnitude, "11", near(11), avgOf(Fig4, bigData, 2), pass, pass, nil},
	{"bd-L3-MPKI", magnitude, "1.2", near(1.2), avgOf(Fig4, bigData, 3), miss, miss, nil},

	// Fig. 5: TLB MPKI.
	{"service-vs-DA-ITLB", shape, "5", atLeast(0.5), ratio(avgOf(Fig5, workloads.Service.String(), 0), avgOf(Fig5, workloads.DataAnalysis.String(), 0)), pass, pass, nil},
	{"bd-DTLB-MPKI", magnitude, "0.9", atMost(8), avgOf(Fig5, bigData, 1), pass, pass, nil},
	{"bd-ITLB-MPKI", magnitude, "0.05", near(0.05), avgOf(Fig5, bigData, 0), miss, miss, nil},
	{"service-ITLB-MPKI", magnitude, "0.2", near(0.2), avgOf(Fig5, workloads.Service.String(), 0), miss, pass, nil},
	{"service-DTLB-MPKI", magnitude, "1.8", near(1.8), avgOf(Fig5, workloads.Service.String(), 1), pass, pass, nil},

	// §5.4, Figs. 6, 7 and 9: instruction and data footprints.
	{"Hadoop-vs-PARSEC-I-knee", shape, "8", above(1), ratio(knee(Fig6, "Hadoop-workloads", 0.2), knee(Fig6, "PARSEC-workloads", 0.2)), pass, pass, nil},
	{"PARSEC-I-knee-KB", magnitude, "128", atMost(256), knee(Fig6, "PARSEC-workloads", 0.15), pass, pass, nil},
	{"Hadoop-I-miss@128KB", shape, ">0", atLeast(0.01), missAt(Fig6, "Hadoop-workloads", 128), pass, pass, nil},
	{"D-curves-apart>=512KB", shape, "0", is(0), func(s *Session) float64 {
		r := Fig7(s)
		h, p := r.Curves["Hadoop-workloads"], r.Curves["PARSEC-workloads"]
		apart := 0
		for i, kb := range r.SizesKB {
			if kb >= 512 && h[i]-p[i] > 0.02 && h[i] > p[i]*4 {
				apart++
			}
		}
		return float64(apart)
	}, pass, pass, nil},
	{"MPI-vs-PARSEC-I-knee", shape, "~1", atMost(4), ratio(knee(Fig9, "MPI-workloads", 0.2), knee(Fig9, "PARSEC-workloads", 0.2)), pass, pass, nil},
	{"MPI-vs-Hadoop-I-knee", shape, "<1", below(1), ratio(knee(Fig9, "MPI-workloads", 0.2), knee(Fig9, "Hadoop-workloads", 0.2)), pass, pass, nil},
	{"MPI-vs-Hadoop-I-miss@16KB", shape, "<<1", atMost(0.5), ratio(missAt(Fig9, "MPI-workloads", 16), missAt(Fig9, "Hadoop-workloads", 16)), pass, pass, nil},
	{"PARSEC-code-footprint-KB", magnitude, "128", atMost(256), func(s *Session) float64 {
		avg, _ := s.Suites()
		return avg["PARSEC"][metrics.CodeFootprintKB]
	}, pass, pass, nil},

	// §3: 77 workloads reduced to 17 representatives.
	{"reduction-clusters", shape, "17", is(17), func(s *Session) float64 {
		r, err := Reduction(s)
		if err != nil {
			return math.NaN()
		}
		return float64(r.Reduction.K)
	}, pass, pass, nil},

	// §5.5: the same algorithms under MPI against Hadoop and Spark.
	{"MPI-vs-JVM-IPC", shape, "1.21", above(1), func(s *Session) float64 { r := StackImpact(s); return r.MPIAvgIPC / r.OtherAvgIPC }, pass, pass, nil},
	{"JVM-vs-MPI-L1I", shape, "3.7", atLeast(3), func(s *Session) float64 { r := StackImpact(s); return r.OtherAvgL1I / r.MPIAvgL1I }, pass, pass, nil},
	{"mpi-IPC", magnitude, "1.4", near(1.4), func(s *Session) float64 { return StackImpact(s).MPIAvgIPC }, pass, pass, nil},
	{"jvm-IPC", magnitude, "1.16", near(1.16), func(s *Session) float64 { return StackImpact(s).OtherAvgIPC }, pass, pass, nil},
	{"mpi-L1I", magnitude, "3.4", near(3.4), func(s *Session) float64 { return StackImpact(s).MPIAvgL1I }, miss, miss, nil},
	{"jvm-L1I", magnitude, "12.6", near(12.6), func(s *Session) float64 { return StackImpact(s).OtherAvgL1I }, pass, pass, nil},
}

func verdict(ok bool) string {
	if ok {
		return "pass"
	}
	return "miss"
}

// TestPaperClaims checks every claim at Quick() against the verdict
// recorded for that budget.
func TestPaperClaims(t *testing.T) {
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			v := c.measure(quickSession)
			t.Log(c.report(v))
			if c.band.holds(v) != c.quick {
				t.Errorf("verdict at Quick() differs from the recorded %s", verdict(c.quick))
			}
		})
	}
}

// claimsHold fails t unless every named claim holds at Quick(). Each
// paper-shape test below is such a selection: the claims of one table
// or figure that it checks, with the bands kept only in claims.
func claimsHold(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		i := slices.IndexFunc(claims, func(c claim) bool { return c.name == name })
		if i < 0 {
			t.Errorf("no claim %q", name)
			continue
		}
		c := claims[i]
		if v := c.measure(quickSession); !c.band.holds(v) {
			t.Errorf("%s %s", name, c.report(v))
		}
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	claimsHold(t, "table2-rows",
		"H-Read-system", "H-Grep-system", "H-NaiveBayes-system", "S-Kmeans-system", "S-PageRank-system", "I-SelectQuery-system",
		"S-Sort-output", "H-Read-output", "S-PageRank-output", "H-Grep-output")
}

func TestTable4PredictorGap(t *testing.T) {
	claimsHold(t, "atom-vs-xeon-mispredict", "xeon-mispredict")
}

func TestFig1Headlines(t *testing.T) {
	claimsHold(t, "bd-branch", "bd-integer", "bd-datamove+branch", "bd-GFLOPS",
		"bd-vs-HPCC-branch", "bd-vs-SPECFP-branch", "bd-vs-PARSEC-branch")
}

func TestFig3IPCShape(t *testing.T) {
	claimsHold(t, "bd-IPC", "M-vs-H-WC-IPC", "H-vs-S-WC-IPC", "H-Read-vs-bd-IPC", "HPCC-vs-SPECINT-IPC")
}

func TestFig4CacheShape(t *testing.T) {
	claimsHold(t, "H-vs-M-WC-L1I", "S-vs-H-WC-L1I", "H-Read-vs-max-rep-L1I",
		"H-vs-M-WC-L2", "S-vs-H-WC-L2", "M-vs-S-WC-L3", "CloudSuite-vs-PARSEC-L1I")
}

func TestFig5TLBShape(t *testing.T) {
	claimsHold(t, "service-vs-DA-ITLB", "bd-DTLB-MPKI")
}

func TestFig7DataCurvesConverge(t *testing.T) {
	claimsHold(t, "D-curves-apart>=512KB")
}

func TestFig9MPITracksPARSEC(t *testing.T) {
	claimsHold(t, "MPI-vs-Hadoop-I-miss@16KB")
}

func TestFig6Fig9QualitativeClaims(t *testing.T) {
	claimsHold(t, "Hadoop-vs-PARSEC-I-knee", "MPI-vs-PARSEC-I-knee", "MPI-vs-Hadoop-I-knee", "MPI-vs-Hadoop-I-miss@16KB")
}

func TestStackImpactHeadlines(t *testing.T) {
	claimsHold(t, "MPI-vs-JVM-IPC", "JVM-vs-MPI-L1I")
}

// BenchmarkPaperClaims checks every claim on a fresh Default() session
// — the budgets repro prints with — against the verdict recorded for
// that budget, and reports each measured value as a metric named with
// the paper's value. Only rows whose verdict differs are logged: the
// testing package keeps the first ten lines of a benchmark's output.
func BenchmarkPaperClaims(b *testing.B) {
	var s *Session
	for i := 0; i < b.N; i++ {
		s = NewSession(Default())
		for _, c := range claims {
			c.measure(s)
		}
	}
	b.StopTimer()
	for _, c := range claims {
		v := c.measure(s)
		b.ReportMetric(v, c.name+"(paper:"+c.paper+")")
		if c.band.holds(v) != c.deflt {
			b.Errorf("%s %s; verdict at Default() differs from the recorded %s", c.name, c.report(v), verdict(c.deflt))
		}
	}
}
