package repro

// One benchmark per table and figure of the paper's evaluation. Each
// bench regenerates its artefact and reports the headline numbers as
// custom benchmark metrics (paper targets in the metric names where
// a single number exists), so
//
//	go test -bench=. -benchmem
//
// prints the full paper-vs-measured picture. The heavyweight profiled
// runs are shared through a lazily-built session.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/artifact"
	"repro/internal/artifact/artifactd"
	"repro/internal/artifact/httpstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sim/isa"
	"repro/internal/sim/machine"
	"repro/internal/suites"
	"repro/internal/workloads"
)

var (
	benchOnce    sync.Once
	benchSession *experiments.Session
)

func session() *experiments.Session {
	benchOnce.Do(func() {
		opt := experiments.Default()
		// Benches prioritize breadth over per-run length.
		opt.Budget = 1_500_000
		opt.SweepBudget = 600_000
		opt.RosterBudget = 500_000
		benchSession = experiments.NewSession(opt)
	})
	return benchSession
}

func BenchmarkTable1DataSets(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(experiments.Table1())
	}
	b.ReportMetric(float64(rows), "datasets")
}

func BenchmarkTable2Classification(b *testing.B) {
	s := session()
	var cpu, io, hybrid int
	for i := 0; i < b.N; i++ {
		cpu, io, hybrid = 0, 0, 0
		for _, r := range experiments.Table2(s) {
			switch r.System.String() {
			case "CPU-Intensive":
				cpu++
			case "IO-Intensive":
				io++
			default:
				hybrid++
			}
		}
	}
	b.ReportMetric(float64(cpu), "cpu-intensive")
	b.ReportMetric(float64(io), "io-intensive")
	b.ReportMetric(float64(hybrid), "hybrid")
}

func BenchmarkTable4BranchPrediction(b *testing.B) {
	s := session()
	var r experiments.Table4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table4(s)
	}
	b.ReportMetric(r.AtomAvg*100, "atom-mispredict%(paper:7.8)")
	b.ReportMetric(r.XeonAvg*100, "xeon-mispredict%(paper:2.8)")
	b.ReportMetric(r.AtomAvg/r.XeonAvg, "ratio(paper:2.8)")
}

func BenchmarkFig1InstructionMix(b *testing.B) {
	s := session()
	var f experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		f = experiments.Fig1(s)
	}
	b.ReportMetric(f.BigDataBranchAvg*100, "branch%(paper:18.7)")
	b.ReportMetric(f.BigDataIntAvg*100, "integer%(paper:38)")
	b.ReportMetric(f.DataMovementShare*100, "datamove%(paper:73)")
	b.ReportMetric(f.WithBranches*100, "datamove+br%(paper:92)")
	b.ReportMetric(f.AvgGFLOPS, "GFLOPS(paper:0.1)")
}

func BenchmarkFig2IntegerBreakdown(b *testing.B) {
	s := session()
	var f experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		f = experiments.Fig2(s)
	}
	b.ReportMetric(f.IntAddr*100, "int-addr%(paper:64)")
	b.ReportMetric(f.FPAddr*100, "fp-addr%(paper:18)")
	b.ReportMetric(f.Other*100, "other%(paper:18)")
}

func fig3Value(f experiments.FigSeriesResult, name string) float64 {
	for _, r := range f.Rows {
		if r.Name == name {
			return r.Values[0]
		}
	}
	return 0
}

func BenchmarkFig3IPC(b *testing.B) {
	s := session()
	var f experiments.FigSeriesResult
	for i := 0; i < b.N; i++ {
		f = experiments.Fig3(s)
	}
	b.ReportMetric(f.Averages["big data (17 reps)"][0], "bd-IPC(paper:1.28)")
	b.ReportMetric(fig3Value(f, "M-WordCount"), "M-WC-IPC(paper:1.8)")
	b.ReportMetric(fig3Value(f, "H-WordCount"), "H-WC-IPC(paper:1.1)")
	b.ReportMetric(fig3Value(f, "S-WordCount"), "S-WC-IPC(paper:0.9)")
	b.ReportMetric(fig3Value(f, "H-Read"), "H-Read-IPC(paper:0.8)")
	b.ReportMetric(fig3Value(f, "HPCC"), "HPCC-IPC(paper:1.5)")
	b.ReportMetric(fig3Value(f, "PARSEC"), "PARSEC-IPC(paper:1.28)")
	b.ReportMetric(fig3Value(f, "SPECINT"), "SPECINT-IPC(paper:0.9)")
	b.ReportMetric(fig3Value(f, "SPECFP"), "SPECFP-IPC(paper:1.1)")
}

func BenchmarkFig4CacheBehaviour(b *testing.B) {
	s := session()
	var f experiments.FigSeriesResult
	for i := 0; i < b.N; i++ {
		f = experiments.Fig4(s)
	}
	get := func(name string, k int) float64 {
		for _, r := range f.Rows {
			if r.Name == name {
				return r.Values[k]
			}
		}
		return 0
	}
	b.ReportMetric(f.Averages["big data (17 reps)"][0], "bd-L1I-MPKI(paper:15)")
	b.ReportMetric(f.Averages["service"][0], "service-L1I(paper:51)")
	b.ReportMetric(get("CloudSuite", 0), "cloudsuite-L1I(paper:32)")
	b.ReportMetric(get("M-WordCount", 0), "M-WC-L1I(paper:2)")
	b.ReportMetric(get("H-WordCount", 0), "H-WC-L1I(paper:7)")
	b.ReportMetric(get("S-WordCount", 0), "S-WC-L1I(paper:17)")
	b.ReportMetric(f.Averages["big data (17 reps)"][2], "bd-L2-MPKI(paper:11)")
	b.ReportMetric(f.Averages["big data (17 reps)"][3], "bd-L3-MPKI(paper:1.2)")
}

func BenchmarkFig5TLBBehaviour(b *testing.B) {
	s := session()
	var f experiments.FigSeriesResult
	for i := 0; i < b.N; i++ {
		f = experiments.Fig5(s)
	}
	b.ReportMetric(f.Averages["big data (17 reps)"][0], "bd-ITLB-MPKI(paper:0.05)")
	b.ReportMetric(f.Averages["service"][0], "service-ITLB(paper:0.2)")
	b.ReportMetric(f.Averages["big data (17 reps)"][1], "bd-DTLB-MPKI(paper:0.9)")
	b.ReportMetric(f.Averages["service"][1], "service-DTLB(paper:1.8)")
}

func benchSweep(b *testing.B, run func(*experiments.Session) experiments.SweepResult, curves []string) {
	s := session()
	var r experiments.SweepResult
	for i := 0; i < b.N; i++ {
		r = run(s)
	}
	for _, c := range curves {
		b.ReportMetric(float64(r.Knee(c, 0.25)), c+"-kneeKB")
		b.ReportMetric(r.Curves[c][0], c+"-missRatio@16KB")
	}
}

func BenchmarkFig6ICacheFootprint(b *testing.B) {
	benchSweep(b, experiments.Fig6, []string{"Hadoop-workloads", "PARSEC-workloads"})
}

func BenchmarkFig7DCacheFootprint(b *testing.B) {
	benchSweep(b, experiments.Fig7, []string{"Hadoop-workloads", "PARSEC-workloads"})
}

func BenchmarkFig8CombinedFootprint(b *testing.B) {
	benchSweep(b, experiments.Fig8, []string{"Hadoop-workloads", "PARSEC-workloads"})
}

func BenchmarkFig9MPIFootprint(b *testing.B) {
	benchSweep(b, experiments.Fig9, []string{"Hadoop-workloads", "PARSEC-workloads", "MPI-workloads"})
}

func BenchmarkSection3Reduction(b *testing.B) {
	s := session()
	var clusters, dims int
	var explained float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Reduction(s)
		if err != nil {
			b.Fatal(err)
		}
		clusters = r.Reduction.K
		dims = r.Reduction.Dimensions
		explained = r.Reduction.Explained
	}
	b.ReportMetric(float64(clusters), "clusters(paper:17)")
	b.ReportMetric(float64(dims), "pca-dims")
	b.ReportMetric(explained*100, "variance%")
}

func BenchmarkSection55StackImpact(b *testing.B) {
	s := session()
	var r experiments.StackImpactResult
	for i := 0; i < b.N; i++ {
		r = experiments.StackImpact(s)
	}
	b.ReportMetric(r.MPIAvgIPC, "mpi-IPC(paper:1.4)")
	b.ReportMetric(r.OtherAvgIPC, "jvm-IPC(paper:1.16)")
	b.ReportMetric(r.MPIAvgL1I, "mpi-L1I(paper:3.4)")
	b.ReportMetric(r.OtherAvgL1I, "jvm-L1I(paper:12.6)")
}

// BenchmarkEngineSerial regenerates the full paper batch on one
// worker, primers then units in definition order — the reference the
// concurrent engine is compared against.
func BenchmarkEngineSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(experiments.Quick())
		s.Parallelism = 1
		e := &experiments.Engine{Session: s}
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(res) == 0 {
			b.Fatal("engine produced no results")
		}
	}
}

// BenchmarkEngineParallel regenerates the full paper batch in the
// engine's two phases on GOMAXPROCS workers.
func BenchmarkEngineParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := &experiments.Engine{Session: experiments.NewSession(experiments.Quick())}
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(res) == 0 {
			b.Fatal("engine produced no results")
		}
	}
}

// BenchmarkSweepFiguresSerial is the seed's Fig. 6-9 work through the
// per-instruction concrete-cache oracle: every curve re-traces its
// workload group — 9 group sweeps (Hadoop and PARSEC once per figure,
// plus MPI in Fig. 9), 50 trace passes — with every cache accessed
// inline. It is the reference CI's FiguresBlocked/FiguresSerial ratio
// measures the engine path against.
func BenchmarkSweepFiguresSerial(b *testing.B) {
	var hadoop []workloads.Workload
	for _, w := range workloads.Representative17() {
		if w.Stack.Name == "Hadoop" {
			hadoop = append(hadoop, w)
		}
	}
	hp := slices.Concat(hadoop, suites.PARSEC())
	passes := slices.Concat(hp, hp, hp, hp, workloads.MPI6()) // Figs. 6, 7, 8, then 9
	budget := experiments.Quick().SweepBudget
	for i := 0; i < b.N; i++ {
		for _, w := range passes {
			sw, err := machine.NewSweepSpec(machine.DefaultSweepSizesKB, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			workloads.Run(w, sw, budget)
			if len(sw.Curves().Inst) == 0 {
				b.Fatal("missing curves")
			}
		}
	}
	b.ReportMetric(float64(len(passes)), "trace-passes")
}

// BenchmarkSweepFiguresBlocked is the engine path: one trace pass per
// workload (blocks decoded once into packed access streams, consumed
// by the default stack-distance engine), all three views extracted
// from it and shared by the four figures. The equivalence tests prove
// its curves bit-identical to the per-instruction concrete-cache
// oracle.
func BenchmarkSweepFiguresBlocked(b *testing.B) {
	var passes int64
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(experiments.Quick())
		experiments.Fig6(s)
		experiments.Fig7(s)
		experiments.Fig8(s)
		if len(experiments.Fig9(s).Curves["MPI-workloads"]) == 0 {
			b.Fatal("missing curves")
		}
		passes = s.TracePasses()
	}
	b.ReportMetric(float64(passes), "trace-passes")
}

// sweepPassBudget sizes the single-pass replay benchmarks.
const sweepPassBudget = 600_000

// BenchmarkSweepPassSerial measures ONE cold sweep trace pass through
// the per-instruction concrete-cache oracle: a virtual probe call per
// instruction, every cache accessed inline.
func BenchmarkSweepPassSerial(b *testing.B) {
	w := Representative17()[14] // H-WordCount
	for i := 0; i < b.N; i++ {
		sw, err := machine.NewSweepSpec(machine.DefaultSweepSizesKB, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		workloads.Run(w, sw, sweepPassBudget)
	}
	b.ReportMetric(sweepPassBudget*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkSweepStackDist measures ONE cold sweep trace pass through
// the stack-distance engine at the default geometry — the same pass
// BenchmarkSweepPassSerial prices through concrete caches. The
// differential tests prove the curves bit-identical; this records what
// the engine costs (or saves) on the single-geometry hot path.
func BenchmarkSweepStackDist(b *testing.B) {
	w := Representative17()[14] // H-WordCount
	for i := 0; i < b.N; i++ {
		sw, err := machine.NewStackSweep(0, machine.SweepGeometry{SizesKB: machine.DefaultSweepSizesKB})
		if err != nil {
			b.Fatal(err)
		}
		workloads.Run(w, sw, sweepPassBudget)
	}
	b.ReportMetric(sweepPassBudget*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkSweepViews prices view selection: ONE cold default-geometry
// pass pricing the instruction view alone, as a scenario that leaves
// its views at the default does, against all three, as the paper
// figures do. The inst pass decodes and replays only the instruction
// stream; benchguard holds it at <= 0.7 of the all-view pass.
func BenchmarkSweepViews(b *testing.B) {
	w := Representative17()[14] // H-WordCount
	for _, c := range []struct {
		name  string
		views machine.Views
	}{{"inst", machine.ViewInst}, {"all", 0}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sw, err := machine.NewStackSweepViews(c.views, 0, machine.SweepGeometry{SizesKB: machine.DefaultSweepSizesKB})
				if err != nil {
					b.Fatal(err)
				}
				workloads.Run(w, sw, sweepPassBudget)
			}
			b.ReportMetric(sweepPassBudget*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
		})
	}
}

// multiGeoms are the default size ladder at the default associativity,
// then ways 1, 2, 16, 4 and 32: any prefix is a multi-geometry pass,
// and all six are ways 1–32.
var multiGeoms = []machine.SweepGeometry{
	{SizesKB: machine.DefaultSweepSizesKB, Ways: machine.DefaultSweepWays},
	{SizesKB: machine.DefaultSweepSizesKB, Ways: 1},
	{SizesKB: machine.DefaultSweepSizesKB, Ways: 2},
	{SizesKB: machine.DefaultSweepSizesKB, Ways: 16},
	{SizesKB: machine.DefaultSweepSizesKB, Ways: 4},
	{SizesKB: machine.DefaultSweepSizesKB, Ways: 32},
}

// BenchmarkSweepMultiGeometry prices geometry count under the
// stack-distance engine: one pass answering 1, 4 or 6 associativities
// over the default size ladder (geoms-6 is ways 1–32, the shape of the
// scenarios that sweep every associativity). Extra geometries only add
// per-set stacks (more histogram buckets, same trace work), so geoms-4
// and geoms-6 must scale near-flat relative to geoms-1 — the
// benchguard ratios pin it.
func BenchmarkSweepMultiGeometry(b *testing.B) {
	w := Representative17()[14] // H-WordCount
	for _, n := range []int{1, 4, 6} {
		b.Run(fmt.Sprintf("geoms-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sw, err := machine.NewStackSweep(0, multiGeoms[:n]...)
				if err != nil {
					b.Fatal(err)
				}
				workloads.Run(w, sw, sweepPassBudget)
			}
			b.ReportMetric(sweepPassBudget*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
		})
	}
}

// BenchmarkSweepFanout measures one cold sweep trace pass with the
// block-replay fan-out pinned — the numbers behind the Parallelism
// default (DESIGN.md "Sweep fan-out parallelism"). stackdist-workers-N
// pins StackSweep over ways 1–32, which distributes its three views
// (unified first), to 1 and 2 in-flight replays. The win tracks
// physical cores: on a single-core host every width converges on the
// serial time (the pool adds only scheduling overhead). Width 1
// replays serially in the caller (no pool hop) and is the floor every
// width must not regress below on one core.
func BenchmarkSweepFanout(b *testing.B) {
	w := Representative17()[14] // H-WordCount
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("stackdist-workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sw, err := machine.NewStackSweep(0, multiGeoms...)
				if err != nil {
					b.Fatal(err)
				}
				sw.Parallelism = workers
				workloads.Run(w, sw, sweepPassBudget)
			}
			b.ReportMetric(sweepPassBudget*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
		})
	}
}

// BenchmarkServeWarmUnit measures the daemon's warm fast path: one
// GET /units answered straight from the store (artifact.Peek), no
// session, no engine — the request shape a warmed reprod serves under
// load.
func BenchmarkServeWarmUnit(b *testing.B) {
	opt := experiments.Options{Budget: 50_000, SweepBudget: 25_000, RosterBudget: 10_000}
	srv, err := serve.New(serve.Config{Opt: opt})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	warm, err := http.Get(ts.URL + "/v1/units/table1")
	if err != nil || warm.StatusCode != 200 {
		b.Fatalf("warmup: %v %v", err, warm)
	}
	warm.Body.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(ts.URL + "/v1/units/table1")
		if err != nil || resp.StatusCode != 200 {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if n := srv.Metrics().Int("computes"); n != 1 {
		b.Fatalf("warm serving computed %d times, want 1", n)
	}
}

// BenchmarkServeWarmScenario measures the warm scenario path: one
// POST /scenarios decoded, canonicalized against the static workload
// index, keyed and answered by artifact.Peek — no session, no
// simulation.
func BenchmarkServeWarmScenario(b *testing.B) {
	opt := experiments.Options{Budget: 50_000, SweepBudget: 25_000, RosterBudget: 10_000}
	srv, err := serve.New(serve.Config{Opt: opt})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const spec = `{"workloads": ["H-Grep", "S-Sort"], "sizes_kb": [16, 64, 256]}`
	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(spec))
		if err != nil || resp.StatusCode != 200 {
			b.Fatalf("POST /v1/scenarios: %v %v", err, resp)
		}
		return resp
	}
	post().Body.Close()
	computes := srv.Metrics().Int("computes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := post()
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if n := srv.Metrics().Int("computes"); n != computes {
		b.Fatalf("warm serving computed %d times, want %d", n, computes)
	}
}

// layerBenchBudget is the per-workload instruction budget of the
// trace/gen and machine/profile layer benchmarks.
const layerBenchBudget = 500_000

// nullBlockProbe discards every delivered block, leaving only the
// emitter's own cost.
type nullBlockProbe struct{}

func (nullBlockProbe) Inst(*isa.Inst)       {}
func (nullBlockProbe) InstBlock([]isa.Inst) {}

// primeDatasets runs every workload once on a tiny budget so dataset
// generation (memoized process-wide) falls outside the timed loop.
func primeDatasets(list []workloads.Workload) {
	for _, w := range list {
		workloads.RunBlock(w, nullBlockProbe{}, 1_000, 0)
	}
}

// BenchmarkTraceGen is the trace/gen layer: the 17 representatives'
// kernels emitting their instruction streams in blocks into a probe
// that discards them. BenchmarkMachineProfile runs the same streams
// through the machine model, so the model's cost is the difference.
func BenchmarkTraceGen(b *testing.B) {
	list := workloads.Representative17()
	primeDatasets(list)
	b.ReportAllocs()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		for _, w := range list {
			insts += workloads.RunBlock(w, nullBlockProbe{}, layerBenchBudget, 0).Insts
		}
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkColdScenarioPass is the trace pass behind one cold serving
// request: H-Grep swept at 16 and 64 KB under ways {1, 8}, pricing the
// instruction view alone, as the committed adhoc_geometries scenarios
// do. Each iteration runs at budget 200,000 plus the iteration number,
// so every pass has a budget of its own, like serve-mixed's cold
// requests; the dataset is generated before the timer starts. Trace
// generation is most of its cost.
func BenchmarkColdScenarioPass(b *testing.B) {
	var w workloads.Workload
	for _, r := range workloads.Representative17() {
		if r.ID == "H-Grep" {
			w = r
		}
	}
	primeDatasets([]workloads.Workload{w})
	sizes := []int{16, 64}
	b.ReportAllocs()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		sw, err := machine.NewStackSweepViews(machine.ViewInst, 0,
			machine.SweepGeometry{SizesKB: sizes, Ways: 1}, machine.SweepGeometry{SizesKB: sizes, Ways: 8})
		if err != nil {
			b.Fatal(err)
		}
		insts += workloads.Run(w, sw, 200_000+int64(i)).Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkMachineProfile is the machine/profile layer on top of
// trace/gen: one core.Profiler.Profile per representative — the
// emitter driving a fresh machine model through its block path, then
// the 45-metric vector — over the same workloads and budget as
// BenchmarkTraceGen, on each preset. The streams are generated live
// rather than replayed from a recording: a recorded stream of
// realistic length is read from DRAM, and the read bandwidth hides
// the model's cost.
func BenchmarkMachineProfile(b *testing.B) {
	list := workloads.Representative17()
	primeDatasets(list)
	for _, preset := range []struct {
		name string
		cfg  machine.Config
	}{{"xeon", machine.XeonE5645()}, {"atom", machine.AtomD510()}} {
		b.Run(preset.name, func(b *testing.B) {
			p := &core.Profiler{Machine: preset.cfg, Budget: layerBenchBudget}
			b.ReportAllocs()
			b.ResetTimer()
			var insts uint64
			for i := 0; i < b.N; i++ {
				for _, w := range list {
					insts += p.Profile(w).Run.Insts
				}
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
		})
	}
}

// BenchmarkStoreHTTP measures the network tier's round trip: one
// store fill published to an in-process artifactd (PUT), then loaded
// back by a cold store modelling a remote shard (GET + verification).
func BenchmarkStoreHTTP(b *testing.B) {
	srv, err := artifactd.New(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	payload := make([]float64, 1024) // ~8 KB, the size class of a ProfileRecord
	for i := range payload {
		payload[i] = float64(i) * 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := artifact.KeyOf("bench-http", i)
		writer, err := httpstore.New(ts.URL)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := artifact.Get(artifact.NewWithBackend(writer), key,
			func() ([]float64, error) { return payload, nil }); err != nil {
			b.Fatal(err)
		}
		reader, err := httpstore.New(ts.URL)
		if err != nil {
			b.Fatal(err)
		}
		cold := artifact.NewWithBackend(reader)
		got, err := artifact.Get(cold, key, func() ([]float64, error) {
			return nil, fmt.Errorf("remote entry missed")
		})
		if err != nil || len(got) != len(payload) {
			b.Fatal(err)
		}
	}
	st := srv.Metrics()
	b.ReportMetric(float64(st.Int("put_bytes")+st.Int("served_bytes"))/float64(b.N), "wire-bytes/op")
}

// BenchmarkStoreHTTPPut measures artifactd's write path: parallel PUTs
// of fresh entries over keep-alive clients into one in-process server
// on a fresh directory, at the sizes of serve-mixed's uploads (a sweep
// curve, about 150 encoded bytes, and a rendered scenario, about 2 KB).
func BenchmarkStoreHTTPPut(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"curve-150B", 150}, {"render-2KB", 2 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			srv, err := artifactd.New(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			empty, err := artifact.EncodeEntry(artifact.Entry{Version: artifact.Version, Kind: "bench-put", Label: "0"})
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, max(size.bytes-len(empty), 1))
			for i := range payload {
				payload[i] = byte(i * 7)
			}
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c, err := httpstore.New(ts.URL)
				if err != nil {
					b.Error(err)
					return
				}
				for pb.Next() {
					key := artifact.KeyOf("bench-put", next.Add(1))
					entry, err := artifact.EncodeEntry(artifact.Entry{
						Version: artifact.Version, Kind: key.Kind, Label: key.Label, Payload: payload,
					})
					if err != nil {
						b.Error(err)
						return
					}
					c.Put(key.ID(), entry)
				}
			})
			b.StopTimer()
			if puts := srv.Metrics().Int("puts"); puts != int64(b.N) {
				b.Fatalf("server accepted %d of %d puts", puts, b.N)
			}
		})
	}
}

// BenchmarkRenderWarm measures the fully warm repro path the render
// artefacts enable: every dataset, profile, sweep curve and rendered
// unit loads from a persisted store, so an engine pass is pure I/O —
// zero trace passes, zero profile runs, zero renders.
func BenchmarkRenderWarm(b *testing.B) {
	dir := b.TempDir()
	opt := experiments.Options{Budget: 50_000, SweepBudget: 25_000, RosterBudget: 10_000}
	warmup := func() *experiments.Session {
		st, err := artifact.NewDisk(dir)
		if err != nil {
			b.Fatal(err)
		}
		prev := datagen.SetStore(st)
		b.Cleanup(func() { datagen.SetStore(prev) })
		s := experiments.NewSession(opt)
		s.Store = st
		if _, err := (&experiments.Engine{Session: s}).Run(); err != nil {
			b.Fatal(err)
		}
		return s
	}
	warmup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := warmup()
		if s.TracePasses() != 0 || s.ProfileRuns() != 0 || s.Renders() != 0 {
			b.Fatalf("warm pass recomputed: %d trace / %d profile / %d renders",
				s.TracePasses(), s.ProfileRuns(), s.Renders())
		}
	}
}
