package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/conc"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim/machine"
	"repro/internal/suites"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// repeat runs iter for about the measured time and at least once:
// another iteration starts only while the last one would still end in
// time. iter returns the latencies of the operations it completed.
func (c *childRun) repeat(r *childResult, iter func(i int) []time.Duration) {
	var lat []time.Duration
	cpu0 := cpuSeconds()
	start := time.Now()
	for i := 0; ; i++ {
		t0, c0 := time.Now(), cpuSeconds()
		lat = append(lat, iter(i)...)
		if i == 0 {
			r.ScopeCPU = cpuSeconds() - c0
		}
		if time.Since(start)+time.Since(t0) > c.seconds {
			break
		}
	}
	r.latency(lat, time.Since(start), cpuSeconds()-cpu0)
}

// unitOut is one visible unit's rendered bytes.
type unitOut struct {
	name string
	out  []byte
}

// paperRun does exactly what `repro -cache-dir dir` does at opt: every
// artefact, the datasets included, fills one disk-backed store, and the
// concurrent engine runs every unit. wrap, when set, decorates the disk
// tier. It returns the session and the visible units' bytes in order.
func paperRun(dir string, opt experiments.Options, wrap func(artifact.Backend) artifact.Backend, events experiments.EventSink) (*experiments.Session, []unitOut, error) {
	disk, err := artifact.NewDiskBackend(dir)
	if err != nil {
		return nil, nil, err
	}
	var b artifact.Backend = disk
	if wrap != nil {
		b = wrap(disk)
	}
	st := artifact.NewWithBackend(b)
	sess := experiments.NewSession(opt)
	sess.Store = st
	datagen.SetStore(st)
	e := &experiments.Engine{Session: sess, Events: events}
	results, err := e.Run()
	if err != nil {
		return sess, nil, err
	}
	var outs []unitOut
	for _, res := range results {
		if res.Err != nil {
			return sess, nil, fmt.Errorf("%s: %w", res.Unit.Name, res.Err)
		}
		if res.Unit.Hidden || res.Artifact == nil {
			continue
		}
		var buf bytes.Buffer
		res.Artifact.Render(&buf)
		outs = append(outs, unitOut{res.Unit.Name, buf.Bytes()})
	}
	return sess, outs, nil
}

// runPaperCold measures cold paper runs, one fresh store directory each.
func runPaperCold(c *childRun) (*childResult, error) {
	opt := c.size.paper
	c.ready()
	if c.setupOnly {
		return nil, nil
	}
	r := newResult()
	if c.tr != nil {
		return r, c.tracedPaperCold(r, opt)
	}
	c.repeat(r, func(i int) []time.Duration {
		dir := filepath.Join(c.work, fmt.Sprintf("cache-%d", i))
		defer os.RemoveAll(dir)
		r.Attempted++
		t0 := time.Now()
		_, units, err := paperRun(dir, opt, nil, nil)
		d := time.Since(t0)
		if err != nil {
			r.Failed++
			r.fail("paper-cold: %v", err)
			return nil
		}
		for _, u := range units {
			c.check(r, "paper-cold/"+u.name, u.out)
		}
		return []time.Duration{d}
	})
	return r, nil
}

// tracedPaperCold runs one paper run with the engine, store and disk
// hooks attached, then replays its 149 profiling runs and 17 sweep
// passes through timed simulators.
func (c *childRun) tracedPaperCold(r *childResult, opt experiments.Options) error {
	return c.traceBatch(r, "paper-cold", paperJobs(opt), func(root int64) (*experiments.Session, error) {
		dir := filepath.Join(c.work, "cache-traced")
		defer os.RemoveAll(dir)
		var disk *timedBackend
		wrap := func(b artifact.Backend) artifact.Backend {
			disk = &timedBackend{b: b, tr: c.tr, name: "store.disk", parent: root}
			return disk
		}
		sink := newUnitSink(c.tr, root)
		r.Attempted++
		t0 := time.Now()
		sess, units, err := paperRun(dir, opt, wrap, sink)
		wall := time.Since(t0)
		if err != nil {
			r.Failed++
			return nil, err
		}
		for _, u := range units {
			c.check(r, "paper-cold/"+u.name, u.out)
		}
		r.Metrics["engine.primers.busy_s"] = sink.primers.Seconds()
		r.Metrics["render.busy_s"] = sink.visible.Seconds()
		r.Metrics["engine.parallel_efficiency"] = (sink.primers + sink.visible).Seconds() /
			(wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
		r.Metrics["store.disk.put_busy_s"] = time.Duration(disk.putNs.Load()).Seconds()
		r.Metrics["store.disk.puts"] = float64(disk.puts.Load())
		r.Metrics["store.disk.put_mb"] = float64(disk.putBytes.Load()) / (1 << 20)
		return sess, nil
	})
}

// traceBatch runs one batch operation, op, with the tracer on and
// records its end-to-end, store and runtime metrics, then replays jobs
// and checks them against op's session.
func (c *childRun) traceBatch(r *childResult, name string, jobs []replayJob, op func(root int64) (*experiments.Session, error)) error {
	t0 := time.Now()
	root := c.tr.add(0, name, t0, t0, nil)
	gen0, mem0, cpu0 := datagen.Generations(), readMem(), cpuSeconds()
	sess, err := op(root)
	wall := time.Since(t0)
	cpu := cpuSeconds() - cpu0
	r.goMetrics(mem0, readMem())
	if err != nil {
		return err
	}
	r.latency([]time.Duration{wall}, wall, cpu)
	r.ScopeCPU = cpu
	r.Metrics["datagen.generations"] = float64(datagen.Generations() - gen0)
	storeMetrics(r, sess.ArtifactStore().Stats())
	runs, passes := sess.ProfileRuns(), sess.TracePasses()
	c.tr.finish(root, t0.Add(wall), map[string]int64{"profile_runs": runs, "trace_passes": passes})
	c.replay(r, jobs, runs, passes, sess)
	if sess.ProfileRuns() != runs || sess.TracePasses() != passes {
		r.fail("decomposition: reading the session's warm values recomputed work")
	}
	return nil
}

func storeMetrics(r *childResult, st artifact.Stats) {
	r.Metrics["store.mem.hits"] = float64(st.MemHits)
	r.Metrics["store.mem.fills"] = float64(st.Fills)
	r.Metrics["store.mem.evictions"] = float64(st.Evictions)
	r.Metrics["store.mem.hit_ratio"] = st.MemHitRatio()
}

// paperJobs lists every profiling run and sweep pass a cold paper run
// performs: the Xeon and Atom representatives, the MPI twins, the
// comparator suites and the 77-workload roster, then the Fig. 6-9
// sweep groups. Runs sharing a store key are listed once, as the store
// computes them once.
func paperJobs(opt experiments.Options) []replayJob {
	xeon, atom := machine.XeonE5645(), machine.AtomD510()
	var flat []workloads.Workload
	all := suites.All()
	for _, name := range suites.Names() {
		flat = append(flat, all[name]...)
	}
	var jobs []replayJob
	seen := map[string]bool{}
	add := func(j replayJob, id string) {
		id = fmt.Sprintf("%s\x00%s\x00%d", id, workloads.Signature(j.w), j.budget)
		if !seen[id] {
			seen[id] = true
			jobs = append(jobs, j)
		}
	}
	for _, set := range []struct {
		cfg    machine.Config
		list   []workloads.Workload
		budget int64
	}{
		{xeon, workloads.Representative17(), opt.Budget},
		{xeon, workloads.MPI6(), opt.Budget},
		{atom, workloads.Representative17(), opt.Budget},
		{xeon, flat, opt.Budget},
		{xeon, workloads.Roster77(), opt.RosterBudget},
	} {
		for _, w := range set.list {
			add(replayJob{w: w, budget: set.budget, cfg: &set.cfg}, set.cfg.Name)
		}
	}
	var hadoop []workloads.Workload
	for _, w := range workloads.Representative17() {
		if w.Stack.Name == "Hadoop" {
			hadoop = append(hadoop, w)
		}
	}
	geoms := []machine.SweepGeometry{{SizesKB: machine.DefaultSweepSizesKB}}
	for _, list := range [][]workloads.Workload{hadoop, suites.PARSEC(), workloads.MPI6()} {
		for _, w := range list {
			add(replayJob{w: w, budget: opt.SweepBudget, geoms: geoms}, "sweep")
		}
	}
	return jobs
}

// lineSizes are sweep-geometries' three cache-line sizes, one cold
// scenario each.
var lineSizes = []int{32, 64, 128}

// sweepSpecs builds sweep-geometries' three scenarios, one per line
// size, each over the same 24 roster workloads, all six associativities
// from 1 to 32 and every view. The workloads are each of the roster's 24
// algorithms under a seeded software stack: the seed varies the traces
// while every seed does about the same work, which the algorithm mix
// and the associativities set.
func sweepSpecs(seed uint64, budget int64) []experiments.Scenario {
	r := xrand.New(seed)
	var ops []string
	stacks := map[string][]string{}
	for _, w := range workloads.Roster77() {
		_, op, _ := strings.Cut(w.ID, "-")
		if stacks[op] == nil {
			ops = append(ops, op)
		}
		stacks[op] = append(stacks[op], w.ID)
	}
	var ids []string
	for _, op := range ops {
		ids = append(ids, stacks[op][r.Intn(len(stacks[op]))])
	}
	ways := []int{1, 2, 4, 8, 16, 32}
	var specs []experiments.Scenario
	for _, line := range lineSizes {
		specs = append(specs, experiments.Scenario{
			Name:      fmt.Sprintf("ladder-seed%d-line%d", seed, line),
			Workloads: ids,
			Budget:    budget,
			WaysSet:   ways,
			LineBytes: line,
			Views:     []string{"inst", "data", "unified"},
		})
	}
	return specs
}

// sweepJobs lists the stack-distance passes a cold canonical scenario
// over roster workloads makes: one per workload, covering every
// associativity the scenario sweeps.
func sweepJobs(cs experiments.Scenario) []replayJob {
	ways := cs.WaysSet
	if len(ways) == 0 {
		ways = []int{cs.Ways}
	}
	var geoms []machine.SweepGeometry
	for _, w := range ways {
		geoms = append(geoms, machine.SweepGeometry{SizesKB: cs.SizesKB, Ways: w})
	}
	byID := map[string]workloads.Workload{}
	for _, w := range workloads.Roster77() {
		byID[w.ID] = w
	}
	var jobs []replayJob
	for _, id := range cs.Workloads {
		jobs = append(jobs, replayJob{w: byID[id], budget: cs.Budget, line: cs.LineBytes, geoms: geoms})
	}
	return jobs
}

// choose returns n elements of pool in a seeded random order.
func choose[T any](r *xrand.Rand, pool []T, n int) []T {
	p := append([]T(nil), pool...)
	for i := 0; i < n; i++ {
		j := i + r.Intn(len(p)-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:n]
}

func runSweepGeometries(c *childRun) (*childResult, error) {
	specs := sweepSpecs(c.seed, c.size.sweep)
	canon := make([]experiments.Scenario, len(specs))
	for i, s := range specs {
		cs, err := s.Canonical(experiments.Default())
		if err != nil {
			return nil, err
		}
		canon[i] = cs
	}
	c.ready()
	if c.setupOnly {
		return nil, nil
	}
	r := newResult()
	var first [][]byte
	check := func(outs [][]byte) {
		known := true
		for i, out := range outs {
			known = c.check(r, fmt.Sprintf("sweep-geometries/seed-%d/line-%d", c.seed, lineSizes[i]), out) && known
		}
		if !known && c.size.golden {
			// No committed digest for this seed: recompute one scenario in
			// a fresh session and require the same bytes.
			_, again, _ := c.sweepIter(r, specs[:1], 0)
			if !bytes.Equal(again[0], outs[0]) {
				r.fail("sweep-geometries: %s differs when recomputed", specs[0].Name)
			}
		}
	}
	if c.tr == nil {
		c.repeat(r, func(i int) []time.Duration {
			_, outs, lat := c.sweepIter(r, specs, 0)
			if lat == 0 {
				return nil
			}
			if i == 0 {
				first = outs
			} else {
				for j := range outs {
					if !bytes.Equal(outs[j], first[j]) {
						r.fail("sweep-geometries: %s differs between iterations", specs[j].Name)
					}
				}
			}
			return []time.Duration{lat}
		})
		check(first)
		return r, nil
	}

	var jobs []replayJob
	for _, cs := range canon {
		jobs = append(jobs, sweepJobs(cs)...)
	}
	var outs [][]byte
	err := c.traceBatch(r, "sweep-geometries", jobs, func(root int64) (*experiments.Session, error) {
		sess, o, _ := c.sweepIter(r, specs, root)
		outs = o
		return sess, nil
	})
	check(outs)
	return r, err
}

// sweepIter runs specs cold, in order, in one fresh session with fresh
// datasets: one operation of sweep-geometries. It returns the session,
// each scenario's bytes and how long the operation took, or 0 when a
// call failed.
func (c *childRun) sweepIter(r *childResult, specs []experiments.Scenario, parent int64) (*experiments.Session, [][]byte, time.Duration) {
	start := time.Now()
	datagen.SetStore(artifact.New())
	sess := experiments.NewSession(experiments.Default())
	var outs [][]byte
	ok := true
	for _, spec := range specs {
		r.Attempted++
		t0 := time.Now()
		b, err := experiments.RunScenario(sess, spec)
		t1 := time.Now()
		c.tr.add(parent, "scenario:"+spec.Name, t0, t1, nil)
		r.note("scenario."+spec.Name+"_ms", msOf(t1.Sub(t0)), "ms")
		if err != nil {
			r.Failed++
			r.fail("%s: %v", spec.Name, err)
			ok = false
		}
		outs = append(outs, b)
	}
	if !ok {
		return sess, outs, 0
	}
	return sess, outs, time.Since(start)
}

// replayJob is one simulator run of the decomposition replay: a
// profiling run on machine model cfg when it is set, otherwise a
// stack-distance sweep pass over geoms at line size line.
type replayJob struct {
	w      workloads.Workload
	budget int64
	cfg    *machine.Config
	line   int
	geoms  []machine.SweepGeometry
}

// replayOut is what one replayed run computed and where its time went.
type replayOut struct {
	gen, sim time.Duration
	insts    uint64
	vec      metrics.Vector
	curves   []machine.Curves
	err      error
}

// run replays j through workloads.RunBlock with the simulator wrapped
// in a timedProbe. The simulator's time, construction and read-out
// included, is its layer's; the rest of RunBlock is trace generation.
// The run's thread CPU time is split between the two in proportion to
// their wall times, so collector work on other threads and time spent
// waiting for a core count in neither.
func (j replayJob) run(tr *tracer, parent int64) (o replayOut) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := threadCPU()
	start := time.Now()
	var m *machine.Machine
	var sw *machine.StackSweep
	var p simProbe
	if j.cfg != nil {
		m = machine.New(*j.cfg)
		p = m
	} else {
		if sw, o.err = machine.NewStackSweep(j.line, j.geoms...); o.err != nil {
			return o
		}
		sw.Parallelism = 1 // stay on this thread, whose CPU time is measured
		p = sw
	}
	tp := &timedProbe{p: p}
	runStart := time.Now()
	res := workloads.RunBlock(j.w, tp, j.budget, 0)
	runEnd := time.Now()
	if m != nil {
		m.Finish()
		o.vec = metrics.Compute(m)
	} else {
		for g := range j.geoms {
			o.curves = append(o.curves, sw.Curves(g))
		}
	}
	end := time.Now()
	cpu := threadCPU() - cpu0
	gen := runEnd.Sub(runStart) - tp.busy
	o.gen = time.Duration(float64(cpu) * float64(gen) / float64(end.Sub(start)))
	o.sim = cpu - o.gen
	o.insts = res.Insts
	layer := "machine.profile"
	if m == nil {
		layer = "sweep.stackdist"
	}
	id := tr.add(parent, "trace.gen:"+j.w.ID, start, end, map[string]int64{"insts": int64(res.Insts), "budget": j.budget})
	tr.add(id, layer, start, start.Add(o.sim), nil)
	return o
}

// replay runs jobs on every processor, with fresh datasets so their
// generation lands in trace.gen, and records the layer metrics. It
// checks the decomposition: the replay performs exactly the measured
// run's runs profiling runs and passes sweep passes and, when sess is
// set, every replayed result equals the session's warm value.
func (c *childRun) replay(r *childResult, jobs []replayJob, runs, passes int64, sess *experiments.Session) {
	datagen.SetStore(artifact.New())
	t0 := time.Now()
	root := c.tr.add(0, "replay", t0, t0, nil)
	outs := make([]replayOut, len(jobs))
	cpu0 := cpuSeconds()
	conc.ForEach(0, len(jobs), func(i int) { outs[i] = jobs[i].run(c.tr, root) })
	r.note("replay.cpu_s", cpuSeconds()-cpu0, "s")
	r.note("replay.wall_s", time.Since(t0).Seconds(), "s")
	var gen, prof, sweep time.Duration
	var insts, profInsts, sweepInsts uint64
	var nProf, nSweep int64
	for i, o := range outs {
		j := jobs[i]
		if o.err != nil {
			r.fail("replay %s: %v", j.w.ID, o.err)
			continue
		}
		gen += o.gen
		insts += o.insts
		if j.cfg != nil {
			prof += o.sim
			profInsts += o.insts
			nProf++
		} else {
			sweep += o.sim
			sweepInsts += o.insts
			nSweep++
		}
		if sess != nil && !sameAsSession(sess, j, o) {
			r.fail("decomposition: replayed %s (budget %d) differs from the measured run", j.w.ID, j.budget)
		}
	}
	c.tr.finish(root, time.Now(), map[string]int64{"profile_runs": nProf, "passes": nSweep})
	if nProf != runs || nSweep != passes {
		r.fail("decomposition: replayed %d profiling runs and %d sweep passes, measured run made %d and %d",
			nProf, nSweep, runs, passes)
	}
	r.Metrics["trace.gen.busy_s"] = gen.Seconds()
	r.Metrics["trace.gen.insts"] = float64(insts)
	r.Metrics["machine.profile.busy_s"] = prof.Seconds()
	r.Metrics["machine.profile.runs"] = float64(nProf)
	r.Metrics["machine.profile.minsts_per_s"] = rate(profInsts, prof)
	r.Metrics["sweep.stackdist.busy_s"] = sweep.Seconds()
	r.Metrics["sweep.stackdist.passes"] = float64(nSweep)
	r.Metrics["sweep.stackdist.minsts_per_s"] = rate(sweepInsts, sweep)
}

// sameAsSession reports whether a replayed result equals the warm value
// sess holds for the same run.
func sameAsSession(sess *experiments.Session, j replayJob, o replayOut) bool {
	if j.cfg != nil {
		warm := sess.Profiles(*j.cfg, []workloads.Workload{j.w}, j.budget)[0].Vector
		return sameFloats(warm[:], o.vec[:])
	}
	return sameCurves(sess.SweepCurvesMulti(j.w, j.budget, j.geoms[0].SizesKB, waysOf(j.geoms), j.line), o.curves)
}

// rate is millions of instructions per second of d, or 0 without time.
func rate(insts uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(insts) / 1e6 / d.Seconds()
}

func waysOf(geoms []machine.SweepGeometry) []int {
	ways := make([]int, len(geoms))
	for i, g := range geoms {
		ways[i] = g.Ways
	}
	return ways
}

// sameFloats compares bit patterns, so it is exact and NaN-safe.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameCurves(a, b []machine.Curves) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloats(a[i].Inst, b[i].Inst) || !sameFloats(a[i].Data, b[i].Data) || !sameFloats(a[i].Unified, b[i].Unified) {
			return false
		}
	}
	return true
}
