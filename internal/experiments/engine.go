package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/report"
	"repro/internal/workloads"
)

// Artifact is a renderable experiment output.
type Artifact interface {
	Render(w io.Writer)
}

// RenderFunc adapts a closure to Artifact.
type RenderFunc func(io.Writer)

// Render implements Artifact.
func (f RenderFunc) Render(w io.Writer) { f(w) }

// Unit is one schedulable experiment: a paper table/figure, or a
// hidden cache-primer that warms a Session cache so the visible units
// depending on it never contend for the same profiling pass.
type Unit struct {
	Name string
	// Deps name units that must complete before this one starts.
	Deps []string
	// Hidden marks cache primers: they produce no artifact and
	// cmd/repro does not list them as selectable items.
	Hidden bool
	Run    func(*Session) (Artifact, error)
}

// UnitResult is one executed unit with its wall time.
type UnitResult struct {
	Unit     Unit
	Artifact Artifact
	Err      error
	Elapsed  time.Duration
}

// EventSink receives engine lifecycle events (unit_scheduled,
// unit_start, unit_finish). It is declared here rather than importing
// the event bus so the experiments package stays dependency-free; a
// *eventbus.Publisher satisfies it directly. Active is the cheap gate:
// the engine skips building event payloads entirely when it reports
// false, keeping the no-observer run cost at zero.
type EventSink interface {
	Active() bool
	Event(typ string, data map[string]any)
}

// Engine runs every table and figure of the paper as a
// dependency-aware concurrent batch over one shared Session. Units
// whose dependencies are satisfied execute in parallel on a bounded
// worker pool; the hidden primer units fan the heavyweight profiling
// and sweep passes out first so no two visible units repeat work.
type Engine struct {
	Session *Session
	// Parallelism bounds concurrent units (0 = GOMAXPROCS).
	Parallelism int
	// Units overrides the experiment set (nil = Units()).
	Units []Unit
	// Select restricts the run to these visible unit names (nil = all);
	// dependencies are pulled in transitively.
	Select []string
	// Events, when non-nil and active, receives unit lifecycle events:
	// unit_scheduled (once per selected unit, in definition order, when
	// the run is planned), unit_start, and unit_finish (with wall-time
	// ms, status ok/primer/error, and source provenance — computed,
	// warm, primer, or custom). Publishing never blocks the run.
	Events EventSink
	// Shard/ShardCount split the selected visible units round-robin
	// (by definition order) across ShardCount cooperating engine runs;
	// shard Shard executes only its assigned units plus their
	// transitive primers. ShardCount <= 1 disables sharding. Shards
	// sharing a disk-backed session store compute each underlying
	// artefact once between them and merge to byte-identical output.
	Shard, ShardCount int
}

// ParseShard parses a CLI shard spec "i/n" (0-based, n >= 2),
// rejecting malformed or out-of-range specs — the one parser shared by
// cmd/repro, cmd/wcrt and cmd/bdbench. Both halves must be bare
// unsigned decimal digits: signed ("-1/3", "+1/3"), spaced, empty or
// out-of-range ("2/1") specs all fail with a clear error instead of
// silently producing an empty or aliased shard.
func ParseShard(spec string) (shard, count int, err error) {
	bad := func() (int, int, error) {
		return 0, 0, fmt.Errorf("invalid shard %q (want i/n with 0 <= i < n, n >= 2)", spec)
	}
	digits := func(s string) bool {
		if s == "" {
			return false
		}
		for _, r := range s {
			if r < '0' || r > '9' {
				return false
			}
		}
		return true
	}
	is, ns, ok := strings.Cut(spec, "/")
	if !ok || !digits(is) || !digits(ns) {
		return bad()
	}
	shard, err1 := strconv.Atoi(is)
	count, err2 := strconv.Atoi(ns)
	if err1 != nil || err2 != nil || count < 2 || shard >= count {
		return bad()
	}
	return shard, count, nil
}

// Run executes the selected units concurrently and returns results in
// unit-definition order.
func (e *Engine) Run() ([]UnitResult, error) {
	return e.RunContext(context.Background())
}

// RunContext is Run bound to a context. Cancellation is plumbed all
// the way down: units not yet started are skipped (their result
// carries ctx.Err()), in-flight simulation work stops within a few
// thousand instructions (the session threads the context into every
// emitter and sweep fan-out), aborted fills are discarded — a
// cancelled run never publishes a partial artefact — and the call
// returns ctx.Err().
//
// The context is installed as the session's Ctx for the duration when
// the session has none; an engine run and other cancellable work must
// therefore not share one Session concurrently (the serving daemon
// builds a session per request).
func (e *Engine) RunContext(ctx context.Context) ([]UnitResult, error) {
	par := e.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return e.run(ctx, par)
}

func (e *Engine) units() []Unit {
	if e.Units != nil {
		return e.Units
	}
	return Units()
}

// schedule is the validated execution graph over a unit set: which
// indices run, each one's in-degree, and its dependents.
type schedule struct {
	selected   map[int]bool
	indeg      map[int]int
	dependents map[int][]int
}

// plan validates the unit graph and builds the schedule: selection
// plus transitive dependencies, with the subgraph confirmed acyclic
// via Kahn's algorithm.
func (e *Engine) plan(units []Unit) (*schedule, error) {
	byName := make(map[string]int, len(units))
	for i, u := range units {
		if _, dup := byName[u.Name]; dup {
			return nil, fmt.Errorf("experiments: duplicate unit %q", u.Name)
		}
		byName[u.Name] = i
	}
	for _, u := range units {
		for _, d := range u.Deps {
			if _, ok := byName[d]; !ok {
				return nil, fmt.Errorf("experiments: unit %q depends on unknown unit %q", u.Name, d)
			}
		}
	}
	sc := &schedule{
		selected:   make(map[int]bool, len(units)),
		indeg:      map[int]int{},
		dependents: map[int][]int{},
	}
	// addTo pulls a unit and its transitive dependencies into a set.
	var addTo func(sel map[int]bool, i int)
	addTo = func(sel map[int]bool, i int) {
		if sel[i] {
			return
		}
		sel[i] = true
		for _, d := range units[i].Deps {
			addTo(sel, byName[d])
		}
	}
	if e.Select == nil {
		for i := range units {
			sc.selected[i] = true
		}
	} else {
		for _, name := range e.Select {
			i, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("experiments: unknown unit %q", name)
			}
			addTo(sc.selected, i)
		}
	}
	if e.ShardCount > 1 || e.Shard != 0 {
		if e.ShardCount < 2 || e.Shard < 0 || e.Shard >= e.ShardCount {
			return nil, fmt.Errorf("experiments: invalid shard %d/%d", e.Shard, e.ShardCount)
		}
		// Assign the selected visible units round-robin in definition
		// order (deterministic, so cooperating shards partition the
		// visible set exactly), then rebuild the primer closure for
		// this shard's share.
		mine := make(map[int]bool, len(sc.selected))
		vi := 0
		for i := range units {
			if sc.selected[i] && !units[i].Hidden {
				if vi%e.ShardCount == e.Shard {
					addTo(mine, i)
				}
				vi++
			}
		}
		sc.selected = mine
	}
	// Build edges in unit-definition order so dependent dispatch (and
	// therefore a one-worker run's visit order) is deterministic.
	for i := range units {
		if !sc.selected[i] {
			continue
		}
		for _, d := range units[i].Deps {
			di := byName[d]
			if sc.selected[di] {
				sc.indeg[i]++
				sc.dependents[di] = append(sc.dependents[di], i)
			}
		}
	}
	// Cycle check over a copy of the in-degrees.
	indeg := make(map[int]int, len(sc.indeg))
	for i, d := range sc.indeg {
		indeg[i] = d
	}
	queue := make([]int, 0, len(sc.selected))
	for i := range units {
		if sc.selected[i] && indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		seen++
		for _, j := range sc.dependents[i] {
			if indeg[j]--; indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if seen != len(sc.selected) {
		return nil, fmt.Errorf("experiments: dependency cycle among units")
	}
	return sc, nil
}

func (e *Engine) run(ctx context.Context, par int) ([]UnitResult, error) {
	units := e.units()
	sc, err := e.plan(units)
	if err != nil {
		return nil, err
	}
	// Install the context as the session's for the duration, so unit
	// bodies (which only see the Session) observe cancellation.
	if e.Session != nil && e.Session.Ctx == nil && ctx != context.Background() {
		e.Session.Ctx = ctx
		defer func() { e.Session.Ctx = nil }()
	}
	e.prefetch(units, sc)
	selected, indeg, dependents := sc.selected, sc.indeg, sc.dependents

	if e.eventsActive() {
		for i := range units {
			if selected[i] {
				e.Events.Event("unit_scheduled", map[string]any{
					"unit": units[i].Name, "primer": units[i].Hidden,
				})
			}
		}
	}

	n := len(selected)
	ready := make(chan int, n)
	completions := make(chan int, n)
	// Seed the ready queue in definition order so a one-worker run
	// visits units deterministically.
	for i := range units {
		if selected[i] && indeg[i] == 0 {
			ready <- i
		}
	}

	res := make([]UnitResult, len(units))
	for w := 0; w < par; w++ {
		go func() {
			for i := range ready {
				if e.eventsActive() {
					e.Events.Event("unit_start", map[string]any{"unit": units[i].Name})
				}
				start := time.Now()
				art, src, err := e.runUnit(ctx, units[i])
				elapsed := time.Since(start)
				res[i] = UnitResult{Unit: units[i], Artifact: art, Err: err, Elapsed: elapsed}
				if e.eventsActive() {
					status := "ok"
					if err != nil {
						status = "error"
					} else if units[i].Hidden {
						status = "primer"
					}
					data := map[string]any{
						"unit": units[i].Name, "ms": float64(elapsed.Microseconds()) / 1000,
						"status": status, "source": src,
					}
					if err != nil {
						data["error"] = err.Error()
					}
					e.Events.Event("unit_finish", data)
				}
				completions <- i
			}
		}()
	}
	for done := 0; done < n; done++ {
		i := <-completions
		for _, d := range dependents[i] {
			if indeg[d]--; indeg[d] == 0 {
				ready <- d
			}
		}
	}
	close(ready)

	out := make([]UnitResult, 0, n)
	for i := range units {
		if selected[i] {
			out = append(out, res[i])
		}
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// prefetch stages every persisted artefact the planned run can reuse —
// the primer closures (profile records, sweep curves) plus the
// selected units' rendered bytes — in one bulk backend download, so a
// cold engine against a remote store issues one POST /closure instead
// of a GET per key. Free when the store has no bulk-capable tier;
// custom unit sets have no computable keys and skip the render tier.
func (e *Engine) prefetch(units []Unit, sc *schedule) {
	s := e.Session
	if s == nil {
		return
	}
	st := s.ArtifactStore()
	if !st.BulkCapable() {
		return
	}
	var keys []artifact.Key
	for i, u := range units {
		if !sc.selected[i] {
			continue
		}
		if u.Hidden {
			keys = append(keys, s.primerKeys(u.Name)...)
		} else if e.Units == nil {
			keys = append(keys, UnitRenderKey(s.Opt, u.Name))
		}
	}
	st.Prefetch(keys)
}

// renderKey identifies one unit's rendered output in the store: the
// unit name, everything that determines its content (the session
// options — all artefacts downstream are deterministic functions of
// them) and the rendering format. artifact.Version covers code
// changes that alter output.
type renderKey struct {
	Unit   string
	Opt    Options
	Format string
}

// UnitRenderKey returns the store identity of a visible paper unit's
// rendered bytes at the given options — the key the engine memoizes
// runUnit under, exported so the serving daemon's warm fast path can
// answer a request straight from the store without planning an engine
// run.
func UnitRenderKey(opt Options, unit string) artifact.Key {
	return artifact.KeyOf("render", renderKey{Unit: unit, Opt: opt, Format: "text"})
}

// eventsActive reports whether event payloads are worth building: a
// sink is attached and it has someone listening.
func (e *Engine) eventsActive() bool {
	return e.Events != nil && e.Events.Active()
}

// runUnit executes one unit. Visible units of the default experiment
// set are render-memoized: the unit's rendered bytes are themselves a
// store artefact, so a warm-started run (same options, persisted
// store) skips not just the simulation behind a table or figure but
// the table walk and formatting too — it only copies bytes. Custom
// unit sets (e.Units != nil) run unmemoized: their names don't
// identify content the way the fixed paper set's do.
//
// src is the unit's render provenance for the event stream: "primer"
// (hidden warm-up), "custom" (unmemoized custom set), "computed" (the
// render pass ran here) or "warm" (bytes served from the store).
//
// Cancellation surfaces here: a unit whose context is already done is
// skipped outright, and a session-cancellation unwind out of a running
// unit body is converted back into its error result.
func (e *Engine) runUnit(ctx context.Context, u Unit) (art Artifact, src string, err error) {
	if cerr := ctx.Err(); cerr != nil {
		return nil, "", cerr
	}
	defer RecoverCanceled(&err)
	s := e.Session
	if u.Hidden || e.Units != nil {
		src = "custom"
		if u.Hidden {
			src = "primer"
		}
		art, err = u.Run(s)
		return art, src, err
	}
	key := UnitRenderKey(s.Opt, u.Name)
	rendered := false
	b, err := artifact.Get(s.ArtifactStore(), key, func() ([]byte, error) {
		art, err := u.Run(s)
		if err != nil || art == nil {
			return nil, err
		}
		var buf bytes.Buffer
		art.Render(&buf)
		s.renders.Add(1)
		rendered = true
		return buf.Bytes(), nil
	})
	src = "warm"
	if rendered {
		src = "computed"
	}
	if err != nil || b == nil {
		return nil, src, err
	}
	return RenderFunc(func(w io.Writer) { w.Write(b) }), src, nil
}

// TimingTable summarizes an engine run: one row per unit with its wall
// time, hidden primers included (they carry the heavyweight profiling).
func TimingTable(results []UnitResult) report.Table {
	t := report.Table{Title: "engine timing", Headers: []string{"unit", "ms", "status"}}
	var total time.Duration
	for _, r := range results {
		status := "ok"
		if r.Err != nil {
			status = "error: " + r.Err.Error()
		} else if r.Unit.Hidden {
			status = "primer"
		}
		t.Add(r.Unit.Name, float64(r.Elapsed.Microseconds())/1000, status)
		total += r.Elapsed
	}
	t.Add("TOTAL (cpu, not wall)", float64(total.Microseconds())/1000, "")
	return t
}

// Units returns the full experiment set: hidden primers that warm the
// session's profile and sweep caches, then every table and figure of
// the paper wired to its primers. The artifacts render exactly what
// cmd/repro prints per item.
func Units() []Unit {
	warm := func(f func(*Session)) func(*Session) (Artifact, error) {
		return func(s *Session) (Artifact, error) { f(s); return nil, nil }
	}
	return []Unit{
		{Name: "warm-reps", Hidden: true, Run: warm(func(s *Session) { s.Reps() })},
		{Name: "warm-mpi", Hidden: true, Run: warm(func(s *Session) { s.MPI() })},
		{Name: "warm-atom", Hidden: true, Run: warm(func(s *Session) { s.AtomReps() })},
		{Name: "warm-suites", Hidden: true, Run: warm(func(s *Session) { s.Suites() })},
		{Name: "warm-sweep-hadoop", Hidden: true, Run: warm(func(s *Session) { sweepGroup(s, hadoopGroup(), curveInst) })},
		{Name: "warm-sweep-parsec", Hidden: true, Run: warm(func(s *Session) { sweepGroup(s, parsecGroup(), curveInst) })},
		{Name: "warm-sweep-mpi", Hidden: true, Run: warm(func(s *Session) { sweepGroup(s, workloads.MPI6(), curveInst) })},
		{Name: "warm-roster", Hidden: true, Run: warm(func(s *Session) { s.Roster() })},

		{Name: "table1", Run: func(s *Session) (Artifact, error) {
			rows := Table1()
			return RenderFunc(func(w io.Writer) { RenderTable1(w, rows) }), nil
		}},
		{Name: "table2", Deps: []string{"warm-reps"}, Run: func(s *Session) (Artifact, error) {
			rows := Table2(s)
			return RenderFunc(func(w io.Writer) { RenderTable2(w, rows) }), nil
		}},
		{Name: "table3", Run: func(s *Session) (Artifact, error) {
			t := Table3()
			return RenderFunc(func(w io.Writer) { t.Render(w) }), nil
		}},
		{Name: "table4", Deps: []string{"warm-reps", "warm-atom"}, Run: func(s *Session) (Artifact, error) {
			r := Table4(s)
			return RenderFunc(func(w io.Writer) {
				r.Mechanisms.Render(w)
				r.PerWorkload.Render(w)
				sum := report.Table{Headers: []string{"average misprediction", "measured", "paper"}}
				sum.Add("Atom D510", r.AtomAvg*100, r.PaperAtomAvg*100)
				sum.Add("Xeon E5645", r.XeonAvg*100, r.PaperXeonAvg*100)
				sum.Render(w)
			}), nil
		}},
		{Name: "fig1", Deps: []string{"warm-reps", "warm-mpi", "warm-suites"}, Run: func(s *Session) (Artifact, error) {
			return Fig1(s), nil
		}},
		{Name: "fig2", Deps: []string{"warm-reps"}, Run: func(s *Session) (Artifact, error) {
			return Fig2(s), nil
		}},
		{Name: "fig3", Deps: []string{"warm-reps", "warm-mpi", "warm-suites"}, Run: func(s *Session) (Artifact, error) {
			return Fig3(s), nil
		}},
		{Name: "fig4", Deps: []string{"warm-reps", "warm-mpi", "warm-suites"}, Run: func(s *Session) (Artifact, error) {
			return Fig4(s), nil
		}},
		{Name: "fig5", Deps: []string{"warm-reps", "warm-mpi", "warm-suites"}, Run: func(s *Session) (Artifact, error) {
			return Fig5(s), nil
		}},
		{Name: "fig6", Deps: []string{"warm-sweep-hadoop", "warm-sweep-parsec"}, Run: sweepUnit(Fig6)},
		{Name: "fig7", Deps: []string{"warm-sweep-hadoop", "warm-sweep-parsec"}, Run: sweepUnit(Fig7)},
		{Name: "fig8", Deps: []string{"warm-sweep-hadoop", "warm-sweep-parsec"}, Run: sweepUnit(Fig8)},
		{Name: "fig9", Deps: []string{"warm-sweep-hadoop", "warm-sweep-parsec", "warm-sweep-mpi"}, Run: sweepUnit(Fig9)},
		{Name: "reduction", Deps: []string{"warm-roster"}, Run: func(s *Session) (Artifact, error) {
			r, err := Reduction(s)
			if err != nil {
				return nil, err
			}
			return RenderFunc(func(w io.Writer) {
				r.Render(w)
				fmt.Fprintf(w, "PCA kept %d dimensions explaining %.1f%% of variance\n",
					r.Reduction.Dimensions, r.Reduction.Explained*100)
			}), nil
		}},
		{Name: "stack", Deps: []string{"warm-reps", "warm-mpi"}, Run: func(s *Session) (Artifact, error) {
			r := StackImpact(s)
			return RenderFunc(func(w io.Writer) {
				r.Table.Render(w)
				fmt.Fprintf(w, "avg IPC: MPI %.2f vs Hadoop/Spark %.2f (paper: 1.4 vs 1.16)\n",
					r.MPIAvgIPC, r.OtherAvgIPC)
				fmt.Fprintf(w, "avg L1I MPKI: MPI %.1f vs Hadoop/Spark %.1f (paper: 3.4 vs 12.6)\n",
					r.MPIAvgL1I, r.OtherAvgL1I)
			}), nil
		}},
	}
}

// sweepUnit wraps a Fig6-9 runner, appending the knee reading cmd/repro
// prints under each sweep figure.
func sweepUnit(fig func(*Session) SweepResult) func(*Session) (Artifact, error) {
	return func(s *Session) (Artifact, error) {
		r := fig(s)
		return RenderFunc(func(w io.Writer) {
			r.Render(w)
			fmt.Fprintf(w, "knee(Hadoop, 0.2) = %d KB; knee(PARSEC, 0.2) = %d KB\n",
				r.Knee("Hadoop-workloads", 0.2), r.Knee("PARSEC-workloads", 0.2))
		}), nil
	}
}

// VisibleUnitNames lists the selectable (non-primer) units in
// definition order — the item names cmd/repro accepts.
func VisibleUnitNames() []string {
	var names []string
	for _, u := range Units() {
		if !u.Hidden {
			names = append(names, u.Name)
		}
	}
	return names
}
