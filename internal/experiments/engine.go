package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
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

// Unit is one experiment: a paper table/figure, or a hidden
// cache-primer that warms a Session cache so the visible units
// depending on it never contend for the same profiling pass.
type Unit struct {
	Name string
	// Deps name the primers a visible unit reads; primers have none.
	Deps []string
	// Hidden marks cache primers: they produce no artifact and
	// cmd/repro does not list them as selectable items.
	Hidden bool
	Run    func(*Session) (Artifact, error)
	// keys lists the persisted store keys a primer fills at the given
	// options, derived from the same declaration as its Run.
	keys func(Options) []artifact.Key
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

// Engine runs every table and figure of the paper over one shared
// Session in two fixed phases: first the hidden primers the selected
// units depend on, which fan the heavyweight profiling and sweep
// passes out so no two visible units repeat work, then the selected
// visible units, which read the primed caches. Each phase runs on at
// most Session.Parallelism workers (0 = GOMAXPROCS) that take units in
// definition order, so a one-worker run is deterministic.
type Engine struct {
	Session *Session
	// Select restricts the run to these visible unit names (nil = all);
	// the primers they depend on run too.
	Select []string
	// Events, when non-nil and active, receives unit lifecycle events:
	// unit_scheduled (once per planned unit, in definition order, when
	// the run is planned), unit_start, and unit_finish (with wall-time
	// ms, status ok/primer/error, and source provenance — computed,
	// warm or primer). Publishing never blocks the run.
	Events EventSink
	// Shard/ShardCount split the selected visible units round-robin
	// (by definition order) across ShardCount cooperating engine runs;
	// shard Shard executes only its assigned units plus their primers.
	// ShardCount <= 1 disables sharding. Shards sharing a disk-backed
	// session store compute each underlying artefact once between them
	// and merge to byte-identical output.
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

// Run executes the planned units and returns results in
// unit-definition order, primers included.
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
	units := Units()
	run, err := e.plan(units)
	if err != nil {
		return nil, err
	}
	// Install the context as the session's for the duration, so unit
	// bodies (which only see the Session) observe cancellation.
	if e.Session.Ctx == nil && ctx != context.Background() {
		e.Session.Ctx = ctx
		defer func() { e.Session.Ctx = nil }()
	}
	e.prefetch(units, run)
	if e.eventsActive() {
		for i, u := range units {
			if run[i] {
				e.Events.Event("unit_scheduled", map[string]any{"unit": u.Name, "primer": u.Hidden})
			}
		}
	}

	par := e.Session.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	res := make([]UnitResult, len(units))
	for _, primers := range []bool{true, false} {
		// Queue the phase's units in definition order; par workers
		// drain the queue, so one worker visits them in that order.
		next := make(chan int, len(units))
		for i, u := range units {
			if run[i] && u.Hidden == primers {
				next <- i
			}
		}
		close(next)
		var wg sync.WaitGroup
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					res[i] = e.runOne(ctx, units[i])
				}
			}()
		}
		wg.Wait()
	}

	out := make([]UnitResult, 0, len(units))
	for i := range units {
		if run[i] {
			out = append(out, res[i])
		}
	}
	return out, ctx.Err()
}

// plan marks the units a run executes: the selected visible units
// (every one when Select is nil), this shard's round-robin share of
// them in definition order, and the primers they depend on.
func (e *Engine) plan(units []Unit) ([]bool, error) {
	index := make(map[string]int, len(units))
	for i, u := range units {
		index[u.Name] = i
	}
	selected := make([]bool, len(units))
	for _, name := range e.Select {
		i, ok := index[name]
		if !ok || units[i].Hidden {
			return nil, fmt.Errorf("experiments: unknown unit %q", name)
		}
		selected[i] = true
	}
	if (e.ShardCount > 1 || e.Shard != 0) && (e.ShardCount < 2 || e.Shard < 0 || e.Shard >= e.ShardCount) {
		return nil, fmt.Errorf("experiments: invalid shard %d/%d", e.Shard, e.ShardCount)
	}
	run := make([]bool, len(units))
	vi := 0
	for i, u := range units {
		if u.Hidden || (e.Select != nil && !selected[i]) {
			continue
		}
		if vi%max(e.ShardCount, 1) == e.Shard {
			run[i] = true
			for _, d := range u.Deps {
				run[index[d]] = true
			}
		}
		vi++
	}
	return run, nil
}

// runOne executes one unit, timing it and publishing its start and
// finish events.
func (e *Engine) runOne(ctx context.Context, u Unit) UnitResult {
	if e.eventsActive() {
		e.Events.Event("unit_start", map[string]any{"unit": u.Name})
	}
	start := time.Now()
	art, src, err := e.runUnit(ctx, u)
	elapsed := time.Since(start)
	if e.eventsActive() {
		status := "ok"
		if err != nil {
			status = "error"
		} else if u.Hidden {
			status = "primer"
		}
		data := map[string]any{
			"unit": u.Name, "ms": float64(elapsed.Microseconds()) / 1000,
			"status": status, "source": src,
		}
		if err != nil {
			data["error"] = err.Error()
		}
		e.Events.Event("unit_finish", data)
	}
	return UnitResult{Unit: u, Artifact: art, Err: err, Elapsed: elapsed}
}

// prefetch stages every persisted artefact the planned run can reuse —
// the primers' fills (profile records, sweep curves) plus the planned
// units' rendered bytes — in one bulk backend download, so a cold
// engine against a remote store issues one POST /closure instead of a
// GET per key. Free when the store has no bulk-capable tier.
func (e *Engine) prefetch(units []Unit, run []bool) {
	s := e.Session
	st := s.ArtifactStore()
	if !st.BulkCapable() {
		return
	}
	var keys []artifact.Key
	for i, u := range units {
		switch {
		case !run[i]:
		case u.Hidden:
			keys = append(keys, u.keys(s.Opt)...)
		default:
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

// runUnit executes one unit. Visible units are render-memoized: the
// unit's rendered bytes are themselves a store artefact, so a
// warm-started run (same options, persisted store) skips not just the
// simulation behind a table or figure but the table walk and
// formatting too — it only copies bytes.
//
// src is the unit's render provenance for the event stream: "primer"
// (hidden warm-up), "computed" (the render pass ran here) or "warm"
// (bytes served from the store).
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
	if u.Hidden {
		art, err = u.Run(s)
		return art, "primer", err
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
	// Each primer is declared once, by what it fills: a profiled set,
	// or a workload group's Fig. 6-9 sweep curves.
	profiles := func(name string, p profiledSet) Unit {
		return Unit{Name: name, Hidden: true, keys: p.keys, Run: func(s *Session) (Artifact, error) {
			s.profileSet(p)
			return nil, nil
		}}
	}
	sweeps := func(name string, group func() []workloads.Workload) Unit {
		keys := func(opt Options) []artifact.Key { return sweepGroupKeys(group(), opt) }
		return Unit{Name: name, Hidden: true, keys: keys, Run: func(s *Session) (Artifact, error) {
			sweepGroup(s, group())
			return nil, nil
		}}
	}
	return []Unit{
		profiles("warm-reps", repsSet),
		profiles("warm-mpi", mpiSet),
		profiles("warm-atom", atomSet),
		profiles("warm-suites", suitesSet),
		sweeps("warm-sweep-hadoop", hadoopGroup),
		sweeps("warm-sweep-parsec", parsecGroup),
		sweeps("warm-sweep-mpi", workloads.MPI6),
		profiles("warm-roster", rosterSet),

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
