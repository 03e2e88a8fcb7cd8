package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/artifact"
	"repro/internal/sim/machine"
	"repro/internal/workloads"
)

// Scenario is a declarative ad-hoc experiment request: a cache-size
// sweep figure over any workload subset, at any instruction budget, on
// any sweep-cache geometry — the paper's Fig. 6-9 methodology opened
// to the questions the paper didn't print ("the I-cache knee of just
// the Spark workloads at twice the budget on 4-way caches"). It is the
// request body of the serving daemon's /scenarios endpoint and of
// repro -scenario.
//
// A scenario is resolved against the fixed workload catalogue by
// Canonical, which validates every field and normalizes the spec so
// that every equivalent request produces the same canonical form —
// and therefore the same artifact.KeyOf identity. Warm repeats of a
// scenario are pure store I/O, and a scenario that leaves the budget,
// sizes and geometry at their defaults shares its per-workload sweep
// artefacts with the paper figures.
type Scenario struct {
	// Name optionally labels the request; it appears in the rendered
	// title (and therefore in the identity — differently named
	// renderings are different artefacts).
	Name string `json:"name,omitempty"`

	// Groups selects named workload groups, each rendered as its own
	// curve: "hadoop" (the §5.4 Hadoop-stack group), "parsec", "mpi"
	// (the six MPI twins), "reps17" (the Table 2 representatives).
	Groups []string `json:"groups,omitempty"`

	// Workloads selects individual 77-roster entries by ID (plus the
	// MPI twins); the selection is rendered as one additional curve.
	// At least one group or workload is required.
	Workloads []string `json:"workloads,omitempty"`

	// Budget is the per-workload instruction budget (0 = the serving
	// session's sweep budget).
	Budget int64 `json:"budget,omitempty"`

	// SizesKB lists the swept L1 capacities (nil = the paper's ten,
	// 16 KB to 8192 KB).
	SizesKB []int `json:"sizes_kb,omitempty"`

	// Ways and LineBytes override the sweep-cache geometry
	// (0 = the paper's 8 ways / 64-byte lines).
	Ways      int `json:"ways,omitempty"`
	LineBytes int `json:"line_bytes,omitempty"`

	// WaysSet sweeps several associativities in one scenario — one
	// rendered curve set per entry, per view. The stack-distance
	// engine prices the whole set at a single trace pass per workload,
	// so extra associativities are nearly free. Mutually exclusive
	// with Ways; a singleton canonicalizes into Ways (and the default
	// folds to zero), so equivalent requests alias the same artefacts.
	WaysSet []int `json:"ways_set,omitempty"`

	// Views selects the rendered miss-ratio views, any of "inst",
	// "data", "unified" (nil = inst only).
	Views []string `json:"views,omitempty"`
}

// scenarioGroups maps group names to their workload lists, in the
// same resolution the paper figures use.
func scenarioGroups() map[string]func() []workloads.Workload {
	return map[string]func() []workloads.Workload{
		"hadoop": hadoopGroup,
		"parsec": parsecGroup,
		"mpi":    workloads.MPI6,
		"reps17": workloads.Representative17,
	}
}

// ScenarioGroupNames lists the accepted group names.
func ScenarioGroupNames() []string {
	var names []string
	for name := range scenarioGroups() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// scenarioCatalogue indexes the selectable workloads by ID: the full
// 77-roster plus any MPI twins whose IDs the roster doesn't already
// claim. IDs resolve deterministically — the roster entry wins a
// collision — so a scenario's curves are a pure function of its
// canonical form.
func scenarioCatalogue() map[string]workloads.Workload {
	idx := make(map[string]workloads.Workload, 84)
	for _, w := range workloads.Roster77() {
		idx[w.ID] = w
	}
	for _, w := range workloads.MPI6() {
		if _, taken := idx[w.ID]; !taken {
			idx[w.ID] = w
		}
	}
	return idx
}

// scenarioIDs is the set of IDs scenarioCatalogue accepts, built once:
// Canonical validates against it without constructing a Workload. run
// still builds its own catalogue, so concurrent cold computes never
// share a kernel instance.
var scenarioIDs = sync.OnceValue(func() map[string]struct{} {
	ids := make(map[string]struct{}, 84)
	for id := range scenarioCatalogue() {
		ids[id] = struct{}{}
	}
	return ids
})

// Canonical validates the scenario against opt (the serving session's
// budgets supply the defaults) and returns its canonical form: groups
// and workloads sorted and deduplicated, the budget resolved to an
// explicit value, sizes resolved to an explicit ascending list, views
// deduplicated into canonical order, and default geometry folded to
// zero. Two requests meaning the same experiment canonicalize to the
// same value — and so to the same artifact key.
func (sc Scenario) Canonical(opt Options) (Scenario, error) {
	out := Scenario{Name: sc.Name}

	groups := scenarioGroups()
	seenG := map[string]bool{}
	for _, g := range sc.Groups {
		g = strings.ToLower(strings.TrimSpace(g))
		if _, ok := groups[g]; !ok {
			return Scenario{}, fmt.Errorf("experiments: unknown scenario group %q (known: %s)",
				g, strings.Join(ScenarioGroupNames(), " "))
		}
		if !seenG[g] {
			seenG[g] = true
			out.Groups = append(out.Groups, g)
		}
	}
	sort.Strings(out.Groups)

	ids := scenarioIDs()
	seenW := map[string]bool{}
	for _, id := range sc.Workloads {
		id = strings.TrimSpace(id)
		if _, ok := ids[id]; !ok {
			return Scenario{}, fmt.Errorf("experiments: unknown scenario workload %q", id)
		}
		if !seenW[id] {
			seenW[id] = true
			out.Workloads = append(out.Workloads, id)
		}
	}
	sort.Strings(out.Workloads)

	if len(out.Groups) == 0 && len(out.Workloads) == 0 {
		return Scenario{}, fmt.Errorf("experiments: scenario selects no groups and no workloads")
	}

	out.Budget = sc.Budget
	if out.Budget <= 0 {
		out.Budget = opt.SweepBudget
	}
	const maxScenarioBudget = 1 << 33 // ~8.6G insts: far past any real figure, bounds one request's CPU
	if out.Budget > maxScenarioBudget {
		return Scenario{}, fmt.Errorf("experiments: scenario budget %d exceeds %d", out.Budget, int64(maxScenarioBudget))
	}

	out.SizesKB = append([]int(nil), sc.SizesKB...)
	if len(out.SizesKB) == 0 {
		out.SizesKB = append(out.SizesKB, machine.DefaultSweepSizesKB...)
	}
	if len(out.SizesKB) > 64 {
		return Scenario{}, fmt.Errorf("experiments: scenario sweeps %d sizes, limit 64", len(out.SizesKB))
	}
	sort.Ints(out.SizesKB)
	for i, kb := range out.SizesKB {
		if kb <= 0 || (i > 0 && kb == out.SizesKB[i-1]) {
			return Scenario{}, fmt.Errorf("experiments: scenario sizes must be positive and distinct, got %v", sc.SizesKB)
		}
	}

	out.Ways, out.LineBytes = sc.Ways, sc.LineBytes
	if len(sc.WaysSet) > 0 {
		if sc.Ways != 0 {
			return Scenario{}, fmt.Errorf("experiments: scenario sets both ways and ways_set")
		}
		if len(sc.WaysSet) > 8 {
			return Scenario{}, fmt.Errorf("experiments: scenario sweeps %d associativities, limit 8", len(sc.WaysSet))
		}
		ws := append([]int(nil), sc.WaysSet...)
		sort.Ints(ws)
		var set []int
		for _, w := range ws {
			if w <= 0 {
				return Scenario{}, fmt.Errorf("experiments: scenario ways must be positive, got %d", w)
			}
			if len(set) == 0 || w != set[len(set)-1] {
				set = append(set, w)
			}
		}
		if len(set) == 1 {
			out.Ways = set[0] // singleton: alias the single-geometry form
		} else {
			out.WaysSet = set
		}
	}
	if out.Ways == machine.DefaultSweepWays {
		out.Ways = 0 // fold the default so the artefacts alias the paper's
	}
	if out.LineBytes == machine.DefaultSweepLineBytes {
		out.LineBytes = 0
	}
	// Check the geometry arithmetically, before any session work: the
	// whole (size, ways) grid must divide into sets, and its
	// stack-distance state must fit machine.MaxSweepWords.
	var geoms []machine.SweepGeometry
	for _, w := range out.waysList() {
		geoms = append(geoms, machine.SweepGeometry{SizesKB: out.SizesKB, Ways: w})
	}
	if err := machine.CheckSweep(out.LineBytes, geoms...); err != nil {
		return Scenario{}, err
	}

	if len(sc.Views) == 0 {
		out.Views = []string{"inst"}
	} else {
		want := map[string]bool{}
		for _, v := range sc.Views {
			v = strings.ToLower(strings.TrimSpace(v))
			if viewIndex(v) < 0 {
				return Scenario{}, fmt.Errorf("experiments: unknown scenario view %q (want inst, data or unified)", v)
			}
			want[v] = true
		}
		for _, sv := range sweepViews {
			if want[sv.name] {
				out.Views = append(out.Views, sv.name)
			}
		}
	}
	return out, nil
}

// ScenarioKey returns the artifact identity a scenario's rendered
// bytes live under. Spec must already be canonical (Canonical is
// idempotent; callers canonicalize once and key on the result).
func ScenarioKey(canonical Scenario) artifact.Key {
	return artifact.KeyOf("scenario-render", canonical)
}

// waysList returns the scenario's effective associativities: the
// canonical multi-set, or the single Ways (0 meaning the default).
func (sc Scenario) waysList() []int {
	if len(sc.WaysSet) > 0 {
		return sc.WaysSet
	}
	return []int{sc.Ways}
}

// title builds the rendered heading for one view (and, for
// multi-associativity scenarios, one geometry).
func (sc Scenario) title(view string, ways int) string {
	name := sc.Name
	if name == "" {
		name = "ad-hoc"
	}
	if len(sc.WaysSet) > 0 {
		return fmt.Sprintf("Scenario %s: %s cache miss ratio vs cache size (%d-way, budget %d)", name, view, ways, sc.Budget)
	}
	return fmt.Sprintf("Scenario %s: %s cache miss ratio vs cache size (budget %d)", name, view, sc.Budget)
}

// run computes the scenario's sweep figures over the session. One
// SweepResult per view, each with one curve per selected group plus,
// when individual workloads are named, a "selection" curve.
func (sc Scenario) run(s *Session) ([]SweepResult, error) {
	groups := scenarioGroups()
	catalogue := scenarioCatalogue()
	type curveSet struct {
		name string
		list []workloads.Workload
	}
	var sets []curveSet
	for _, g := range sc.Groups {
		sets = append(sets, curveSet{name: g + "-workloads", list: groups[g]()})
	}
	if len(sc.Workloads) > 0 {
		list := make([]workloads.Workload, 0, len(sc.Workloads))
		for _, id := range sc.Workloads {
			list = append(list, catalogue[id])
		}
		sets = append(sets, curveSet{name: "selection", list: list})
	}

	// Every view and geometry of every set fills in one call per set,
	// so the scenario costs one trace pass per cold workload however
	// many views and associativities it renders.
	var views machine.Views
	for _, vname := range sc.Views {
		views |= sweepViews[viewIndex(vname)].bit
	}
	waysAll := sc.waysList()
	perSet := make(map[string][]machine.Curves, len(sets))
	for _, cs := range sets {
		perSet[cs.name] = sweepGroupMulti(s, cs.list, sc.Budget, sc.SizesKB, waysAll, sc.LineBytes, views)
	}
	var out []SweepResult
	for _, vname := range sc.Views {
		sv := sweepViews[viewIndex(vname)]
		for gi, ways := range waysAll {
			r := SweepResult{
				Title:   sc.title(vname, ways),
				SizesKB: sc.SizesKB,
				Curves:  make(map[string][]float64, len(sets)),
			}
			for _, cs := range sets {
				r.Order = append(r.Order, cs.name)
				r.Curves[cs.name] = *sv.curve(&perSet[cs.name][gi])
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// viewIndex returns the index of the named view in sweepViews, or -1.
func viewIndex(name string) int {
	for i, sv := range sweepViews {
		if sv.name == name {
			return i
		}
	}
	return -1
}

// RunScenario resolves, computes and renders a scenario over the
// session, returning the rendered bytes. The bytes are a store
// artefact keyed by the canonical spec, so a warm request — this
// process or any other sharing the store — performs zero simulation
// and zero rendering; cold requests fill per-workload sweep artefacts
// shared with every other scenario (and, at default geometry, with the
// paper figures). Cancellation via s.Ctx aborts the computation and
// returns ctx.Err() without publishing anything.
func RunScenario(s *Session, spec Scenario) (out []byte, err error) {
	canon, err := spec.Canonical(s.Opt)
	if err != nil {
		return nil, err
	}
	defer RecoverCanceled(&err)
	key := ScenarioKey(canon)
	return mustFillBytes(artifact.Get(s.ArtifactStore(), key, func() ([]byte, error) {
		results, err := canon.run(s)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		for _, r := range results {
			r.Render(&buf)
			for _, name := range r.Order {
				fmt.Fprintf(&buf, "knee(%s, 0.2) = %d KB\n", name, r.Knee(name, 0.2))
			}
		}
		s.renders.Add(1)
		return buf.Bytes(), nil
	}))
}

// mustFillBytes passes a scenario fill through, letting cancellation
// unwind via mustFill's panic (recovered by RunScenario) while real
// errors return normally.
func mustFillBytes(b []byte, err error) ([]byte, error) {
	if err != nil {
		var c canceledErr
		if errors.As(err, &c) {
			panic(c)
		}
		return nil, err
	}
	return b, nil
}

// RenderScenario writes a scenario's rendered bytes to w (cmd/repro's
// -scenario path; the daemon serves the bytes directly).
func RenderScenario(s *Session, spec Scenario, w io.Writer) error {
	b, err := RunScenario(s, spec)
	if err != nil {
		return err
	}
	_, werr := w.Write(b)
	return werr
}
