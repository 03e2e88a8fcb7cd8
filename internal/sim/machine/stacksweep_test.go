package machine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim/trace"
	"repro/internal/workloads"
)

// TestStackSweepMatchesReplayGeometries is the engine differential:
// for every associativity the scenarios sweep, non-default line sizes
// and non-power-of-two ways and set counts included, the
// stack-distance engine must produce bit-identical curves to the
// concrete-cache replay oracle over the same workload trace.
func TestStackSweepMatchesReplayGeometries(t *testing.T) {
	w := workloads.Representative17()[4] // S-WordCount
	const budget = 60_000
	cases := []struct {
		sizes      []int
		ways, line int
	}{
		{[]int{16, 64, 256, 1024}, 1, 0},
		{[]int{16, 64, 256, 1024}, 2, 0},
		{[]int{16, 64, 256, 1024}, 4, 0},
		{[]int{16, 64, 256, 1024}, 8, 0},
		{[]int{16, 64, 256, 1024}, 16, 0},
		{[]int{16, 32, 128}, 2, 32},
		{[]int{16, 32, 128}, 8, 128},
		{[]int{64, 512}, 4, 256},
		{[]int{24, 48, 96}, 1, 0}, // 384, 768, 1536 sets
		{[]int{24, 48, 96}, 3, 0},
		{[]int{24, 48, 96}, 6, 0},
		{[]int{24, 48, 96}, 12, 0},
	}
	for _, c := range cases {
		ref, err := NewSweepSpec(c.sizes, c.ways, c.line)
		if err != nil {
			t.Fatal(err)
		}
		workloads.Run(w, ref, budget)
		want := ref.Curves()

		ss, err := NewStackSweep(c.line, SweepGeometry{SizesKB: c.sizes, Ways: c.ways})
		if err != nil {
			t.Fatal(err)
		}
		ss.Parallelism = 1
		workloads.Run(w, ss, budget)
		if got := ss.Curves(0); !reflect.DeepEqual(got, want) {
			t.Errorf("ways=%d line=%d: stackdist curves diverge from replay\n got %+v\nwant %+v",
				c.ways, c.line, got, want)
		}
	}
}

// TestStackSweepMultiGeometryOnePass runs four geometries through one
// StackSweep pass and requires each to match its own dedicated replay
// sweep — the whole point of the engine: N geometries, one trace pass.
func TestStackSweepMultiGeometryOnePass(t *testing.T) {
	w := workloads.Representative17()[14] // H-WordCount
	const budget = 60_000
	sizes := DefaultSweepSizesKB[:6]
	geoms := []SweepGeometry{
		{SizesKB: sizes, Ways: 1},
		{SizesKB: sizes, Ways: 2},
		{SizesKB: sizes, Ways: 8},
		{SizesKB: []int{16, 64, 512}, Ways: 16},
	}
	ss, err := NewStackSweep(0, geoms...)
	if err != nil {
		t.Fatal(err)
	}
	ss.Parallelism = 2
	workloads.Run(w, ss, budget)
	for g, geom := range geoms {
		ref, err := NewSweepSpec(geom.SizesKB, geom.Ways, 0)
		if err != nil {
			t.Fatal(err)
		}
		workloads.Run(w, ref, budget)
		if got := ss.Curves(g); !reflect.DeepEqual(got, ref.Curves()) {
			t.Errorf("geometry %d (ways=%d): shared-pass curves diverge from dedicated replay", g, geom.Ways)
		}
	}
}

// TestStackSweepViewSubsets pins view selection: every subset of the
// three views, at line sizes 32, 64 and 128 and ways up to 32, builds
// only the selected families and decodes only their streams, and each
// selected view is bit-identical to the same view of an all-view pass.
func TestStackSweepViewSubsets(t *testing.T) {
	w := workloads.Representative17()[4] // S-WordCount
	const budget = 60_000
	sizes := []int{16, 64, 256, 1024}
	geoms := []SweepGeometry{{SizesKB: sizes, Ways: 1}, {SizesKB: sizes, Ways: 8}, {SizesKB: sizes, Ways: 32}}
	for _, line := range []int{32, 64, 128} {
		all, err := NewStackSweep(line, geoms...)
		if err != nil {
			t.Fatal(err)
		}
		workloads.Run(w, all, budget)
		for views := Views(1); views <= ViewUnified|ViewInst|ViewData; views++ {
			ss, err := NewStackSweepViews(views, line, geoms...)
			if err != nil {
				t.Fatal(err)
			}
			workloads.Run(w, ss, budget)
			for v, f := range ss.views {
				if selected := views&(1<<v) != 0; (f != nil) != selected || (len(ss.recs[v]) > 0) != selected {
					t.Errorf("line %d views %03b: view %d has family %v and %d decoded records, selected %v",
						line, views, v, f != nil, len(ss.recs[v]), selected)
				}
			}
			for g := range geoms {
				want, got := all.Curves(g), ss.Curves(g)
				for _, c := range []struct {
					view      Views
					got, want []float64
				}{{ViewUnified, got.Unified, want.Unified}, {ViewInst, got.Inst, want.Inst}, {ViewData, got.Data, want.Data}} {
					if views&c.view == 0 {
						if c.got != nil {
							t.Errorf("line %d views %03b geometry %d: unselected view %03b priced", line, views, g, c.view)
						}
					} else if !reflect.DeepEqual(c.got, c.want) {
						t.Errorf("line %d views %03b geometry %d: view %03b differs from the all-view pass\n got %v\nwant %v",
							line, views, g, c.view, c.got, c.want)
					}
				}
			}
		}
	}
}

// TestStackSweepBlockMatchesSerial pins block delivery (decode + fan
// out, truncated tails included) to the per-access concrete-cache
// oracle, one per geometry, for tiny, prime, and budget-truncated
// block sizes at serial and parallel fan-out.
func TestStackSweepBlockMatchesSerial(t *testing.T) {
	const budget = 60_000
	geoms := []SweepGeometry{
		{SizesKB: DefaultSweepSizesKB, Ways: 8},
		{SizesKB: []int{16, 128}, Ways: 1}, // direct-mapped: distinct set counts stay live
	}
	var want []Curves
	for _, g := range geoms {
		ref, err := NewSweepSpec(g.SizesKB, g.Ways, 0)
		if err != nil {
			t.Fatal(err)
		}
		driveSweep(trace.NewEmitter(ref, budget))
		want = append(want, ref.Curves())
	}
	if want[0].Inst[0] == 0 || want[0].Data[0] == 0 {
		t.Fatal("reference curves empty")
	}
	for _, bs := range []int{1, 7, 500, 4096, trace.DefaultBlockSize} {
		for _, par := range []int{1, 4} {
			ss, err := NewStackSweep(0, geoms...)
			if err != nil {
				t.Fatal(err)
			}
			ss.Parallelism = par
			driveSweep(trace.NewBlockEmitter(ss, budget, bs))
			if got := []Curves{ss.Curves(0), ss.Curves(1)}; !reflect.DeepEqual(got, want) {
				t.Fatalf("block size %d, parallelism %d: curves differ from the oracle", bs, par)
			}
		}
	}
}

// TestStackSweepRaceHammer drives concurrent multi-geometry stack
// sweeps with a wide fan-out; under -race this proves the accumulators
// share nothing but the read-only streams.
func TestStackSweepRaceHammer(t *testing.T) {
	geoms := []SweepGeometry{
		{SizesKB: DefaultSweepSizesKB, Ways: 8},
		{SizesKB: DefaultSweepSizesKB, Ways: 2},
		{SizesKB: []int{16, 256}, Ways: 16},
	}
	var wg sync.WaitGroup
	results := make([][]Curves, 6)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ss, err := NewStackSweep(0, geoms...)
			if err != nil {
				panic(err)
			}
			ss.Parallelism = 8
			driveSweep(trace.NewBlockEmitter(ss, 20000, 512))
			results[i] = []Curves{ss.Curves(0), ss.Curves(1), ss.Curves(2)}
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("concurrent stack sweep %d diverged", i)
		}
	}
}

// TestStackSweepRejectsBadGeometry pins validation parity with
// NewSweepSpec.
func TestStackSweepRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		sizes      []int
		ways, line int
	}{
		{[]int{16}, 0, 48},         // line not a power of two
		{[]int{16}, 0, 4},          // line too small
		{[]int{16}, -1, 0},         // negative ways
		{[]int{16}, 3, 0},          // 16 KB not divisible into 3-way 64B sets
		{[]int{16}, 0, 8192},       // 16 KB smaller than one 8-way 8 KB-line set
		{[]int{16}, 1 << 58, 0},    // ways*line wraps to 0
		{[]int{16}, 0, 1 << 62},    // ways*line wraps to 0
		{[]int{16, 1 << 54}, 0, 0}, // kb<<10 wraps to 0
		{[]int{16, 1 << 30}, 0, 0}, // 2^34 lines: over the sweep cap
		{[]int{-16}, 0, 0},         // non-positive size
	}
	for _, c := range cases {
		if _, err := NewStackSweep(c.line, SweepGeometry{SizesKB: c.sizes, Ways: c.ways}); err == nil {
			t.Errorf("NewStackSweep(%d, ways=%d, %v) accepted invalid geometry", c.line, c.ways, c.sizes)
		}
	}
	if _, err := NewStackSweep(0); err == nil {
		t.Error("NewStackSweep with no geometries accepted")
	}
}

// TestStackSweepCancelDrainsBlocks pins the drain path: a cancelled
// stack sweep accounts nothing after the channel closes.
func TestStackSweepCancelDrainsBlocks(t *testing.T) {
	ss, err := NewStackSweep(0, SweepGeometry{SizesKB: []int{16, 32}, Ways: 8})
	if err != nil {
		t.Fatal(err)
	}
	ss.Parallelism = 1
	ctx, cancel := context.WithCancel(context.Background())
	ss.Cancel = ctx.Done()
	cancel()
	workloads.Run(workloads.Representative17()[4], ss, 50_000)
	for _, st := range ss.views[1].Stacks() {
		if st.Accesses() != 0 {
			t.Fatalf("cancelled stack sweep still accounted %d accesses", st.Accesses())
		}
	}
}

// TestCheckSweepBoundsFamilyState pins CheckSweep's cap to what a
// sweep really allocates: over the paper's sizes at each line size and
// ways set, CheckSweep accepts exactly when the Families hold at most
// MaxSweepWords of Σ sets × depth, and accepting allocates nothing.
// The largest sweep the repository runs (32-byte lines, ways 1-32:
// 1,834,496 words) must pass.
func TestCheckSweepBoundsFamilyState(t *testing.T) {
	for _, c := range []struct {
		line  int
		ways  []int
		words int
	}{
		{32, []int{1, 2, 4, 8, 16, 32}, 1_834_496},
		{8, []int{8}, 2_095_104},
		{16, []int{2, 4, 8}, 2_096_128},
		{8, []int{1, 2}, 3_143_680}, // every size fits; the sum does not
		{16, []int{1, 2, 4, 8, 16, 32}, 3_668_992},
	} {
		var geoms []SweepGeometry
		for _, w := range c.ways {
			geoms = append(geoms, SweepGeometry{SizesKB: DefaultSweepSizesKB, Ways: w})
		}
		err := CheckSweep(c.line, geoms...)
		if (err == nil) != (c.words <= MaxSweepWords) {
			t.Errorf("line %d ways %v (%d words): CheckSweep error %v", c.line, c.ways, c.words, err)
		}
		if err != nil {
			continue
		}
		if n := testing.AllocsPerRun(10, func() { _ = CheckSweep(c.line, geoms...) }); n != 0 {
			t.Errorf("line %d ways %v: CheckSweep allocated %v times", c.line, c.ways, n)
		}
		ss, err := NewStackSweep(c.line, geoms...)
		if err != nil {
			t.Fatal(err)
		}
		for v, f := range ss.views {
			got := 0
			for _, st := range f.Stacks() {
				got += st.Sets() * st.Depth()
			}
			if got != c.words {
				t.Errorf("line %d ways %v: view %d holds %d words, want %d", c.line, c.ways, v, got, c.words)
			}
		}
	}
}
