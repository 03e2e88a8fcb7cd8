package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sim/machine"
	"repro/internal/sim/trace"
	"repro/internal/workloads"
)

// blockTestWorkloads is a cross-stack sample: a Hadoop rep, a PARSEC
// comparator and an MPI twin.
func blockTestWorkloads() []workloads.Workload {
	list := []workloads.Workload{workloads.Representative17()[14]}
	list = append(list, parsecGroup()[0])
	list = append(list, workloads.MPI6()[0])
	return list
}

// TestBlockReplayEquivalence is the end-to-end differential guarantee
// behind the block pipeline: for real workloads, stack-distance sweep
// curves produced through block replay — at sizes 1, a prime, an exact
// budget divisor and the budget-truncating default, with serial and
// parallel view fan-out — are bit-identical to the per-instruction
// concrete-cache oracle.
func TestBlockReplayEquivalence(t *testing.T) {
	const budget = 50_000
	for _, w := range blockTestWorkloads() {
		want := oracleCurves(t, w, budget, machine.DefaultSweepSizesKB, 0, 0)
		for _, bs := range []int{1, 7, 10_000, trace.DefaultBlockSize} {
			for _, par := range []int{1, 4} {
				sw, err := machine.NewStackSweep(0, machine.SweepGeometry{SizesKB: machine.DefaultSweepSizesKB})
				if err != nil {
					t.Fatal(err)
				}
				sw.Parallelism = par
				workloads.RunBlock(w, sw, budget, bs)
				if got := sw.Curves(0); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: block %d par %d: curves != oracle", w.ID, bs, par)
				}
			}
		}
	}
}

// TestBlockProfileEquivalence proves profiling through the Machine's
// block path leaves the 45-metric vector bit-identical, whatever the
// block size.
func TestBlockProfileEquivalence(t *testing.T) {
	const budget = 40_000
	for _, w := range blockTestWorkloads() {
		ref := machine.New(machine.XeonE5645())
		workloads.Run(w, trace.Unblocked(ref), budget)
		ref.Finish()
		for _, bs := range []int{1, 7, 8_000, trace.DefaultBlockSize} {
			m := machine.New(machine.XeonE5645())
			workloads.RunBlock(w, m, budget, bs)
			m.Finish()
			if m.C != ref.C || m.Pipe.Cycles != ref.Pipe.Cycles {
				t.Fatalf("%s: block %d: machine state != serial", w.ID, bs)
			}
		}
	}
}

// TestSessionParallelismInvariant checks the Session-level fan-out
// bound: every sweep parallelism renders the same figure bytes.
func TestSessionParallelismInvariant(t *testing.T) {
	render := func(par int) []byte {
		s := NewSession(Options{Budget: 50_000, SweepBudget: 40_000, RosterBudget: 40_000})
		s.Parallelism = par
		var buf bytes.Buffer
		Fig6(s).Render(&buf)
		Fig7(s).Render(&buf)
		return buf.Bytes()
	}
	want := render(1)
	for _, par := range []int{2, 4, 0} {
		if got := render(par); !bytes.Equal(got, want) {
			t.Fatalf("par %d: rendered figures differ", par)
		}
	}
}

// TestSerialFiguresMatchEngineFigures re-pins the seed-path invariant
// at the larger sweep budget: the engine's block-replayed stack-distance
// figures must equal per-instruction concrete-cache passes bit for bit.
func TestSerialFiguresMatchEngineFigures(t *testing.T) {
	assertFiguresMatchOracle(t, NewSession(Options{Budget: 50_000, SweepBudget: 40_000, RosterBudget: 40_000}))
}
