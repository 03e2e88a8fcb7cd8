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
// behind the block pipeline: for real workloads, sweep curves produced
// through block replay — at sizes 1, a prime, an exact budget divisor
// and the budget-truncating default — are bit-identical to the
// retained per-instruction serial path, with serial and parallel cache
// fan-out.
func TestBlockReplayEquivalence(t *testing.T) {
	const budget = 50_000
	for _, w := range blockTestWorkloads() {
		ref := machine.NewSweep(machine.DefaultSweepSizesKB)
		workloads.Run(w, trace.Unblocked(ref), budget)
		want := ref.Curves()
		for _, bs := range []int{1, 7, 10_000, trace.DefaultBlockSize} {
			for _, par := range []int{1, 4} {
				sw := machine.NewSweep(machine.DefaultSweepSizesKB)
				sw.Parallelism = par
				workloads.RunBlock(w, sw, budget, bs)
				if got := sw.Curves(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: block %d par %d: curves != serial", w.ID, bs, par)
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
// now that the engine path replays blocks and the serial path stays
// per-instruction: both must produce identical curves.
func TestSerialFiguresMatchEngineFigures(t *testing.T) {
	s := NewSession(Options{Budget: 50_000, SweepBudget: 40_000, RosterBudget: 40_000})
	serial := SerialSweepFigures(s)
	engine := [4]SweepResult{Fig6(s), Fig7(s), Fig8(s), Fig9(s)}
	for i := range serial {
		if !reflect.DeepEqual(serial[i].Curves, engine[i].Curves) {
			t.Fatalf("figure %d: serial and engine curves differ", i+6)
		}
	}
}
