package machine

import (
	"testing"

	"repro/internal/sim/mem"
	"repro/internal/sim/trace"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// driveSweep emits a mixed synthetic stream into e (the same workload
// shape TestSweepMonotonic uses, plus stores and sequential phases so
// run merging and dirty lines are exercised).
func driveSweep(e *trace.Emitter) {
	l := mem.NewLayout()
	r := trace.NewRoutine(l, "k", 256<<10)
	st := trace.Stream{
		Mix:  trace.Mix{Load: 0.25, Store: 0.12, Branch: 0.18, IntAddr: 0.2, Taken: 0.35, Chain: 0.3},
		Pri:  trace.NewWalk(mem.HeapBase, 4<<20, 8), // sequential: long mergeable runs
		Sec:  trace.NewRandomWalk(mem.HeapBase, 8<<20),
		SecP: 0.3,
		Rng:  xrand.New(11),
	}
	for e.OK() {
		st.Emit(e, r, e.Emitted()%r.Size, 500)
	}
	e.Flush()
}

// TestMachineBlockMatchesSerial checks the Machine's block path leaves
// every counter identical to per-instruction delivery — the hoisted
// block-local tallies must flush to exactly what the per-instruction
// path accumulates, footprint bitmaps and sub-model state included.
func TestMachineBlockMatchesSerial(t *testing.T) {
	ref := New(XeonE5645())
	driveSweep(trace.NewEmitter(trace.Unblocked(ref), 30000))
	ref.Finish()
	for _, bs := range []int{1, 7, 64, 4096} {
		m := New(XeonE5645())
		driveSweep(trace.NewBlockEmitter(m, 30000, bs))
		m.Finish()
		if m.C != ref.C {
			t.Fatalf("block size %d: counters diverged", bs)
		}
		if m.Pipe.Cycles != ref.Pipe.Cycles {
			t.Fatalf("block size %d: cycle counts diverged", bs)
		}
		if m.H.L1I.Misses != ref.H.L1I.Misses || m.H.L2.Misses != ref.H.L2.Misses {
			t.Fatalf("block size %d: cache state diverged", bs)
		}
		if m.CodeFootprintBytes() != ref.CodeFootprintBytes() ||
			m.DataFootprintBytes() != ref.DataFootprintBytes() {
			t.Fatalf("block size %d: footprints diverged", bs)
		}
	}
}

// TestMachineBlockMatchesSerialWorkload repeats the byte-identity
// check over a real stack.Runtime-driven workload trace — the
// profiling path that motivated moving Machine.InstBlock onto a true
// block loop.
func TestMachineBlockMatchesSerialWorkload(t *testing.T) {
	w := workloads.Representative17()[14] // H-WordCount
	const budget = 60_000
	ref := New(XeonE5645())
	workloads.Run(w, trace.Unblocked(ref), budget)
	ref.Finish()
	for _, bs := range []int{1, 313, trace.DefaultBlockSize} {
		m := New(XeonE5645())
		workloads.RunBlock(w, m, budget, bs)
		m.Finish()
		if m.C != ref.C {
			t.Fatalf("block size %d: counters diverged", bs)
		}
		if m.Pipe.Cycles != ref.Pipe.Cycles {
			t.Fatalf("block size %d: cycle counts diverged", bs)
		}
		if m.CodeFootprintBytes() != ref.CodeFootprintBytes() ||
			m.DataFootprintBytes() != ref.DataFootprintBytes() {
			t.Fatalf("block size %d: footprints diverged", bs)
		}
	}
}
