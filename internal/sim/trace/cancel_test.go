package trace

import (
	"testing"

	"repro/internal/sim/isa"
	"repro/internal/sim/mem"
	"repro/internal/xrand"
)

// TestEmitterCancelStopsEmission pins the abort contract: closing the
// cancel channel zeroes the budget at the next poll, so a kernel
// polling OK() stops within one poll interval instead of running its
// full budget.
func TestEmitterCancelStopsEmission(t *testing.T) {
	var probe CountProbe
	const budget = 1 << 20
	e := NewEmitter(&probe, budget)
	cancel := make(chan struct{})
	e.SetCancel(cancel)
	close(cancel) // cancelled before the run even starts

	for e.OK() {
		e.Int(isa.IntAlu, isa.NoReg, isa.NoReg)
	}
	if !e.Canceled() {
		t.Fatal("emitter did not observe the cancellation")
	}
	// The poll fires every cancelCheckMask+1 instructions; the overrun
	// is bounded by one interval.
	if got := e.Emitted(); got > cancelCheckMask+1 {
		t.Fatalf("emitted %d instructions after cancellation, want <= %d", got, cancelCheckMask+1)
	}
}

// TestEmitterNilCancelRunsFullBudget pins that an unarmed emitter is
// unchanged: the full budget is emitted and Canceled stays false.
func TestEmitterNilCancelRunsFullBudget(t *testing.T) {
	var probe CountProbe
	const budget = 10_000
	e := NewBlockEmitter(&probe, budget, 256)
	for e.OK() {
		e.Int(isa.IntAlu, isa.NoReg, isa.NoReg)
	}
	e.Flush()
	if e.Canceled() {
		t.Fatal("unarmed emitter reported cancellation")
	}
	if probe.Total != budget {
		t.Fatalf("probe saw %d instructions, want %d", probe.Total, budget)
	}
}

// TestEmitterCancelMidRunBlockPath cancels partway through a block-
// buffered emission and checks the stream stops near the cancellation
// point.
func TestEmitterCancelMidRunBlockPath(t *testing.T) {
	var probe CountProbe
	const budget = 1 << 20
	e := NewBlockEmitter(&probe, budget, 512)
	cancel := make(chan struct{})
	e.SetCancel(cancel)

	emitted := 0
	for e.OK() {
		e.Int(isa.IntAlu, isa.NoReg, isa.NoReg)
		emitted++
		if emitted == 10_000 {
			close(cancel)
		}
	}
	e.Flush()
	if !e.Canceled() {
		t.Fatal("emitter did not observe mid-run cancellation")
	}
	if got := e.Emitted(); got < 10_000 || got > 10_000+cancelCheckMask+1 {
		t.Fatalf("emitted %d, want within one poll interval past 10000", got)
	}
}

// TestStreamEmitCancelAndBudget pins the same contracts on
// Stream.Emit, which keeps the budget in a local: on both delivery
// paths a cancelled stream stops within one poll interval, and a
// budget that ends mid-stream stops it exactly there, with every
// emitted instruction delivered.
func TestStreamEmitCancelAndBudget(t *testing.T) {
	stream := func() Stream {
		return Stream{
			Mix: Mix{Load: 0.3, Store: 0.1, Branch: 0.2, IntAddr: 0.2, Taken: 0.3, Noise: 0.05, Chain: 0.4},
			Pri: NewWalk(mem.HeapBase, 1<<20, 16),
			Rng: xrand.New(5),
		}
	}
	rtn := NewRoutine(mem.NewLayout(), "fw", 64<<10)
	for _, blockSize := range []int{0, 512} {
		emitter := func(p Probe, budget int64) *Emitter {
			if blockSize == 0 {
				return NewEmitter(Unblocked(p), budget)
			}
			return NewBlockEmitter(p, budget, blockSize)
		}

		var probe CountProbe
		e := emitter(&probe, 1<<20)
		cancel := make(chan struct{})
		e.SetCancel(cancel)
		close(cancel)
		st := stream()
		st.Emit(e, rtn, 0, 1<<20)
		e.Flush()
		if !e.Canceled() {
			t.Fatalf("block size %d: stream did not observe the cancellation", blockSize)
		}
		if got := e.Emitted(); got > cancelCheckMask+1 || probe.Total != got {
			t.Fatalf("block size %d: emitted %d, delivered %d after cancellation, want <= %d", blockSize, got, probe.Total, cancelCheckMask+1)
		}

		const budget = 10_007
		probe = CountProbe{}
		e = emitter(&probe, budget)
		st = stream()
		st.Emit(e, rtn, 0, 3*budget)
		e.Flush()
		if e.OK() || e.Emitted() != budget || probe.Total != budget {
			t.Fatalf("block size %d: emitted %d, delivered %d, want the budget %d", blockSize, e.Emitted(), probe.Total, budget)
		}
	}
}
