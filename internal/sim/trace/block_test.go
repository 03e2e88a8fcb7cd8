package trace

import (
	"reflect"
	"testing"

	"repro/internal/sim/isa"
	"repro/internal/sim/mem"
	"repro/internal/xrand"
)

// seqProbe records the instruction sequence it observes, via either
// delivery path, plus how it was delivered.
type seqProbe struct {
	insts  []isa.Inst
	blocks []int
}

func (s *seqProbe) Inst(i *isa.Inst) {
	s.insts = append(s.insts, *i)
	s.blocks = append(s.blocks, 1)
}

func (s *seqProbe) InstBlock(block []isa.Inst) {
	s.insts = append(s.insts, block...)
	s.blocks = append(s.blocks, len(block))
}

// emitMixed drives a representative emission mix: straight-line ops,
// loads/stores, loops, calls, stream emission.
func emitMixed(e *Emitter, l *mem.Layout) {
	r := NewRoutine(l, "k", 16<<10)
	sub := NewRoutine(l, "sub", 4<<10)
	e.Enter(r)
	base := l.Alloc(1 << 16)
	st := Stream{
		Mix: Mix{Load: 0.25, Store: 0.1, Branch: 0.15, IntAddr: 0.2, Taken: 0.4, Chain: 0.3},
		Pri: NewWalk(base, 1<<16, 8),
		Rng: xrand.New(7),
	}
	top := e.Here()
	for e.OK() {
		v := e.Load(base, 8, isa.NoReg)
		e.Store(base+64, 8, v, isa.NoReg)
		e.IntN(3)
		e.Call(sub)
		e.Int(isa.IntMul, v, isa.NoReg)
		e.Ret()
		st.Emit(e, r, e.Emitted()%r.Size, 40)
		e.Loop(top, e.OK(), v)
	}
	e.Flush()
}

// TestBlockDeliveryMatchesSerial proves the block emitter delivers the
// exact per-instruction sequence for every block size, including sizes
// that divide the stream exactly and sizes whose final block is
// truncated by the budget.
func TestBlockDeliveryMatchesSerial(t *testing.T) {
	const budget = 1000
	ref := &seqProbe{}
	emitMixed(NewEmitter(Unblocked(ref), budget), mem.NewLayout())
	if len(ref.insts) < budget {
		t.Fatalf("reference emitted only %d instructions", len(ref.insts))
	}
	for _, bs := range []int{1, 7, 100, 256, DefaultBlockSize} {
		got := &seqProbe{}
		emitMixed(NewBlockEmitter(got, budget, bs), mem.NewLayout())
		if !reflect.DeepEqual(ref.insts, got.insts) {
			t.Fatalf("block size %d: delivered sequence differs from serial", bs)
		}
		for bi, n := range got.blocks[:len(got.blocks)-1] {
			if n != bs {
				t.Fatalf("block size %d: interior block %d has %d instructions", bs, bi, n)
			}
		}
		if tail := got.blocks[len(got.blocks)-1]; tail > bs {
			t.Fatalf("block size %d: tail block has %d instructions", bs, tail)
		}
	}
}

// TestBlockEmitterFallsBackPerInst checks a probe without a block path
// is driven per-instruction by NewBlockEmitter.
func TestBlockEmitterFallsBackPerInst(t *testing.T) {
	got := &seqProbe{}
	emitMixed(NewBlockEmitter(Unblocked(got), 500, 64), mem.NewLayout())
	for _, n := range got.blocks {
		if n != 1 {
			t.Fatal("fallback path delivered a block")
		}
	}
	if len(got.insts) < 500 {
		t.Fatalf("only %d instructions delivered", len(got.insts))
	}
}

// TestFlushIdempotent checks Flush delivers the partial block once and
// only once.
func TestFlushIdempotent(t *testing.T) {
	p := &seqProbe{}
	e := NewBlockEmitter(p, 10, 64)
	l := mem.NewLayout()
	r := NewRoutine(l, "k", 4<<10)
	e.Enter(r)
	e.IntN(5)
	if len(p.insts) != 0 {
		t.Fatal("partial block delivered before Flush")
	}
	e.Flush()
	e.Flush()
	if len(p.insts) != 5 || len(p.blocks) != 1 {
		t.Fatalf("after double Flush: %d insts in %d blocks", len(p.insts), len(p.blocks))
	}
}

// TestCountProbeBlockPath checks the CountProbe adapter sees identical
// tallies through both paths.
func TestCountProbeBlockPath(t *testing.T) {
	serial, blocked := &CountProbe{}, &CountProbe{}
	emitMixed(NewEmitter(Unblocked(serial), 2000), mem.NewLayout())
	emitMixed(NewBlockEmitter(blocked, 2000, 33), mem.NewLayout())
	if *serial != *blocked {
		t.Fatalf("counts differ: serial %+v blocked %+v", serial, blocked)
	}
}
