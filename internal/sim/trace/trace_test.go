package trace

import (
	"testing"
	"testing/quick"

	"repro/internal/sim/isa"
	"repro/internal/sim/mem"
	"repro/internal/xrand"
)

type recorder struct {
	insts []isa.Inst
}

func (r *recorder) Inst(i *isa.Inst) { r.insts = append(r.insts, *i) }

func TestBudget(t *testing.T) {
	rec := &recorder{}
	l := mem.NewLayout()
	e := NewEmitter(rec, 10)
	e.Enter(NewRoutine(l, "k", 4096))
	for e.OK() {
		e.Int(isa.IntAlu, isa.NoReg, isa.NoReg)
	}
	if e.Emitted() != 10 || len(rec.insts) != 10 {
		t.Fatalf("emitted %d/%d, want 10", e.Emitted(), len(rec.insts))
	}
}

func TestPCsAdvanceWithinRoutine(t *testing.T) {
	rec := &recorder{}
	l := mem.NewLayout()
	r := NewRoutine(l, "k", 4096)
	e := NewEmitter(rec, 100)
	e.Enter(r)
	for i := 0; i < 50; i++ {
		e.Int(isa.IntAlu, isa.NoReg, isa.NoReg)
	}
	for i, inst := range rec.insts {
		if !r.Contains(inst.PC) {
			t.Fatalf("inst %d PC %#x outside routine [%#x,%#x)", i, inst.PC, r.Base, r.End())
		}
		if i > 0 && inst.PC != rec.insts[i-1].PC+isa.InstBytes {
			t.Fatalf("PC not sequential at %d", i)
		}
	}
}

func TestPCWrapsInRoutine(t *testing.T) {
	rec := &recorder{}
	l := mem.NewLayout()
	r := NewRoutine(l, "tiny", 16) // 4 instructions
	e := NewEmitter(rec, 10)
	e.Enter(r)
	for i := 0; i < 10; i++ {
		e.Int(isa.IntAlu, isa.NoReg, isa.NoReg)
	}
	for i, inst := range rec.insts {
		if !r.Contains(inst.PC) {
			t.Fatalf("inst %d PC %#x escaped tiny routine", i, inst.PC)
		}
	}
}

func TestLoopReturnsToLabel(t *testing.T) {
	rec := &recorder{}
	l := mem.NewLayout()
	e := NewEmitter(rec, 100)
	e.Enter(NewRoutine(l, "k", 4096))
	top := e.Here()
	var bodyPCs []uint64
	for i := 0; i < 3; i++ {
		e.Int(isa.IntAlu, isa.NoReg, isa.NoReg)
		bodyPCs = append(bodyPCs, rec.insts[len(rec.insts)-1].PC)
		e.Loop(top, i+1 < 3, isa.NoReg)
	}
	if bodyPCs[0] != bodyPCs[1] || bodyPCs[1] != bodyPCs[2] {
		t.Fatalf("loop body PCs differ across iterations: %#x %#x %#x",
			bodyPCs[0], bodyPCs[1], bodyPCs[2])
	}
}

func TestCallRetPairing(t *testing.T) {
	rec := &recorder{}
	l := mem.NewLayout()
	a := NewRoutine(l, "a", 4096)
	b := NewRoutine(l, "b", 4096)
	e := NewEmitter(rec, 100)
	e.Enter(a)
	e.Int(isa.IntAlu, isa.NoReg, isa.NoReg)
	retTo := e.PC() + isa.InstBytes // call occupies one slot
	e.Call(b)
	if e.Routine() != b || e.PC() != b.Base {
		t.Fatal("Call did not enter the callee at its base")
	}
	e.Int(isa.IntAlu, isa.NoReg, isa.NoReg)
	e.Ret()
	if e.Routine() != a || e.PC() != retTo {
		t.Fatalf("Ret returned to %#x in %v, want %#x in a", e.PC(), e.Routine().Name, retTo)
	}
	if e.Depth() != 0 {
		t.Fatalf("call depth %d after balanced call/ret", e.Depth())
	}
}

func TestIfEmissionCountEnforced(t *testing.T) {
	rec := &recorder{}
	l := mem.NewLayout()
	e := NewEmitter(rec, 100)
	e.Enter(NewRoutine(l, "k", 4096))
	defer func() {
		if recover() == nil {
			t.Fatal("If with wrong block size did not panic")
		}
	}()
	e.If(true, 2, func() {
		e.Int(isa.IntAlu, isa.NoReg, isa.NoReg) // only 1 of promised 2
	})
}

func TestIfSkipsAlignPCs(t *testing.T) {
	run := func(cond bool) uint64 {
		rec := &recorder{}
		l := mem.NewLayout()
		e := NewEmitter(rec, 100)
		e.Enter(NewRoutine(l, "k", 4096))
		e.If(cond, 2, func() {
			e.Int(isa.IntAlu, isa.NoReg, isa.NoReg)
			e.Int(isa.IntAlu, isa.NoReg, isa.NoReg)
		})
		return e.PC()
	}
	if run(true) != run(false) {
		t.Fatal("If paths do not rejoin at the same PC")
	}
}

func TestPosRestore(t *testing.T) {
	rec := &recorder{}
	l := mem.NewLayout()
	a := NewRoutine(l, "a", 4096)
	b := NewRoutine(l, "b", 4096)
	e := NewEmitter(rec, 100)
	e.Enter(a)
	e.Int(isa.IntAlu, isa.NoReg, isa.NoReg)
	p := e.Pos()
	st := Stream{Mix: Mix{Load: 0.3, Branch: 0.2, Taken: 0.3},
		Pri: NewWalk(mem.HeapBase, 4096, 8), Rng: xrand.New(1)}
	st.Emit(e, b, 0, 20)
	e.Restore(p)
	e.Int(isa.IntAlu, isa.NoReg, isa.NoReg)
	last := rec.insts[len(rec.insts)-1]
	if !a.Contains(last.PC) {
		t.Fatal("Restore did not return to the saved routine")
	}
}

func TestStreamMixApproximation(t *testing.T) {
	rec := &recorder{}
	l := mem.NewLayout()
	r := NewRoutine(l, "fw", 256<<10)
	e := NewEmitter(rec, 60000)
	st := Stream{
		Mix: Mix{Load: 0.3, Store: 0.1, Branch: 0.2, IntAddr: 0.2, Taken: 0.3},
		Pri: NewWalk(mem.HeapBase, 1<<20, 16),
		Rng: xrand.New(7),
	}
	st.Emit(e, r, 0, 50000)
	var c CountProbe
	for i := range rec.insts {
		c.Inst(&rec.insts[i])
	}
	frac := func(op isa.Op) float64 { return float64(c.ByOp[op]) / float64(c.Total) }
	if f := frac(isa.Load); f < 0.25 || f > 0.35 {
		t.Fatalf("load fraction %.3f, want ~0.30", f)
	}
	if f := frac(isa.Branch); f < 0.15 || f > 0.25 {
		t.Fatalf("branch fraction %.3f, want ~0.20", f)
	}
}

func TestStreamDeterministicPerPC(t *testing.T) {
	// Two emissions over the same window must produce the same opcode
	// sequence (class is a pure function of PC).
	get := func() []isa.Op {
		rec := &recorder{}
		l := mem.NewLayout()
		r := NewRoutine(l, "fw", 64<<10)
		e := NewEmitter(rec, 2000)
		st := Stream{
			Mix: Mix{Load: 0.3, Store: 0.1, Branch: 0.2, IntAddr: 0.2, Taken: 0.3},
			Pri: NewWalk(mem.HeapBase, 1<<20, 16),
			Rng: xrand.New(99),
		}
		st.Emit(e, r, 0, 1000)
		ops := make([]isa.Op, len(rec.insts))
		for i := range rec.insts {
			ops[i] = rec.insts[i].Op
		}
		return ops
	}
	a, b := get(), get()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("opcode stream diverged at %d", i)
		}
	}
}

func TestWalkBounds(t *testing.T) {
	f := func(seed uint64, random bool) bool {
		r := xrand.New(seed)
		var w *Walk
		if random {
			w = NewRandomWalk(1<<30, 4096)
		} else {
			w = NewWalk(1<<30, 4096, 16)
		}
		for i := 0; i < 200; i++ {
			a := w.Next(r)
			if a < 1<<30 || a >= (1<<30)+4096 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClusterWalkStaysInRegion(t *testing.T) {
	r := xrand.New(5)
	w := NewClusterWalk(1<<30, 1<<20, 256, 16)
	for i := 0; i < 10000; i++ {
		a := w.Next(r)
		if a < 1<<30 || a >= (1<<30)+(1<<20)+256*16 {
			t.Fatalf("cluster walk escaped region: %#x", a)
		}
	}
}
