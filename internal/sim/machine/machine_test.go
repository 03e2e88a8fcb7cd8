package machine

import (
	"testing"

	"repro/internal/sim/isa"
	"repro/internal/sim/mem"
	"repro/internal/sim/trace"
	"repro/internal/xrand"
)

func TestPresetsBuild(t *testing.T) {
	for _, cfg := range []Config{XeonE5645(), AtomD510()} {
		m := New(cfg)
		if m.H == nil || m.Pipe == nil || m.BP == nil || m.STLB == nil {
			t.Fatalf("%s: incomplete machine", cfg.Name)
		}
	}
}

func TestXeonMatchesPaperTable3(t *testing.T) {
	cfg := XeonE5645()
	if cfg.Cores != 6 {
		t.Errorf("cores = %d, want 6", cfg.Cores)
	}
	if cfg.L1D.Size != 32<<10 || cfg.L1I.Size != 32<<10 {
		t.Error("L1 sizes != 32 KB")
	}
	if cfg.L2.Size != 256<<10 {
		t.Error("L2 != 256 KB")
	}
	if cfg.L3.Size != 12<<20 {
		t.Error("L3 != 12 MB")
	}
	if cfg.FreqHz != 2.40e9 {
		t.Error("frequency != 2.40 GHz")
	}
	// Table 4 reports 11-13 cycles for the Xeon's hybrid predictor.
	if cfg.Predictor != PredHybrid {
		t.Error("Xeon must use the hybrid predictor")
	}
	if cfg.Pipe.MispredictPenalty != 12 {
		t.Errorf("Xeon penalty = %d, want 12", cfg.Pipe.MispredictPenalty)
	}
}

func TestAtomMatchesPaperTable4(t *testing.T) {
	cfg := AtomD510()
	if cfg.Predictor != PredTwoLevel {
		t.Error("Atom must use the two-level predictor")
	}
	if cfg.Pipe.MispredictPenalty != 15 {
		t.Errorf("Atom penalty = %d, want 15", cfg.Pipe.MispredictPenalty)
	}
	if !cfg.Pipe.InOrder {
		t.Error("Atom must be in-order")
	}
}

func runSynthetic(m *Machine, n int) {
	l := mem.NewLayout()
	r := trace.NewRoutine(l, "k", 32<<10)
	e := trace.NewEmitter(m, int64(n))
	e.Enter(r)
	base := l.Alloc(1 << 20)
	rng := xrand.New(1)
	top := e.Here()
	for e.OK() {
		v := e.Load(base+rng.Uint64n(1<<20)&^7, 8, isa.NoReg)
		e.Int(isa.IntAddr, v, isa.NoReg)
		e.Store(base+rng.Uint64n(1<<20)&^7, 8, v, isa.NoReg)
		e.Int(isa.IntAlu, v, isa.NoReg)
		e.Loop(top, true, v)
	}
}

func TestCountersConsistent(t *testing.T) {
	m := New(XeonE5645())
	runSynthetic(m, 10000)
	m.Finish()
	c := m.C
	if c.Insts != 10000 {
		t.Fatalf("insts = %d, want 10000", c.Insts)
	}
	var sum uint64
	for _, v := range c.ByOp {
		sum += v
	}
	if sum != c.Insts {
		t.Fatalf("op counts sum %d != insts %d", sum, c.Insts)
	}
	if c.Branches == 0 || c.Taken == 0 {
		t.Fatal("no branches counted")
	}
	if m.Pipe.Cycles == 0 {
		t.Fatal("no cycles accumulated")
	}
	if m.H.L1D.Accesses == 0 || m.H.L1I.Accesses != c.Insts {
		t.Fatal("cache access counts inconsistent")
	}
}

func TestFootprintTracking(t *testing.T) {
	m := New(XeonE5645())
	runSynthetic(m, 5000)
	if m.CodeFootprintBytes() == 0 {
		t.Fatal("no code footprint recorded")
	}
	if m.DataFootprintBytes() == 0 {
		t.Fatal("no data footprint recorded")
	}
	// 1 MB random data walk: footprint should approach 1 MB but never
	// exceed region + rounding.
	if m.DataFootprintBytes() > 2<<20 {
		t.Fatalf("data footprint %d way beyond the touched region", m.DataFootprintBytes())
	}
}

func TestSweepMonotonic(t *testing.T) {
	s, err := NewSweepSpec(DefaultSweepSizesKB, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := mem.NewLayout()
	r := trace.NewRoutine(l, "k", 512<<10)
	e := trace.NewEmitter(s, 50000)
	st := trace.Stream{
		Mix: trace.Mix{Load: 0.3, Store: 0.1, Branch: 0.2, IntAddr: 0.2, Taken: 0.3},
		Pri: trace.NewRandomWalk(mem.HeapBase, 2<<20),
		Rng: xrand.New(2),
	}
	for e.OK() {
		st.Emit(e, r, e.Emitted()%r.Size, 1000)
	}
	c := s.Curves()
	for _, view := range [][]float64{c.Inst, c.Data, c.Unified} {
		for i := 1; i < len(view); i++ {
			// LRU stack property: bigger caches never miss more
			// (allow a sliver of noise from set-count changes).
			if view[i] > view[i-1]*1.05+1e-9 {
				t.Fatalf("miss ratio not monotone: size %d KB %.4f -> %d KB %.4f",
					s.SizesKB[i-1], view[i-1], s.SizesKB[i], view[i])
			}
		}
	}
}
