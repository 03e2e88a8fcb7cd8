package pipeline

import (
	"testing"

	"repro/internal/sim/isa"
)

func testCfg(inorder bool) Config {
	return Config{
		FetchWidth: 4, CommitWidth: 4, Window: 128,
		InOrder: inorder, MispredictPenalty: 12,
		IntLat: 1, MulLat: 3, DivLat: 20, FPLat: 4, FPDivLat: 22,
		LoadLat: [5]int{0, 4, 10, 38, 190},
	}
}

// step advances m by one instruction: StepBlock over a block of one.
func step(m *Model, i isa.Inst, ilevel, dlevel int, mispredict bool, dtlbExtra int) {
	m.StepBlock([]isa.Inst{i}, []Event{{DTLBExtra: dtlbExtra, ILevel: uint8(ilevel), DLevel: uint8(dlevel), Mispredict: mispredict}})
}

func feed(m *Model, n int, build func(i int) isa.Inst, ilevel, dlevel int) {
	for i := 0; i < n; i++ {
		step(m, build(i), ilevel, dlevel, false, 0)
	}
}

func TestIndependentIntIPCNearWidth(t *testing.T) {
	m := New(testCfg(false))
	feed(m, 10000, func(i int) isa.Inst {
		return isa.Inst{Op: isa.IntAlu, Dst: isa.Reg(8 + i%200)}
	}, 1, 0)
	if ipc := m.IPC(); ipc < 3.5 {
		t.Fatalf("independent int stream IPC = %.2f, want near 4", ipc)
	}
}

func TestSerialChainIPCNearOne(t *testing.T) {
	m := New(testCfg(false))
	feed(m, 10000, func(i int) isa.Inst {
		return isa.Inst{Op: isa.IntAlu, Dst: 5, Src1: 5}
	}, 1, 0)
	if ipc := m.IPC(); ipc > 1.1 {
		t.Fatalf("serial chain IPC = %.2f, want <= ~1", ipc)
	}
}

func TestMemoryChainBoundByLatency(t *testing.T) {
	m := New(testCfg(false))
	// Dependent loads from memory: IPC ~ 1/190.
	feed(m, 2000, func(i int) isa.Inst {
		return isa.Inst{Op: isa.Load, Dst: 5, Src1: 5, Addr: uint64(i) * 64, Size: 8}
	}, 1, 4)
	if ipc := m.IPC(); ipc > 0.01 {
		t.Fatalf("dependent memory chain IPC = %.4f, want ~1/190", ipc)
	}
}

func TestIndependentMissesOverlap(t *testing.T) {
	m := New(testCfg(false))
	feed(m, 2000, func(i int) isa.Inst {
		return isa.Inst{Op: isa.Load, Dst: isa.Reg(8 + i%200), Addr: uint64(i) * 64, Size: 8}
	}, 1, 4)
	if ipc := m.IPC(); ipc < 0.3 {
		t.Fatalf("independent memory misses IPC = %.3f, want overlap >> 1/190", ipc)
	}
	if mlp := m.MLP(); mlp < 2 {
		t.Fatalf("MLP = %.1f, want > 2 for overlapping misses", mlp)
	}
}

func TestInOrderSlower(t *testing.T) {
	mk := func(inorder bool) float64 {
		cfg := testCfg(inorder)
		if inorder {
			cfg.FetchWidth, cfg.CommitWidth, cfg.Window = 2, 2, 16
		}
		m := New(cfg)
		feed(m, 5000, func(i int) isa.Inst {
			op := isa.IntAlu
			if i%4 == 0 {
				op = isa.Load
			}
			return isa.Inst{Op: op, Dst: isa.Reg(8 + i%100), Addr: uint64(i * 8), Size: 8}
		}, 1, 2)
		return m.IPC()
	}
	ooo, ino := mk(false), mk(true)
	if ino >= ooo {
		t.Fatalf("in-order IPC %.2f >= out-of-order %.2f", ino, ooo)
	}
}

func TestIMissStallsFetch(t *testing.T) {
	clean := New(testCfg(false))
	feed(clean, 2000, func(i int) isa.Inst {
		return isa.Inst{Op: isa.IntAlu, Dst: isa.Reg(8 + i%100)}
	}, 1, 0)
	missy := New(testCfg(false))
	feed(missy, 2000, func(i int) isa.Inst {
		return isa.Inst{Op: isa.IntAlu, Dst: isa.Reg(8 + i%100)}
	}, 3, 0) // every fetch fills from L3
	if missy.IPC() >= clean.IPC()/2 {
		t.Fatalf("I-miss stream IPC %.2f not clearly below clean %.2f", missy.IPC(), clean.IPC())
	}
	if missy.IMissStall == 0 {
		t.Fatal("no I-miss stall recorded")
	}
}

func TestMispredictStall(t *testing.T) {
	m := New(testCfg(false))
	for i := 0; i < 1000; i++ {
		inst := isa.Inst{Op: isa.Branch, Kind: isa.BrCond, PC: uint64(i * 4), Taken: true}
		step(m, inst, 1, 0, i%10 == 0, 0)
	}
	if m.MispredictStall == 0 {
		t.Fatal("mispredicts recorded no stall")
	}
	if m.FrontStall() <= 0 || m.FrontStall() > 1 {
		t.Fatalf("front stall ratio %v out of (0,1]", m.FrontStall())
	}
}

func TestCyclesMonotonic(t *testing.T) {
	m := New(testCfg(false))
	last := uint64(0)
	for i := 0; i < 1000; i++ {
		inst := isa.Inst{Op: isa.IntAlu, Dst: isa.Reg(8 + i%100)}
		step(m, inst, 1, 0, false, 0)
		if m.Cycles < last {
			t.Fatalf("cycles went backwards at %d", i)
		}
		last = m.Cycles
	}
}

func TestILPWindowed(t *testing.T) {
	wide := New(testCfg(false))
	feed(wide, 12800, func(i int) isa.Inst {
		return isa.Inst{Op: isa.IntAlu, Dst: isa.Reg(8 + i%200)}
	}, 1, 0)
	serial := New(testCfg(false))
	feed(serial, 12800, func(i int) isa.Inst {
		return isa.Inst{Op: isa.IntAlu, Dst: 5, Src1: 5}
	}, 1, 0)
	if wide.ILP() <= serial.ILP() {
		t.Fatalf("ILP(wide)=%.1f <= ILP(serial)=%.1f", wide.ILP(), serial.ILP())
	}
	if s := serial.ILP(); s > 1.5 {
		t.Fatalf("serial ILP = %.2f, want ~1", s)
	}
}

func TestDTLBExtraAddsLatency(t *testing.T) {
	a := New(testCfg(false))
	b := New(testCfg(false))
	for i := 0; i < 2000; i++ {
		inst := isa.Inst{Op: isa.Load, Dst: 5, Src1: 5, Addr: uint64(i * 8), Size: 8}
		step(a, inst, 1, 1, false, 0)
		step(b, inst, 1, 1, false, 25)
	}
	if b.IPC() >= a.IPC() {
		t.Fatalf("DTLB walks did not slow the chain: %.3f >= %.3f", b.IPC(), a.IPC())
	}
}
