package branch

import (
	"testing"

	"repro/internal/sim/isa"
	"repro/internal/xrand"
)

func condBranch(pc uint64, taken bool) *isa.Inst {
	return &isa.Inst{Op: isa.Branch, Kind: isa.BrCond, PC: pc, Taken: taken, Target: pc + 64}
}

func runPattern(p Predictor, pcs []uint64, pattern func(i int, pc uint64) bool, n int) float64 {
	mis := 0
	total := 0
	for i := 0; i < n; i++ {
		for _, pc := range pcs {
			m, _ := p.Access(condBranch(pc, pattern(i, pc)))
			if m {
				mis++
			}
			total++
		}
	}
	return float64(mis) / float64(total)
}

func TestBiasedBranchLearned(t *testing.T) {
	for _, p := range []Predictor{NewTwoLevel(), NewHybrid()} {
		mr := runPattern(p, []uint64{0x1000}, func(i int, pc uint64) bool { return true }, 1000)
		if mr > 0.02 {
			t.Errorf("%s: always-taken branch mispredicted %.1f%%", p.Name(), mr*100)
		}
	}
}

func TestLoopPredictorCatchesFixedTrips(t *testing.T) {
	// A loop branch taken 15 times then not taken, repeatedly: the
	// hybrid's loop predictor should approach zero mispredictions,
	// while the two-level predictor keeps missing the exits.
	pattern := func(i int, pc uint64) bool { return i%16 != 15 }
	hy := NewHybrid()
	// Warm up, then measure.
	runPattern(hy, []uint64{0x2000}, pattern, 64)
	hmr := runPattern(hy, []uint64{0x2000}, pattern, 1600)
	if hmr > 0.01 {
		t.Errorf("hybrid missed fixed-trip loop: %.2f%%", hmr*100)
	}

	tl := NewTwoLevel()
	runPattern(tl, []uint64{0x2000}, pattern, 64)
	tmr := runPattern(tl, []uint64{0x2000}, pattern, 1600)
	// Eight bits of history cannot see a 16-trip exit coming.
	if hmr >= tmr {
		t.Errorf("hybrid %.3f not below two-level %.3f on a fixed-trip loop", hmr, tmr)
	}
}

func TestRandomBranchesHurtBoth(t *testing.T) {
	r := xrand.New(9)
	for _, p := range []Predictor{NewTwoLevel(), NewHybrid()} {
		mr := runPattern(p, []uint64{0x3000}, func(i int, pc uint64) bool {
			return r.Bool(0.5)
		}, 4000)
		if mr < 0.3 {
			t.Errorf("%s: random branches predicted too well (%.1f%%)", p.Name(), mr*100)
		}
	}
}

func TestHybridBeatsTwoLevelOnAliasing(t *testing.T) {
	// Many branch sites with per-site-stable outcomes: the Atom-class
	// 1K-entry table aliases, the Xeon-class 16K-entry table copes.
	sites := make([]uint64, 3000)
	for i := range sites {
		sites[i] = 0x10000 + uint64(i)*4
	}
	outcome := func(i int, pc uint64) bool { return xrand.Hash64(pc)&1 == 0 }
	atom := runPattern(NewTwoLevel(), sites, outcome, 8)
	xeon := runPattern(NewHybrid(), sites, outcome, 8)
	if xeon >= atom {
		t.Errorf("hybrid (%.3f) not better than two-level (%.3f) under aliasing", xeon, atom)
	}
}

func TestReturnAddressStack(t *testing.T) {
	for _, p := range []Predictor{NewTwoLevel(), NewHybrid()} {
		// call from 0x100 -> 0x500; ret to 0x104.
		p.Access(&isa.Inst{Op: isa.Branch, Kind: isa.BrCall, PC: 0x100, Taken: true, Target: 0x500})
		mis, _ := p.Access(&isa.Inst{Op: isa.Branch, Kind: isa.BrRet, PC: 0x520, Taken: true, Target: 0x104})
		if mis {
			t.Errorf("%s: paired call/ret mispredicted", p.Name())
		}
		// Unmatched return target.
		p.Access(&isa.Inst{Op: isa.Branch, Kind: isa.BrCall, PC: 0x100, Taken: true, Target: 0x500})
		mis, _ = p.Access(&isa.Inst{Op: isa.Branch, Kind: isa.BrRet, PC: 0x520, Taken: true, Target: 0x999})
		if !mis {
			t.Errorf("%s: wrong return target predicted correctly", p.Name())
		}
	}
}

func TestIndirectMonomorphicLearned(t *testing.T) {
	h := NewHybrid()
	mis := 0
	for i := 0; i < 100; i++ {
		m, _ := h.Access(&isa.Inst{Op: isa.Branch, Kind: isa.BrIndirectJump, PC: 0x700, Taken: true, Target: 0x9000})
		if m {
			mis++
		}
	}
	if mis > 1 {
		t.Errorf("monomorphic indirect jump mispredicted %d times", mis)
	}
}

func TestBTBRedirectOnColdTarget(t *testing.T) {
	p := NewTwoLevel()
	// Train direction taken at a fresh site each time: the direction
	// may be right but the target is unknown -> redirect.
	var redirects int
	for i := 0; i < 300; i++ {
		pc := 0x8000 + uint64(i)*4
		p.Access(condBranch(pc, true)) // trains
		_, r := p.Access(condBranch(pc, true))
		if r {
			redirects++
		}
		_ = r
	}
	if p.Stats().BTBMisses == 0 {
		t.Fatal("no BTB misses recorded on cold taken branches")
	}
}

func TestStatsAccumulate(t *testing.T) {
	h := NewHybrid()
	for i := 0; i < 10; i++ {
		h.Access(condBranch(0x100, i%2 == 0)) // alternating
	}
	st := h.Stats()
	if st.Branches != 10 {
		t.Fatalf("Branches = %d, want 10", st.Branches)
	}
	if st.Mispredicts != st.MisCond+st.MisRet+st.MisInd {
		t.Fatalf("mispredict breakdown does not sum: %+v", st)
	}
}
