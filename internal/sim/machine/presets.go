package machine

import (
	"repro/internal/sim/cache"
	"repro/internal/sim/pipeline"
	"repro/internal/sim/tlb"
)

// XeonE5645 returns the configuration of the paper's testbed node
// (Table 3): a 6-core 2.40 GHz Westmere-EP Xeon with 32 KB L1I,
// 32 KB L1D, 256 KB L2 per core and a 12 MB shared L3, the hybrid
// branch predictor of Table 4, and a 4-wide out-of-order core.
func XeonE5645() Config {
	return Config{
		Name:              "Intel Xeon E5645",
		FreqHz:            2.40e9,
		Cores:             6,
		PeakFlopsPerCycle: 4, // 2 FP pipes x 128-bit SSE double

		L1I: cache.Config{Name: "L1I", Size: 32 << 10, Ways: 4, LineSize: 64},
		L1D: cache.Config{Name: "L1D", Size: 32 << 10, Ways: 8, LineSize: 64},
		L2:  cache.Config{Name: "L2", Size: 256 << 10, Ways: 8, LineSize: 64},
		L3:  cache.Config{Name: "L3", Size: 12 << 20, Ways: 16, LineSize: 64},

		ITLB: tlb.Config{Name: "ITLB", Entries: 128, Ways: 4},
		DTLB: tlb.Config{Name: "DTLB", Entries: 64, Ways: 4},

		Predictor: PredHybrid,
		Pipe: pipeline.Config{
			FetchWidth:        4,
			CommitWidth:       4,
			Window:            128,
			MispredictPenalty: 12,
			IntLat:            1,
			MulLat:            3,
			DivLat:            20,
			FPLat:             4,
			FPDivLat:          22,
			LoadLat:           [5]int{0, 4, 10, 38, 190},
		},
	}
}

// AtomD510 returns the configuration of the paper's low-power
// comparison platform (Table 4): a dual-core 1.66 GHz in-order Atom
// with the simple two-level predictor, a 128-entry BTB and a 15-cycle
// misprediction penalty. It has no L3. Cores and PeakFlopsPerCycle
// (two cores, one flop a cycle on the real part) stay zero: Table 3,
// the system model and Fig. 1 read them from the Xeon preset only, and
// a preset holds only values something reads.
func AtomD510() Config {
	return Config{
		Name:   "Intel Atom D510",
		FreqHz: 1.66e9,

		L1I: cache.Config{Name: "L1I", Size: 32 << 10, Ways: 8, LineSize: 64},
		L1D: cache.Config{Name: "L1D", Size: 24 << 10, Ways: 6, LineSize: 64},
		L2:  cache.Config{Name: "L2", Size: 512 << 10, Ways: 8, LineSize: 64},

		ITLB: tlb.Config{Name: "ITLB", Entries: 32, Ways: 4},
		DTLB: tlb.Config{Name: "DTLB", Entries: 64, Ways: 4},

		Predictor: PredTwoLevel,
		Pipe: pipeline.Config{
			FetchWidth:        2,
			CommitWidth:       2,
			Window:            16,
			InOrder:           true,
			MispredictPenalty: 15,
			IntLat:            1,
			MulLat:            5,
			DivLat:            30,
			FPLat:             5,
			FPDivLat:          32,
			LoadLat:           [5]int{0, 3, 15, 0, 170}, // no L3
		},
	}
}
