package machine

import (
	"fmt"
	"math/bits"

	"repro/internal/sim/cache"
	"repro/internal/sim/isa"
)

// Sweep reproduces the methodology of the paper's locality study
// (§5.4, Fig. 6-9): an Atom-like in-order core with a two-level cache
// whose L1 capacity is varied from 16 KB to 8192 KB while the miss
// ratio is recorded. One Sweep evaluates all sizes in a single trace
// pass by maintaining an independent cache per size for each of the
// three views: instruction-only, data-only, and unified
// (instructions + data, Fig. 8).
//
// Sweep is the concrete-cache oracle StackSweep is tested against. It
// implements only trace.Probe: every cache is accessed inline,
// instruction by instruction, through cache.Access. It shares no code
// with StackSweep's block decoder, packed records or run merging, so a
// differential against it checks those too.
type Sweep struct {
	// SizesKB lists the evaluated L1 capacities.
	SizesKB []int

	icaches []*cache.Cache
	dcaches []*cache.Cache
	ucaches []*cache.Cache

	lastILine uint64
	lineShift uint
}

// DefaultSweepSizesKB are the paper's ten L1 capacities.
var DefaultSweepSizesKB = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// Default sweep-cache geometry (the paper's simulator configuration).
const (
	DefaultSweepWays      = 8
	DefaultSweepLineBytes = 64
)

// NewSweepSpec builds a sweep over the given sizes at the given cache
// geometry. ways and lineBytes of 0 select the paper's defaults (8
// ways, 64-byte lines); CheckSweep rejects, never rounds, a geometry
// it cannot build, and ways beyond cache.MaxWays are rejected too (the
// stack-distance engine has no such cap).
func NewSweepSpec(sizesKB []int, ways, lineBytes int) (*Sweep, error) {
	if err := CheckSweep(lineBytes, SweepGeometry{SizesKB: sizesKB, Ways: ways}); err != nil {
		return nil, err
	}
	if ways > cache.MaxWays {
		return nil, fmt.Errorf("machine: sweep ways %d > %d, the widest concrete cache", ways, cache.MaxWays)
	}
	if ways == 0 {
		ways = DefaultSweepWays
	}
	if lineBytes == 0 {
		lineBytes = DefaultSweepLineBytes
	}
	s := &Sweep{SizesKB: sizesKB, lineShift: uint(bits.TrailingZeros(uint(lineBytes)))}
	for _, kb := range sizesKB {
		cfg := cache.Config{Size: kb << 10, Ways: ways, LineSize: lineBytes}
		cfg.Name = "sweepI"
		s.icaches = append(s.icaches, cache.New(cfg))
		cfg.Name = "sweepD"
		s.dcaches = append(s.dcaches, cache.New(cfg))
		cfg.Name = "sweepU"
		s.ucaches = append(s.ucaches, cache.New(cfg))
	}
	return s, nil
}

// Inst implements trace.Probe.
//
// Instruction fetches are counted per fetched line (as MARSSx86's
// cache statistics do), so sequential code issues one I-access per
// 64-byte block; data references are counted per access.
func (s *Sweep) Inst(i *isa.Inst) {
	if line := i.PC >> s.lineShift; line != s.lastILine {
		s.lastILine = line
		for k := range s.icaches {
			s.icaches[k].Access(i.PC, false)
			s.ucaches[k].Access(i.PC, false)
		}
	}
	if i.Op == isa.Load || i.Op == isa.Store {
		wr := i.Op == isa.Store
		for k := range s.dcaches {
			s.dcaches[k].Access(i.Addr, wr)
			s.ucaches[k].Access(i.Addr, wr)
		}
	}
}

// Curves bundles the three per-size miss-ratio views a single sweep
// trace pass produces. Extracting all views at once lets callers run
// each workload exactly once and share the result across the
// instruction, data and unified figures (Figs. 6-9).
type Curves struct {
	SizesKB []int
	Inst    []float64
	Data    []float64
	Unified []float64
}

// Curves extracts every view of the sweep in one call.
func (s *Sweep) Curves() Curves {
	return Curves{
		SizesKB: s.SizesKB,
		Inst:    ratios(s.icaches),
		Data:    ratios(s.dcaches),
		Unified: ratios(s.ucaches),
	}
}

func ratios(cs []*cache.Cache) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.MissRatio()
	}
	return out
}
