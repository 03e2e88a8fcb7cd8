package machine

import (
	"fmt"
	"runtime"

	"repro/internal/sim/cache"
	"repro/internal/sim/isa"
	"repro/internal/sim/stackdist"
)

// SweepGeometry requests one miss-ratio curve from a StackSweep: the
// swept L1 capacities at one associativity. The line size is shared by
// the whole StackSweep (stack-distance accounting is exact across
// sizes and ways at a fixed line size; a different line size changes
// the access stream itself and needs its own pass).
type SweepGeometry struct {
	// SizesKB lists the evaluated capacities (0 ways selects the
	// default, as in NewSweepSpec).
	SizesKB []int
	Ways    int
}

// StackSweep is the single-pass sweep engine: instead of replaying the
// trace through one concrete cache per (size, view), it feeds the same
// packed streams into one stack-distance accumulator per distinct set
// count and view, then derives every requested geometry's miss ratios
// arithmetically from the reuse-depth histograms (stackdist.Stack).
// One trace pass therefore prices *all* geometries at the shared line
// size — the marginal cost of an extra geometry is at most one more
// set count to maintain, usually zero. Each view's accumulators form a
// stackdist.Family, which skips a record at every set count refining
// one where the record was already on top of its set.
//
// It consumes exactly the streams Sweep does (the shared blockDecoder:
// I-line dedup, D-side run merging, unified interleaving) and its
// Curves are bit-identical to Sweep's for every geometry — Sweep
// remains the differential oracle proving that.
//
// Like Sweep it implements both trace.Probe (serial reference, every
// accumulator fed every access) and trace.BlockProbe (the hot path,
// with the three views fanned out across the shared replay pool).
type StackSweep struct {
	// Parallelism bounds the per-view fan-out of block replay, as
	// Sweep.Parallelism does for caches.
	Parallelism int

	// Cancel, when non-nil, makes InstBlock drain without accounting
	// once closed; the histograms are then truncated and must be
	// discarded.
	Cancel <-chan struct{}

	blockDecoder

	geoms     []SweepGeometry
	lineBytes int

	// views holds the unified, instruction and data families, in that
	// order: the unified stream has about as many records as the other
	// two together, so it is handed to the fan-out first.
	views [3]*stackdist.Family
}

// NewStackSweep builds a single-pass sweep over any number of
// geometries sharing one line size. Ways and lineBytes of 0 select the
// paper defaults; validation matches NewSweepSpec exactly (invalid
// line sizes and non-dividing capacities are rejected, never rounded).
func NewStackSweep(lineBytes int, geoms ...SweepGeometry) (*StackSweep, error) {
	if len(geoms) == 0 {
		return nil, fmt.Errorf("machine: stack sweep with no geometries")
	}
	if lineBytes == 0 {
		lineBytes = DefaultSweepLineBytes
	}
	if lineBytes < 8 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("machine: sweep line size %d not a power of two >= 8", lineBytes)
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	s := &StackSweep{
		lineBytes:    lineBytes,
		blockDecoder: blockDecoder{lineShift: shift},
	}
	depths := map[int]int{}
	for _, g := range geoms {
		if g.Ways == 0 {
			g.Ways = DefaultSweepWays
		}
		if g.Ways < 1 {
			return nil, fmt.Errorf("machine: sweep ways %d < 1", g.Ways)
		}
		for _, kb := range g.SizesKB {
			cfg := cache.Config{Name: "sweep", Size: kb << 10, Ways: g.Ways, LineSize: lineBytes, Latency: 1}
			if !cfg.Valid() {
				return nil, fmt.Errorf("machine: sweep size %d KB not divisible into %d-way sets of %d-byte lines",
					kb, g.Ways, lineBytes)
			}
			// Stacks only track as deep as the deepest reader of this
			// set count: a set count serving only a 1-way geometry keeps
			// a depth-1 stack (one compare per access), which is what
			// keeps many-geometry passes near-flat.
			sets := (kb << 10) / (g.Ways * lineBytes)
			depths[sets] = max(depths[sets], g.Ways)
		}
		s.geoms = append(s.geoms, g)
	}
	for v := range s.views {
		s.views[v] = stackdist.NewFamily(depths)
	}
	return s, nil
}

// Geometries returns the requested geometries in construction order
// (Ways resolved to the default where 0 was passed).
func (s *StackSweep) Geometries() []SweepGeometry { return s.geoms }

// Inst implements trace.Probe — the serial reference, accounting every
// access inline into every accumulator, unpruned, with the same I-line
// dedup Sweep.Inst applies. Run merging is a block-path packing detail;
// the per-access and packed forms accumulate identical histograms (a
// merged repeat is a depth-0 hit by construction).
func (s *StackSweep) Inst(i *isa.Inst) {
	uni, inst, data := s.views[0].Stacks(), s.views[1].Stacks(), s.views[2].Stacks()
	if line := i.PC >> s.lineShift; line != s.lastILine {
		s.lastILine = line
		for k := range inst {
			inst[k].Access(line, 0)
			uni[k].Access(line, 0)
		}
	}
	if i.Op == isa.Load || i.Op == isa.Store {
		line := i.Addr >> s.lineShift
		for k := range data {
			data[k].Access(line, 0)
			uni[k].Access(line, 0)
		}
	}
}

// InstBlock implements trace.BlockProbe: decode once (shared with
// Sweep), then replay each view's stream into its family. Each family
// is owned by exactly one worker and the streams are read-only during
// the fan-out, so any schedule produces the same histograms.
func (s *StackSweep) InstBlock(block []isa.Inst) {
	if s.Cancel != nil {
		select {
		case <-s.Cancel:
			return // drain: the histograms are already condemned
		default:
		}
	}
	s.decode(block)
	streams := [3][]cache.Rec{s.uRecs, s.iRecs, s.dRecs}
	par := s.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par == 1 {
		for v, f := range s.views {
			f.AccessBlock(streams[v])
		}
		return
	}
	sharedReplayPool().ForEachN(par, len(s.views), func(v int) {
		s.views[v].AccessBlock(streams[v])
	})
}

// Curves derives geometry g's three miss-ratio views from the
// histograms — Sweep.Curves()-compatible, bit-identical to what the
// concrete caches would have reported.
func (s *StackSweep) Curves(g int) Curves {
	geom := s.geoms[g]
	out := Curves{
		SizesKB: geom.SizesKB,
		Inst:    make([]float64, len(geom.SizesKB)),
		Data:    make([]float64, len(geom.SizesKB)),
		Unified: make([]float64, len(geom.SizesKB)),
	}
	for j, kb := range geom.SizesKB {
		sets := (kb << 10) / (geom.Ways * s.lineBytes)
		out.Unified[j] = s.views[0].Stack(sets).MissRatio(geom.Ways)
		out.Inst[j] = s.views[1].Stack(sets).MissRatio(geom.Ways)
		out.Data[j] = s.views[2].Stack(sets).MissRatio(geom.Ways)
	}
	return out
}
