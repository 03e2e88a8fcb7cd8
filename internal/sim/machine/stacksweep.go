package machine

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/conc"
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

// MaxSweepWords caps the stack-distance state of one sweep: the sum of
// sets × depth over its distinct set counts, which is the number of
// 8-byte words stackdist.NewFamily allocates for each view a pass
// prices. 2^21 words is 16 MB per view. The largest sweep the
// repository runs (32-byte lines, ways 1-32 over the paper's ten
// sizes: 15 set counts) needs 1,834,496.
const MaxSweepWords = 1 << 21

// CheckSweep validates geometries sharing one line size without
// building anything, so untrusted requests can be checked before any
// allocation: the line size must be a power of two >= 8, every ways
// >= 1 (0 selects the default, for ways and line alike), every size
// must divide into whole sets, and the stack-distance state must fit
// MaxSweepWords. No sum or product it forms can overflow, and it
// allocates only the error it returns.
func CheckSweep(lineBytes int, geoms ...SweepGeometry) error {
	if lineBytes == 0 {
		lineBytes = DefaultSweepLineBytes
	}
	if lineBytes < 8 || lineBytes&(lineBytes-1) != 0 {
		return fmt.Errorf("machine: sweep line size %d not a power of two >= 8", lineBytes)
	}
	for _, g := range geoms {
		ways := g.ways()
		if ways < 1 {
			return fmt.Errorf("machine: sweep ways %d < 1", ways)
		}
		for _, kb := range g.SizesKB {
			if kb <= 0 || kb > math.MaxInt>>10 {
				return fmt.Errorf("machine: sweep size %d KB out of range", kb)
			}
			// Size%line == 0 && (Size/line)%ways == 0 is whole sets,
			// without the ways*line product that can wrap.
			if (kb<<10)%lineBytes != 0 || (kb<<10)/lineBytes%ways != 0 {
				return fmt.Errorf("machine: sweep size %d KB not divisible into %d-way sets of %d-byte lines",
					kb, ways, lineBytes)
			}
		}
	}
	// A set count's stack is as deep as its widest reader, so its state
	// (sets × depth) is the largest line count among the sizes mapping
	// to it. Each set count is summed once, at its first reader; the
	// quadratic scan stays allocation-free and a scenario has at most
	// a few hundred (size, ways) pairs. Stopping at the cap keeps the
	// sum from overflowing.
	words := 0
	for g, a := range geoms {
	next:
		for j, kb := range a.SizesKB {
			lines := (kb << 10) / lineBytes
			sets := lines / a.ways()
			for h, b := range geoms {
				for k, kb2 := range b.SizesKB {
					l2 := (kb2 << 10) / lineBytes
					if l2/b.ways() != sets {
						continue
					}
					if h < g || h == g && k < j {
						continue next // summed at an earlier reader
					}
					lines = max(lines, l2)
				}
			}
			if words += lines; words > MaxSweepWords {
				return fmt.Errorf("machine: sweep needs over %d words of stack-distance state per view", MaxSweepWords)
			}
		}
	}
	return nil
}

// ways resolves the default associativity.
func (g SweepGeometry) ways() int {
	if g.Ways == 0 {
		return DefaultSweepWays
	}
	return g.Ways
}

// Views selects the miss-ratio views a StackSweep prices: a union of
// ViewUnified, ViewInst and ViewData. The zero value selects all three.
type Views uint8

// Bit v selects index v of StackSweep.views and blockDecoder.recs.
const (
	ViewUnified Views = 1 << iota
	ViewInst
	ViewData
)

// Has reports whether v selects view w.
func (v Views) Has(w Views) bool { return v == 0 || v&w != 0 }

// StackSweep is the single-pass sweep engine: instead of replaying the
// trace through one concrete cache per (size, view), it feeds the same
// packed streams into one stack-distance accumulator per distinct set
// count and view, then derives every requested geometry's miss ratios
// arithmetically from the reuse-depth histograms (stackdist.Stack).
// One trace pass therefore prices *all* geometries at the shared line
// size — the marginal cost of an extra geometry is at most one more
// set count to maintain, usually zero. Each view's accumulators form a
// stackdist.Family, which skips a record at every set count refining
// one where the record was already on top of its set. A pass builds
// only the families of the views it was asked for, and decodes only
// the streams they read.
//
// Its Curves are bit-identical to those of Sweep, the per-access
// concrete-cache oracle, for every geometry Sweep can build; the
// differential tests prove it.
//
// It implements trace.BlockProbe (the hot path: each block decoded
// once, the selected views fanned out across the shared replay pool)
// and trace.Probe, as an adapter over the block path.
type StackSweep struct {
	// Parallelism bounds the per-view fan-out of block replay: 1
	// replays serially in the calling goroutine; other values fan the
	// views out across the shared replay pool with at most Parallelism
	// in flight (0 = no bound beyond the pool). The views are
	// independent, so every setting yields the same curves. A pass
	// pricing one view always replays it in the calling goroutine.
	Parallelism int

	// Cancel, when non-nil, makes InstBlock drain without accounting
	// once closed; the histograms are then truncated and must be
	// discarded.
	Cancel <-chan struct{}

	blockDecoder

	geoms     []SweepGeometry
	lineBytes int

	// views holds the unified, instruction and data families, indexed
	// like blockDecoder.recs, nil where the view is not selected; sel
	// lists the selected indexes in that order. The unified stream has
	// about as many records as the other two together, so it is handed
	// to the fan-out first.
	views [3]*stackdist.Family
	sel   []int
}

// NewStackSweep builds a single-pass sweep over any number of
// geometries sharing one line size, pricing all three views. Ways and
// lineBytes of 0 select the paper defaults; CheckSweep validates them,
// as it does for NewSweepSpec (invalid line sizes and non-dividing
// capacities are rejected, never rounded).
func NewStackSweep(lineBytes int, geoms ...SweepGeometry) (*StackSweep, error) {
	return NewStackSweepViews(0, lineBytes, geoms...)
}

// NewStackSweepViews is NewStackSweep pricing only the selected views:
// Curves leaves the others nil.
func NewStackSweepViews(views Views, lineBytes int, geoms ...SweepGeometry) (*StackSweep, error) {
	if len(geoms) == 0 {
		return nil, fmt.Errorf("machine: stack sweep with no geometries")
	}
	if err := CheckSweep(lineBytes, geoms...); err != nil {
		return nil, err
	}
	if lineBytes == 0 {
		lineBytes = DefaultSweepLineBytes
	}
	s := &StackSweep{lineBytes: lineBytes, blockDecoder: blockDecoder{
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		views:     views,
	}}
	depths := map[int]int{}
	for _, g := range geoms {
		g.Ways = g.ways()
		for _, kb := range g.SizesKB {
			// Stacks only track as deep as the deepest reader of this
			// set count: a set count serving only a 1-way geometry keeps
			// a depth-1 stack (one compare per access), which is what
			// keeps many-geometry passes near-flat.
			sets := (kb << 10) / lineBytes / g.Ways
			depths[sets] = max(depths[sets], g.Ways)
		}
		s.geoms = append(s.geoms, g)
	}
	for v := range s.views {
		if views.Has(1 << v) {
			s.views[v] = stackdist.NewFamily(depths)
			s.sel = append(s.sel, v)
		}
	}
	return s, nil
}

// Inst implements trace.Probe: InstBlock over a block of one.
func (s *StackSweep) Inst(i *isa.Inst) { s.InstBlock([]isa.Inst{*i}) }

// InstBlock implements trace.BlockProbe: decode once, then replay each
// selected view's stream into its family. Each family is owned by
// exactly one worker and the streams are read-only during the fan-out,
// so any schedule produces the same histograms.
func (s *StackSweep) InstBlock(block []isa.Inst) {
	if s.Cancel != nil {
		select {
		case <-s.Cancel:
			return // drain: the histograms are already condemned
		default:
		}
	}
	s.decode(block)
	par := s.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par == 1 || len(s.sel) == 1 {
		for _, v := range s.sel {
			s.views[v].AccessBlock(s.recs[v])
		}
		return
	}
	sharedReplayPool().ForEachN(par, len(s.sel), func(k int) {
		v := s.sel[k]
		s.views[v].AccessBlock(s.recs[v])
	})
}

// Curves derives geometry g's selected miss-ratio views from the
// histograms — Sweep.Curves()-compatible, bit-identical to what the
// concrete caches would have reported. Views the sweep does not price
// are nil.
func (s *StackSweep) Curves(g int) Curves {
	geom := s.geoms[g]
	out := Curves{SizesKB: geom.SizesKB}
	ratios := [3]*[]float64{&out.Unified, &out.Inst, &out.Data}
	for _, v := range s.sel {
		r := make([]float64, len(geom.SizesKB))
		for j, kb := range geom.SizesKB {
			r[j] = s.views[v].Stack((kb << 10) / s.lineBytes / geom.Ways).MissRatio(geom.Ways)
		}
		*ratios[v] = r
	}
	return out
}

// replayPool is the process-wide worker pool behind every stack
// sweep's per-view fan-out, created on first parallel replay. Sharing
// one GOMAXPROCS-sized pool amortizes goroutine creation across the
// thousands of blocks a trace pass delivers and caps total replay
// concurrency at the machine regardless of how many sweeps run at
// once (sweepGroup fans workloads out on top of this).
var (
	replayPoolOnce sync.Once
	replayPool     *conc.Pool
)

func sharedReplayPool() *conc.Pool {
	replayPoolOnce.Do(func() { replayPool = conc.NewPool(0) })
	return replayPool
}

// blockDecoder turns instruction blocks into the packed access streams
// StackSweep replays: the unified interleaving (its own stream — order
// matters to LRU state), instruction lines (adjacent duplicates
// dropped, with the dedup state carried across blocks) and data lines
// (consecutive same-line accesses merged into runs). It builds only the
// streams of the selected views: instruction lines alone are the
// PC-line dedup loop.
type blockDecoder struct {
	lastILine uint64
	lineShift uint
	views     Views

	// Per-block scratch streams (unified, instruction, data), reused
	// across blocks.
	recs [3][]cache.Rec
}

// decode repacks one block, leaving the streams in recs (valid until
// the next call).
func (d *blockDecoder) decode(block []isa.Inst) {
	if d.views == ViewInst {
		d.decodeInst(block)
		return
	}
	uRecs, iRecs, dRecs := d.recs[0][:0], d.recs[1][:0], d.recs[2][:0]
	wantU, wantI, wantD := d.views.Has(ViewUnified), d.views.Has(ViewInst), d.views.Has(ViewData)
	wantMem := wantU || wantD
	last := d.lastILine
	shift := d.lineShift
	for k := range block {
		i := &block[k]
		if line := i.PC >> shift; line != last {
			last = line
			// Adjacent I records always name different lines (that is
			// the dedup), so no run merging is possible on the I side;
			// in the unified stream the preceding record can only be a
			// different I line or a data line from a disjoint region.
			rec := cache.PackRec(line, false)
			if wantI {
				iRecs = append(iRecs, rec)
			}
			if wantU {
				uRecs = append(uRecs, rec)
			}
		}
		if wantMem && (i.Op == isa.Load || i.Op == isa.Store) {
			line := i.Addr >> shift
			write := i.Op == isa.Store
			// Sequential scans revisit a 64-byte line several times in
			// a row; merging the run into one record makes the revisit
			// O(1) in every consumer replaying it (the line is MRU
			// after its first access — only counters can change).
			if wantD && (len(dRecs) == 0 || !cache.TryMerge(&dRecs[len(dRecs)-1], line, write)) {
				dRecs = append(dRecs, cache.PackRec(line, write))
			}
			if wantU && (len(uRecs) == 0 || !cache.TryMerge(&uRecs[len(uRecs)-1], line, write)) {
				uRecs = append(uRecs, cache.PackRec(line, write))
			}
		}
	}
	d.lastILine = last
	d.recs = [3][]cache.Rec{uRecs, iRecs, dRecs}
}

// decodeInst is decode for an instruction-only pass: the PC-line dedup
// without a branch on the data. Every line is written to the next free
// record, and the cursor moves past it only when it differs from the
// line before, so a repeat is overwritten by the next line.
func (d *blockDecoder) decodeInst(block []isa.Inst) {
	recs := slices.Grow(d.recs[1][:0], len(block))[:len(block)]
	last, shift, n := d.lastILine, d.lineShift, 0
	for k := range block {
		line := block[k].PC >> shift
		recs[n] = cache.PackRec(line, false)
		diff := line ^ last
		n += int((diff | -diff) >> 63) // 1 exactly when line != last
		last = line
	}
	d.lastILine = last
	d.recs[1] = recs[:n]
}
