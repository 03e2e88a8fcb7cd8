package machine

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/conc"
	"repro/internal/sim/cache"
	"repro/internal/sim/isa"
)

// replayPool is the process-wide worker pool behind every sweep's
// per-block cache fan-out, created on first parallel replay. Sharing
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

// Sweep reproduces the methodology of the paper's locality study
// (§5.4, Fig. 6-9): an Atom-like in-order core with a two-level cache
// whose L1 capacity is varied from 16 KB to 8192 KB while the miss
// ratio is recorded. One Sweep evaluates all sizes in a single trace
// pass by maintaining an independent cache per size for each of the
// three views: instruction-only, data-only, and unified
// (instructions + data, Fig. 8).
//
// Sweep implements both trace.Probe (the retained per-instruction
// reference: every cache accessed inline, instruction by instruction)
// and trace.BlockProbe (the hot path: each block is decoded once into
// packed access streams, then the 30 caches replay those streams via
// cache.AccessBlock, fanned out across a bounded worker pool). The two
// paths produce bit-identical curves by construction — every cache
// sees the identical access sequence either way; the block path only
// changes when it looks.
type Sweep struct {
	// SizesKB lists the evaluated L1 capacities.
	SizesKB []int

	// Parallelism bounds the per-cache fan-out of block replay:
	// 1 replays serially in the calling goroutine; other values fan
	// the caches out across a shared process-wide worker pool (sized
	// by GOMAXPROCS) with at most Parallelism replays in flight for
	// this sweep (0 = no per-sweep bound beyond the pool). The caches
	// are independent, so every setting yields the same curves.
	Parallelism int

	icaches []*cache.Cache
	dcaches []*cache.Cache
	ucaches []*cache.Cache

	blockDecoder
}

// blockDecoder turns instruction blocks into the three packed access
// streams every sweep engine replays: instruction lines (adjacent
// duplicates dropped, with the dedup state carried across blocks),
// data lines (consecutive same-line accesses merged into runs) and the
// unified interleaving (its own stream — order matters to LRU state).
// Sweep and StackSweep share it, so the two engines consume
// byte-identical streams by construction.
type blockDecoder struct {
	lastILine uint64
	lineShift uint

	// Per-block scratch streams, reused across blocks.
	iRecs, dRecs, uRecs []cache.Rec
}

// decode repacks one block, leaving the streams in iRecs/dRecs/uRecs
// (valid until the next call).
func (d *blockDecoder) decode(block []isa.Inst) {
	iRecs, dRecs, uRecs := d.iRecs[:0], d.dRecs[:0], d.uRecs[:0]
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
			iRecs = append(iRecs, rec)
			uRecs = append(uRecs, rec)
		}
		if i.Op == isa.Load || i.Op == isa.Store {
			line := i.Addr >> shift
			write := i.Op == isa.Store
			// Sequential scans revisit a 64-byte line several times in
			// a row; merging the run into one record makes the revisit
			// O(1) in every consumer replaying it (the line is MRU
			// after its first access — only counters can change).
			if len(dRecs) == 0 || !cache.TryMerge(&dRecs[len(dRecs)-1], line, write) {
				dRecs = append(dRecs, cache.PackRec(line, write))
			}
			if len(uRecs) == 0 || !cache.TryMerge(&uRecs[len(uRecs)-1], line, write) {
				uRecs = append(uRecs, cache.PackRec(line, write))
			}
		}
	}
	d.lastILine = last
	d.iRecs, d.dRecs, d.uRecs = iRecs, dRecs, uRecs
}

// DefaultSweepSizesKB are the paper's ten L1 capacities.
var DefaultSweepSizesKB = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// Default sweep-cache geometry (the paper's simulator configuration).
// The sweep's lineShift — log2 of the line size — packs line addresses
// once per access in the block decoder instead of letting every cache
// re-shift the byte address.
const (
	DefaultSweepWays      = 8
	DefaultSweepLineBytes = 64
)

// NewSweep builds a sweep over the given sizes (8-way, 64-byte lines
// per the paper's simulator configuration).
func NewSweep(sizesKB []int) *Sweep {
	s, err := NewSweepSpec(sizesKB, 0, 0)
	if err != nil {
		panic("machine: " + err.Error()) // default geometry is always valid
	}
	return s
}

// NewSweepSpec is NewSweep with the cache geometry overridable — the
// concrete-cache reference the stack-distance engine is tested
// against at non-paper associativities and line sizes. ways and
// lineBytes of 0 select the defaults (8 ways, 64-byte lines);
// CheckSweep rejects, never rounds, a geometry it cannot build, and
// ways beyond cache.MaxWays are rejected too (the stack-distance
// engine has no such cap).
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
	s := &Sweep{SizesKB: sizesKB, blockDecoder: blockDecoder{lineShift: uint(bits.TrailingZeros(uint(lineBytes)))}}
	for _, kb := range sizesKB {
		cfg := cache.Config{Size: kb << 10, Ways: ways, LineSize: lineBytes, Latency: 1}
		cfg.Name = "sweepI"
		s.icaches = append(s.icaches, cache.New(cfg))
		cfg.Name = "sweepD"
		s.dcaches = append(s.dcaches, cache.New(cfg))
		cfg.Name = "sweepU"
		s.ucaches = append(s.ucaches, cache.New(cfg))
	}
	return s, nil
}

// Inst implements trace.Probe — the retained serial reference.
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

// InstBlock implements trace.BlockProbe. Stage one decodes the block
// exactly once into three packed access streams — I-line dedup and
// same-line run merging applied here, once, instead of per cache —
// and stage two fans the 30 caches out across the worker pool, each
// replaying its view's stream through cache.AccessBlock. The streams
// are read-only during the fan-out and each cache is owned by exactly
// one worker, so the replay is deterministic under any schedule.
func (s *Sweep) InstBlock(block []isa.Inst) {
	s.decode(block)
	iRecs, dRecs, uRecs := s.iRecs, s.dRecs, s.uRecs

	n := len(s.icaches)
	par := s.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par == 1 {
		// Serial replay skips the pool; still one AccessBlock per
		// cache per block, which is where the batching win lives.
		for k := 0; k < n; k++ {
			s.icaches[k].AccessBlock(iRecs)
		}
		for k := 0; k < n; k++ {
			s.dcaches[k].AccessBlock(dRecs)
		}
		for k := 0; k < n; k++ {
			s.ucaches[k].AccessBlock(uRecs)
		}
		return
	}
	sharedReplayPool().ForEachN(par, 3*n, func(k int) {
		switch k / n {
		case 0:
			s.icaches[k%n].AccessBlock(iRecs)
		case 1:
			s.dcaches[k%n].AccessBlock(dRecs)
		default:
			s.ucaches[k%n].AccessBlock(uRecs)
		}
	})
}

// Curves bundles the three per-size miss-ratio views a single Sweep
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
		Inst:    s.InstMissRatios(),
		Data:    s.DataMissRatios(),
		Unified: s.UnifiedMissRatios(),
	}
}

// InstMissRatios returns the instruction-cache miss ratio per size.
func (s *Sweep) InstMissRatios() []float64 { return ratios(s.icaches) }

// DataMissRatios returns the data-cache miss ratio per size.
func (s *Sweep) DataMissRatios() []float64 { return ratios(s.dcaches) }

// UnifiedMissRatios returns the unified-cache miss ratio per size.
func (s *Sweep) UnifiedMissRatios() []float64 { return ratios(s.ucaches) }

func ratios(cs []*cache.Cache) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.MissRatio()
	}
	return out
}
