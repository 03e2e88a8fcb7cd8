// Package machine composes the cache hierarchy, TLBs, branch predictor
// and pipeline into a full per-core performance model that consumes an
// instrumented instruction stream (trace.Probe) and exposes the raw
// counters from which the 45-metric characterization vector is derived.
package machine

import (
	"repro/internal/sim/branch"
	"repro/internal/sim/cache"
	"repro/internal/sim/isa"
	"repro/internal/sim/mem"
	"repro/internal/sim/pipeline"
	"repro/internal/sim/tlb"
)

// PredictorKind selects a branch predictor organization.
type PredictorKind int

const (
	// PredHybrid is the Xeon-E5645-class hybrid predictor.
	PredHybrid PredictorKind = iota
	// PredTwoLevel is the Atom-D510-class two-level predictor.
	PredTwoLevel
)

// Config describes a complete modelled node. One core of it is
// simulated; Cores and PeakFlopsPerCycle describe the node for Table 3,
// the system model and Fig. 1's peak GFLOPS.
type Config struct {
	// Name labels the machine model in reports.
	Name string
	// FreqHz is the core clock.
	FreqHz float64
	// Cores is the socket core count.
	Cores int
	// PeakFlopsPerCycle is the per-core FP issue capability used for
	// the paper's peak-GFLOPS observation (§5.1 implications).
	PeakFlopsPerCycle int

	// L1I..L3 are the cache geometries; a zero L3 means none. What a
	// hit at each level costs is Pipe.LoadLat.
	L1I, L1D, L2, L3 cache.Config
	// ITLB and DTLB are the first-level TLBs. The second level and the
	// page walk behind it are the same on every machine (stlbConfig,
	// stlbHitLatency, walkLatency).
	ITLB, DTLB tlb.Config
	Predictor  PredictorKind
	Pipe       pipeline.Config
}

// Counters aggregates the per-run events not already counted inside
// the sub-models.
type Counters struct {
	Insts      uint64
	ByOp       [isa.NumOps]uint64
	Branches   uint64
	Taken      uint64
	Mispredict uint64
	LoadBytes  uint64
	StoreBytes uint64
	// ITLBWalks and DTLBWalks count translations that missed both TLB
	// levels (completed page walks — the events behind Fig. 5's MPKI).
	ITLBWalks, DTLBWalks uint64
}

// Machine is one modelled core plus its memory system. It implements
// trace.Probe. Construct with New; one Machine serves one workload run.
type Machine struct {
	Cfg  Config
	H    *cache.Hierarchy
	ITLB *tlb.TLB
	DTLB *tlb.TLB
	STLB *tlb.TLB
	BP   branch.Predictor
	Pipe *pipeline.Model
	C    Counters

	codeLines bitmap // touched text-segment cache lines
	dataPages bitmap // touched heap/stack pages
	// lastCode and lastPage are the code line and data page whose
	// footprint bits were set last; a repeat needs no bitmap store.
	// Their zero values name addresses below every tracked region.
	lastCode, lastPage uint64

	events []pipeline.Event // pass 1's per-block output, reused
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	var bp branch.Predictor
	switch cfg.Predictor {
	case PredTwoLevel:
		bp = branch.NewTwoLevel()
	default:
		bp = branch.NewHybrid()
	}
	m := &Machine{
		Cfg:  cfg,
		H:    cache.NewHierarchy(cfg.L1I, cfg.L1D, cfg.L2, cfg.L3),
		ITLB: tlb.New(cfg.ITLB),
		DTLB: tlb.New(cfg.DTLB),
		STLB: tlb.New(stlbConfig),
		BP:   bp,
		Pipe: pipeline.New(cfg.Pipe),
	}
	m.codeLines = newBitmap((mem.CodeLimit - mem.CodeBase) / mem.LineSize)
	m.dataPages = newBitmap((mem.HeapLimit - mem.HeapBase) / mem.PageSize)
	return m
}

// Inst implements trace.Probe: InstBlock over a block of one.
func (m *Machine) Inst(i *isa.Inst) { m.InstBlock([]isa.Inst{*i}) }

// InstBlock implements trace.BlockProbe in two passes. The memory
// system and the branch predictor never depend on timing, so pass 1
// runs the caches, TLBs, predictor, event counters and footprint bits
// over the whole block, recording one pipeline.Event per instruction,
// and pass 2 runs the timing model over the block in one
// pipeline.StepBlock call. Every model sees the same calls in the same
// order as per-instruction delivery, so state and counters are
// bit-identical whatever the block size.
//
// Pass 1 checks the inlinable repeat paths (cache.Cache.Repeat,
// tlb.TLB.Repeat) before each full first-level lookup: most fetches,
// and many data accesses, fall in the previous access's line or page.
// A repeat hit at L1 is exactly what Fetch or Data would return, with
// no prefetch, since both prefetch only after an L1 miss.
func (m *Machine) InstBlock(block []isa.Inst) {
	if len(block) == 0 {
		return
	}
	if cap(m.events) < len(block) {
		m.events = make([]pipeline.Event, len(block))
	}
	events := m.events[:len(block)]
	h, itlb, dtlb, stlb, bp := m.H, m.ITLB, m.DTLB, m.STLB, m.BP
	l1i, l1d := h.L1I, h.L1D
	lastCode, lastPage := m.lastCode, m.lastPage
	var byOp [isa.NumOps]uint64
	var taken, mispredicts uint64
	var loadBytes, storeBytes uint64
	var itlbWalks, dtlbWalks uint64
	for k := range block {
		i, ev := &block[k], &events[k]
		byOp[i.Op]++

		pc := i.PC
		ilevel := cache.LvlL1
		if !l1i.Repeat(pc, false) {
			ilevel = h.Fetch(pc)
		}
		frontExtra := 0
		if !itlb.Repeat(pc) && itlb.Access(pc) {
			if stlb.Access(pc) {
				frontExtra = walkLatency
				itlbWalks++
			} else {
				frontExtra = stlbHitLatency
			}
		}
		if line := pc / mem.LineSize; line != lastCode {
			lastCode = line
			if pc >= mem.CodeBase && pc < mem.CodeLimit {
				m.codeLines.set((pc - mem.CodeBase) / mem.LineSize)
			}
		}

		mispredict := false
		if i.Op == isa.Branch {
			if i.Taken {
				taken++
			}
			var redirect bool
			mispredict, redirect = bp.Access(i)
			if mispredict {
				mispredicts++
			}
			if redirect {
				frontExtra += btbRedirectCycles
			}
		}

		dlevel := 0
		dtlbExtra := 0
		if i.Op == isa.Load || i.Op == isa.Store {
			addr, store := i.Addr, i.Op == isa.Store
			dlevel = cache.LvlL1
			if !l1d.Repeat(addr, store) {
				dlevel = h.Data(addr, store)
			}
			if !dtlb.Repeat(addr) && dtlb.Access(addr) {
				if stlb.Access(addr) {
					dtlbExtra = walkLatency
					dtlbWalks++
				} else {
					dtlbExtra = stlbHitLatency
				}
			}
			if store {
				storeBytes += uint64(i.Size)
			} else {
				loadBytes += uint64(i.Size)
			}
			if page := addr / mem.PageSize; page != lastPage {
				lastPage = page
				if addr >= mem.HeapBase && addr < mem.HeapLimit {
					m.dataPages.set((addr - mem.HeapBase) / mem.PageSize)
				}
			}
		}

		// Field stores, not a composite literal: the literal is built
		// on the stack and copied.
		ev.FrontExtra, ev.DTLBExtra = frontExtra, dtlbExtra
		ev.ILevel, ev.DLevel, ev.Mispredict = uint8(ilevel), uint8(dlevel), mispredict
	}
	m.lastCode, m.lastPage = lastCode, lastPage
	c := &m.C
	c.Insts += uint64(len(block))
	for op, n := range byOp {
		c.ByOp[op] += n
	}
	c.Branches += byOp[isa.Branch]
	c.Taken += taken
	c.Mispredict += mispredicts
	c.LoadBytes += loadBytes
	c.StoreBytes += storeBytes
	c.ITLBWalks += itlbWalks
	c.DTLBWalks += dtlbWalks

	m.Pipe.StepBlock(block, events)
}

// stlbConfig is the second-level TLB of every modelled machine, whose
// coverage is what keeps real-world TLB walk rates low.
var stlbConfig = tlb.Config{Name: "STLB", Entries: 512, Ways: 4}

// stlbHitLatency is the extra latency of a first-level TLB miss that
// hits the second-level TLB.
const stlbHitLatency = 7

// walkLatency is the extra latency of a translation that misses both
// TLB levels: a page walk.
const walkLatency = 25

// btbRedirectCycles is the decode-time fetch bubble when a taken
// branch's target was absent from the BTB.
const btbRedirectCycles = 3

// Finish completes end-of-run accounting. Call once before reading
// counters or deriving metrics.
func (m *Machine) Finish() {
	m.H.FinishWritebacks()
}

// CodeFootprintBytes returns the bytes of distinct text-segment cache
// lines touched — the instruction footprint the paper discusses in
// §5.4 (Hadoop ≈ 1 MB vs PARSEC ≈ 128 KB).
func (m *Machine) CodeFootprintBytes() uint64 {
	return m.codeLines.count() * mem.LineSize
}

// DataFootprintBytes returns the bytes of distinct data pages touched.
func (m *Machine) DataFootprintBytes() uint64 {
	return m.dataPages.count() * mem.PageSize
}

// bitmap is a fixed-size bit set.
type bitmap []uint64

func newBitmap(bits uint64) bitmap {
	return make(bitmap, (bits+63)/64)
}

func (b bitmap) set(i uint64) {
	w := i / 64
	if w < uint64(len(b)) {
		b[w] |= 1 << (i % 64)
	}
}

func (b bitmap) count() uint64 {
	var n uint64
	for _, w := range b {
		n += uint64(popcount(w))
	}
	return n
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
