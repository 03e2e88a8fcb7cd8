// Package pipeline implements a cycle-approximate processor timing
// model driven by the dynamic instruction stream.
//
// The model is a greedy dataflow scheduler in the style of interval
// analysis: each instruction is fetched subject to front-end bandwidth
// and stalls (instruction-cache misses, ITLB walks, branch
// misprediction redirects), dispatched subject to window (ROB)
// occupancy, executed when its register operands are ready (loads pay
// the latency of the cache level that served them), and committed
// subject to commit bandwidth. Cycles are the final commit time; IPC,
// front-end stall attribution, ILP and MLP fall out of the schedule.
//
// Two configurations reproduce the paper's platforms: a 4-wide
// out-of-order Xeon-E5645-class core and a 2-wide in-order
// Atom-D510-class core.
package pipeline

import "repro/internal/sim/isa"

// Config describes a core.
type Config struct {
	// FetchWidth is instructions fetched per cycle.
	FetchWidth int
	// CommitWidth is instructions committed per cycle.
	CommitWidth int
	// Window is the reorder-buffer capacity; with InOrder it acts as a
	// small in-flight buffer.
	Window int
	// InOrder forces program-order issue (execution may still overlap
	// through latency, as on the dual-issue Atom).
	InOrder bool
	// MispredictPenalty is the redirect penalty in cycles.
	MispredictPenalty int

	// Execution latencies in cycles.
	IntLat, MulLat, DivLat, FPLat, FPDivLat int
	// LoadLat maps the hit level (1..4: L1, L2, L3, memory) to load
	// latency, and to the fill latency of an instruction fetch served
	// there; index 0 is unused. It is the model's only cache latency
	// table.
	LoadLat [5]int
}

// Model is the running pipeline state for one core. Construct with New;
// one Model serves one workload run.
type Model struct {
	cfg Config

	ready [isa.NumRegs]uint64 // register ready cycle
	rob   []uint64            // ring buffer of commit cycles
	robAt int
	// robEmpty counts the dispatches still to come that must see an
	// empty window after a misprediction flush. The flush itself
	// stores nothing: the slots those dispatches read are each
	// rewritten by their own commit before any later dispatch reads
	// them, and the flushing instruction's commit lands in its own
	// slot, so a flush leaves Window-1 reads to answer as empty.
	robEmpty int

	nextFetchCycle uint64
	fetchedInCycle int

	lastCommitCycle uint64
	commitsInCycle  int

	lastExecStart uint64 // in-order issue constraint

	// dataflow chain depth (unit latency) for the windowed ILP metric
	depth      [isa.NumRegs]uint64
	maxDepth   uint64
	winStart   uint64 // maxDepth at the start of the current window
	winInsts   uint64
	chainTotal uint64 // accumulated per-window critical-path lengths

	// outstanding long-latency load tracking for the MLP metric
	missEnds [16]uint64
	missAt   int

	// Statistics.
	Insts  uint64
	Cycles uint64
	// Stall attribution in cycles.
	IMissStall, ITLBStall, MispredictStall uint64
	// MLP accumulators: sum of overlapping long-latency loads observed
	// at each long-latency load issue, and their count.
	MLPSum, MLPCount uint64
}

// Event is what the timing model learns about one instruction from the
// memory system and the branch predictor. Neither depends on timing,
// so a caller can run them over a whole block first and hand the
// model the block's events in one StepBlock call.
type Event struct {
	// FrontExtra is the extra front-end cycles: translation (0 on a
	// first-level TLB hit, small on an STLB hit, the full walk on an
	// STLB miss) plus any BTB redirect bubble.
	FrontExtra int
	// DTLBExtra is the data translation's extra cycles, likewise.
	DTLBExtra int
	// ILevel is the cache level that served the fetch and DLevel the
	// one that served the data access (0 if none), 1..4 for L1, L2, L3
	// and memory.
	ILevel, DLevel uint8
	// Mispredict reports the branch outcome.
	Mispredict bool
}

// New constructs a pipeline model.
func New(cfg Config) *Model {
	if cfg.Window < 1 {
		cfg.Window = 1
	}
	return &Model{cfg: cfg, rob: make([]uint64, cfg.Window)}
}

// Config returns the core configuration.
func (m *Model) Config() Config { return m.cfg }

// StepBlock advances the model over a block of instructions, events[k]
// describing block[k]. The scalar state lives in locals for the whole
// block instead of being loaded from and stored to the Model for every
// instruction.
func (m *Model) StepBlock(block []isa.Inst, events []Event) {
	if len(block) == 0 {
		return
	}
	cfg := &m.cfg
	events = events[:len(block)]
	ready, depth, missEnds := &m.ready, &m.depth, &m.missEnds
	rob, robAt, robEmpty := m.rob, m.robAt, m.robEmpty
	window := len(rob)
	nextFetch, fetched := m.nextFetchCycle, m.fetchedInCycle
	lastCommit, commits := m.lastCommitCycle, m.commitsInCycle
	lastExec := m.lastExecStart
	maxDepth, winStart, winInsts, chainTotal := m.maxDepth, m.winStart, m.winInsts, m.chainTotal
	missAt := m.missAt
	imissStall, itlbStall, mispredictStall := m.IMissStall, m.ITLBStall, m.MispredictStall
	mlpSum, mlpCount := m.MLPSum, m.MLPCount
	fetchWidth, commitWidth, inOrder := cfg.FetchWidth, cfg.CommitWidth, cfg.InOrder
	penalty := uint64(cfg.MispredictPenalty)
	var c uint64
	for k := range block {
		i, ev := &block[k], &events[k]

		// --- Fetch ---
		if fetched >= fetchWidth {
			nextFetch++
			fetched = 0
		}
		fc := nextFetch
		if ev.ILevel > 1 {
			// The decoupled fetch queue absorbs part of an instruction
			// fill: decode keeps draining buffered instructions while
			// the miss is outstanding, so only ~60% of the fill latency
			// is exposed.
			stall := uint64(fillLatency(cfg, int(ev.ILevel))) * 3 / 5
			fc += stall
			imissStall += stall
			nextFetch = fc
			fetched = 0
		}
		if ev.FrontExtra > 0 {
			stall := uint64(ev.FrontExtra)
			fc += stall
			itlbStall += stall
			nextFetch = fc
			fetched = 0
		}
		fetched++

		// --- Dispatch: window occupancy ---
		dispatch := fc
		if robEmpty > 0 {
			robEmpty--
		} else if oldest := rob[robAt]; oldest > dispatch {
			dispatch = oldest
		}

		// --- Execute: operand readiness ---
		start := dispatch
		if r := ready[i.Src1]; r > start {
			start = r
		}
		if r := ready[i.Src2]; r > start {
			start = r
		}
		if inOrder {
			if lastExec > start {
				start = lastExec
			}
			lastExec = start
		}
		dlevel := int(ev.DLevel)
		done := start + latency(cfg, i.Op, dlevel, ev.DTLBExtra)

		if i.Dst != isa.NoReg {
			ready[i.Dst] = done
			d := depth[i.Src1]
			if depth[i.Src2] > d {
				d = depth[i.Src2]
			}
			d++
			depth[i.Dst] = d
			if d > maxDepth {
				maxDepth = d
			}
		}
		winInsts++
		if winInsts == ilpWindow {
			grow := maxDepth - winStart
			if grow == 0 {
				grow = 1
			}
			chainTotal += grow
			winStart = maxDepth
			winInsts = 0
		}

		// MLP: long-latency loads overlapping in flight.
		if i.Op == isa.Load && dlevel >= 3 {
			overlap := uint64(1)
			for _, end := range missEnds {
				if end > start {
					overlap++
				}
			}
			missEnds[missAt] = done
			missAt = (missAt + 1) % len(missEnds)
			mlpSum += overlap
			mlpCount++
		}

		// --- Branch resolution ---
		if ev.Mispredict {
			// The redirect waits for the branch to resolve, but a real
			// out-of-order core hides most of a long resolution
			// (branches resolve early out of the scheduler and
			// wrong-path fetch overlaps), so the exposed wait beyond
			// fetch is bounded; and the flush empties the window, so
			// earlier back-pressure does not also charge the redirect.
			resolve := done
			const maxExposedResolution = 30
			if resolve > fc+maxExposedResolution {
				resolve = fc + maxExposedResolution
			}
			redirect := resolve + penalty
			if redirect > nextFetch {
				mispredictStall += redirect - nextFetch
				nextFetch = redirect
				fetched = 0
			}
			// Flush: the window is empty after a misprediction.
			robEmpty = window - 1
		}

		// --- Commit ---
		c = done
		if c < lastCommit {
			c = lastCommit
		}
		if c == lastCommit {
			commits++
			if commits > commitWidth {
				c++
				commits = 1
			}
		} else {
			commits = 1
		}
		lastCommit = c

		rob[robAt] = c
		if robAt++; robAt == window {
			robAt = 0
		}
	}
	m.robAt, m.robEmpty = robAt, robEmpty
	m.nextFetchCycle, m.fetchedInCycle = nextFetch, fetched
	m.lastCommitCycle, m.commitsInCycle = lastCommit, commits
	m.lastExecStart = lastExec
	m.maxDepth, m.winStart, m.winInsts, m.chainTotal = maxDepth, winStart, winInsts, chainTotal
	m.missAt = missAt
	m.IMissStall, m.ITLBStall, m.MispredictStall = imissStall, itlbStall, mispredictStall
	m.MLPSum, m.MLPCount = mlpSum, mlpCount
	m.Insts += uint64(len(block))
	m.Cycles = c
}

func latency(cfg *Config, op isa.Op, dlevel, dtlbExtra int) uint64 {
	var lat int
	switch op {
	case isa.Load:
		lat = cfg.LoadLat[dlevel] + dtlbExtra
	case isa.Store:
		// Stores retire through the store buffer; they occupy a slot
		// but do not stall dependents in this model.
		lat = 1 + dtlbExtra
	case isa.IntMul:
		lat = cfg.MulLat
	case isa.IntDiv:
		lat = cfg.DivLat
	case isa.FPArith:
		lat = cfg.FPLat
	case isa.FPDiv:
		lat = cfg.FPDivLat
	default:
		lat = cfg.IntLat
	}
	if lat < 1 {
		lat = 1
	}
	return uint64(lat)
}

func fillLatency(cfg *Config, level int) int {
	if level <= 1 {
		return 0
	}
	return cfg.LoadLat[level]
}

// IPC returns retired instructions per cycle.
func (m *Model) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Insts) / float64(m.Cycles)
}

// FrontStall returns the fraction of cycles lost to front-end events
// (instruction misses, ITLB walks, mispredict redirects).
func (m *Model) FrontStall() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.IMissStall+m.ITLBStall+m.MispredictStall) / float64(m.Cycles)
}

// ilpWindow is the instruction window over which dataflow parallelism
// is measured (matching the modelled ROB capacity).
const ilpWindow = 128

// ILP returns the windowed dataflow parallelism of the observed
// stream: for each 128-instruction window, the window size divided by
// the unit-latency critical-path growth inside it, averaged over the
// run. This is the classic limit-study ILP bounded to a realistic
// scheduling window.
func (m *Model) ILP() float64 {
	windows := m.Insts / ilpWindow
	if windows == 0 || m.chainTotal == 0 {
		return 1
	}
	return float64(windows) * ilpWindow / float64(m.chainTotal)
}

// MLP returns the mean number of overlapping long-latency loads
// observed at long-latency load issue (1.0 if none overlapped).
func (m *Model) MLP() float64 {
	if m.MLPCount == 0 {
		return 1
	}
	return float64(m.MLPSum) / float64(m.MLPCount)
}
