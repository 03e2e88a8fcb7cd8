// Package branch implements the two branch-prediction organizations
// the paper contrasts in Table 4:
//
//   - TwoLevel: the Intel Atom D510 class — a two-level adaptive
//     predictor with a global history table, a 128-entry BTB and no
//     indirect predictor.
//   - Hybrid: the Intel Xeon E5645 class — a hybrid predictor combining
//     a two-level (gshare) component with a bimodal component and a
//     loop counter, an indirect-target predictor and an 8192-entry BTB.
//
// A predictor only reports mispredictions; what one costs (Table 4's
// 15 cycles on the Atom, 11-13 on the Xeon) is the pipeline's
// MispredictPenalty. The paper measures 7.8% average misprediction on
// the Atom and 2.8% on the Xeon for the representative big data
// workloads.
package branch

import "repro/internal/sim/isa"

// Predictor consumes each branch and reports whether the front end
// mispredicted it (wrong direction or unknown/wrong target).
type Predictor interface {
	// Name identifies the organization.
	Name() string
	// Access predicts and then trains on one branch instruction. It
	// returns mispredict when the direction (or an indirect/return
	// target) was wrong — a full pipeline flush — and redirect when
	// only the BTB lacked a taken branch's target, which costs a short
	// decode-time fetch bubble.
	Access(i *isa.Inst) (mispredict, redirect bool)
	// Stats returns cumulative predictor statistics.
	Stats() Stats
}

// Stats are cumulative counters exposed for the metric vector.
type Stats struct {
	// Branches counts all control transfers seen.
	Branches uint64
	// Mispredicts counts direction or target mispredictions.
	Mispredicts uint64
	// BTBMisses counts taken branches whose target was absent from
	// the BTB.
	BTBMisses uint64
	// Indirect counts indirect calls/jumps seen.
	Indirect uint64
	// MisCond, MisRet, MisInd break mispredictions down by branch
	// flavour (conditional direction, return, indirect target).
	MisCond, MisRet, MisInd uint64
}

// btb is a direct-mapped branch target buffer.
type btb struct {
	tags    []uint64
	targets []uint64
	mask    uint64
}

func newBTB(entries int) *btb {
	return &btb{
		tags:    make([]uint64, entries),
		targets: make([]uint64, entries),
		mask:    uint64(entries - 1),
	}
}

func (b *btb) lookup(pc uint64) (uint64, bool) {
	i := (pc >> 2) & b.mask
	if b.tags[i] == pc+1 {
		return b.targets[i], true
	}
	return 0, false
}

func (b *btb) insert(pc, target uint64) {
	i := (pc >> 2) & b.mask
	b.tags[i] = pc + 1
	b.targets[i] = target
}

// ras is a return address stack.
type ras struct {
	stack []uint64
	top   int
}

func newRAS(depth int) *ras { return &ras{stack: make([]uint64, depth)} }

func (r *ras) push(addr uint64) {
	r.stack[r.top%len(r.stack)] = addr
	r.top++
}

func (r *ras) pop() (uint64, bool) {
	if r.top == 0 {
		return 0, false
	}
	r.top--
	return r.stack[r.top%len(r.stack)], true
}

// counter updates a 2-bit saturating counter.
func bump(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	return c
}

// TwoLevel is the Atom-D510-class organization.
type TwoLevel struct {
	ghr     uint64
	histLen uint
	pht     []uint8
	mask    uint64
	btb     *btb
	ras     *ras
	stats   Stats
}

// NewTwoLevel builds the Atom-class predictor: 8 bits of global
// history, a 1024-entry pattern history table, a 128-entry BTB and an
// 8-deep RAS.
func NewTwoLevel() *TwoLevel {
	const phtEntries = 1024
	p := &TwoLevel{
		histLen: 8,
		pht:     make([]uint8, phtEntries),
		mask:    phtEntries - 1,
		btb:     newBTB(128),
		ras:     newRAS(8),
	}
	for i := range p.pht {
		p.pht[i] = 1 // weakly not-taken
	}
	return p
}

// Name implements Predictor.
func (p *TwoLevel) Name() string { return "two-level(D510)" }

// Stats implements Predictor.
func (p *TwoLevel) Stats() Stats { return p.stats }

// Access implements Predictor.
func (p *TwoLevel) Access(i *isa.Inst) (bool, bool) {
	p.stats.Branches++
	switch i.Kind {
	case isa.BrCond:
		idx := ((i.PC >> 2) ^ p.ghr) & p.mask
		pred := p.pht[idx] >= 2
		p.pht[idx] = bump(p.pht[idx], i.Taken)
		p.ghr = ((p.ghr << 1) | b2u(i.Taken)) & ((1 << p.histLen) - 1)
		mis := pred != i.Taken
		redirect := false
		if i.Taken {
			if tgt, ok := p.btb.lookup(i.PC); !ok || tgt != i.Target {
				p.stats.BTBMisses++
				redirect = true
			}
			p.btb.insert(i.PC, i.Target)
		}
		if mis {
			p.stats.Mispredicts++
			p.stats.MisCond++
		}
		return mis, redirect
	case isa.BrCall:
		p.ras.push(i.PC + isa.InstBytes)
		p.btb.insert(i.PC, i.Target)
		return false, false
	case isa.BrRet:
		tgt, ok := p.ras.pop()
		if !ok || tgt != i.Target {
			p.stats.Mispredicts++
			p.stats.MisRet++
			return true, false
		}
		return false, false
	case isa.BrIndirectCall, isa.BrIndirectJump:
		p.stats.Indirect++
		if i.Kind == isa.BrIndirectCall {
			p.ras.push(i.PC + isa.InstBytes)
		}
		// No indirect predictor: only the BTB's last target.
		tgt, ok := p.btb.lookup(i.PC)
		p.btb.insert(i.PC, i.Target)
		if !ok || tgt != i.Target {
			p.stats.BTBMisses++
			p.stats.Mispredicts++
			p.stats.MisInd++
			return true, false
		}
		return false, false
	default: // unconditional direct: decoder resolves the target
		p.btb.insert(i.PC, i.Target)
		return false, false
	}
}

// loopEntry tracks one loop branch for the loop predictor.
type loopEntry struct {
	tag   uint64
	limit uint32
	count uint32
	conf  uint8
}

// Hybrid is the Xeon-E5645-class organization.
type Hybrid struct {
	ghr      uint64
	histLen  uint
	gshare   []uint8
	bimodal  []uint8
	chooser  []uint8
	mask     uint64
	loops    []loopEntry
	loopMask uint64
	itc      *btb // indirect target cache
	btb      *btb
	ras      *ras
	stats    Stats
}

// NewHybrid builds the Xeon-class predictor: 14 bits of history,
// 16384-entry gshare/bimodal/chooser tables, a 64-entry loop
// predictor, a 512-entry indirect target cache, an 8192-entry BTB and
// a 16-deep RAS.
func NewHybrid() *Hybrid {
	const tableEntries = 16384
	h := &Hybrid{
		histLen:  14,
		gshare:   make([]uint8, tableEntries),
		bimodal:  make([]uint8, tableEntries),
		chooser:  make([]uint8, tableEntries),
		mask:     tableEntries - 1,
		loops:    make([]loopEntry, 64),
		loopMask: 63,
		itc:      newBTB(512),
		btb:      newBTB(8192),
		ras:      newRAS(16),
	}
	for i := range h.gshare {
		h.gshare[i] = 1
		h.bimodal[i] = 1
		h.chooser[i] = 1 // start from the bimodal component
	}
	return h
}

// Name implements Predictor.
func (h *Hybrid) Name() string { return "hybrid(E5645)" }

// Stats implements Predictor.
func (h *Hybrid) Stats() Stats { return h.stats }

// Access implements Predictor.
func (h *Hybrid) Access(i *isa.Inst) (bool, bool) {
	h.stats.Branches++
	switch i.Kind {
	case isa.BrCond:
		mis, redirect := h.cond(i)
		if mis {
			h.stats.Mispredicts++
			h.stats.MisCond++
		}
		return mis, redirect
	case isa.BrCall:
		h.ras.push(i.PC + isa.InstBytes)
		h.btb.insert(i.PC, i.Target)
		return false, false
	case isa.BrRet:
		tgt, ok := h.ras.pop()
		if !ok || tgt != i.Target {
			h.stats.Mispredicts++
			h.stats.MisRet++
			return true, false
		}
		return false, false
	case isa.BrIndirectCall, isa.BrIndirectJump:
		h.stats.Indirect++
		if i.Kind == isa.BrIndirectCall {
			h.ras.push(i.PC + isa.InstBytes)
		}
		tgt, ok := h.itc.lookup(i.PC)
		h.itc.insert(i.PC, i.Target)
		if !ok || tgt != i.Target {
			h.stats.BTBMisses++
			h.stats.Mispredicts++
			h.stats.MisInd++
			return true, false
		}
		return false, false
	default:
		h.btb.insert(i.PC, i.Target)
		return false, false
	}
}

func (h *Hybrid) cond(i *isa.Inst) (bool, bool) {
	pcIdx := (i.PC >> 2) & h.mask
	gIdx := ((i.PC >> 2) ^ h.ghr) & h.mask

	gPred := h.gshare[gIdx] >= 2
	bPred := h.bimodal[pcIdx] >= 2
	pred := bPred
	if h.chooser[pcIdx] >= 2 {
		pred = gPred
	}

	// Loop predictor override: when a loop branch has a confidently
	// learned trip count, predict the exit exactly.
	le := &h.loops[(i.PC>>2)&h.loopMask]
	if le.tag == i.PC+1 && le.conf >= 2 && le.limit > 0 {
		// Predict taken for the first `limit` executions of the loop
		// branch, not-taken on the exit.
		pred = le.count < le.limit
	}

	// Train direction tables.
	if gPred != bPred {
		h.chooser[pcIdx] = bump(h.chooser[pcIdx], gPred == i.Taken)
	}
	h.gshare[gIdx] = bump(h.gshare[gIdx], i.Taken)
	h.bimodal[pcIdx] = bump(h.bimodal[pcIdx], i.Taken)
	h.ghr = ((h.ghr << 1) | b2u(i.Taken)) & ((1 << h.histLen) - 1)

	// Train loop predictor.
	if le.tag != i.PC+1 {
		*le = loopEntry{tag: i.PC + 1}
	}
	if i.Taken {
		le.count++
		if le.limit > 0 && le.count > le.limit {
			le.conf = 0
			le.limit = 0
		}
	} else {
		if le.limit == le.count && le.limit > 0 {
			if le.conf < 3 {
				le.conf++
			}
		} else {
			le.limit = le.count
			le.conf = 0
		}
		le.count = 0
	}

	mis := pred != i.Taken
	redirect := false
	if i.Taken {
		if tgt, ok := h.btb.lookup(i.PC); !ok || tgt != i.Target {
			h.stats.BTBMisses++
			// A cold target costs a decode-time fetch bubble, not a
			// full flush: the front end recovers as soon as the
			// decoder computes the direct target.
			redirect = true
		}
		h.btb.insert(i.PC, i.Target)
	}
	return mis, redirect
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
