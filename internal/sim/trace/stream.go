package trace

import (
	"math"
	"sync"

	"repro/internal/sim/isa"
	"repro/internal/xrand"
)

// Mix describes the statistical composition of a synthetic instruction
// stream. It is the modelling vocabulary for code we do not emit
// semantically: software-stack framework paths (RPC, serialization,
// task bookkeeping) and the comparator-suite mini-kernels.
//
// The class fields are fractions in [0,1]; whatever they leave of the
// unit interval is emitted as plain IntAlu computation.
type Mix struct {
	Load    float32 // fraction of loads
	Store   float32 // fraction of stores
	Branch  float32 // fraction of branches
	IntAddr float32 // fraction of integer address calculations
	FPAddr  float32 // fraction of FP address calculations
	FPArith float32 // fraction of FP arithmetic
	IntMul  float32 // fraction of integer multiplies
	IntDiv  float32 // fraction of integer divides

	// Taken is the per-branch-site probability that a branch site is a
	// taken branch. Each site's outcome is derived from its PC, so the
	// same site behaves consistently across executions — which is what
	// makes framework code predictable to the branch predictors.
	Taken float32
	// Noise is the fraction of branch executions whose outcome is
	// random per execution (data-dependent, unpredictable) instead of
	// the per-site outcome.
	Noise float32
	// Chain is the probability that an operation consumes the previous
	// operation's result, the knob for instruction-level parallelism:
	// Chain near 1 serialises the stream, near 0 makes it wide.
	Chain float32
	// CallEvery, if non-zero, emits an indirect call + return around
	// every CallEvery-th instruction group, modelling virtual dispatch
	// (JVM stacks, xalancbmk-style code).
	CallEvery int
}

// Walk generates a data-address sequence over a memory region:
// sequential with a stride, uniformly random, or cluster-random
// (random page jumps with several strided accesses per cluster — the
// pattern of object-graph traversal, which is what keeps real TLB miss
// rates far below one-miss-per-access). Walks carry their own cursor
// so interleaved streams don't disturb each other.
type Walk struct {
	Base   uint64
	Size   uint64
	Stride uint64
	Random bool
	// ClusterLen > 0 enables cluster-random mode: a random jump every
	// ClusterLen accesses, strided accesses in between.
	ClusterLen int
	pos        uint64
	left       int // cluster mode: accesses before the next jump
}

// NewWalk returns a sequential walk with the given stride (0 means 8).
func NewWalk(base, size, stride uint64) *Walk {
	if stride == 0 {
		stride = 8
	}
	return &Walk{Base: base, Size: size, Stride: stride}
}

// NewRandomWalk returns a uniformly random walk over [base, base+size).
func NewRandomWalk(base, size uint64) *Walk {
	return &Walk{Base: base, Size: size, Random: true, Stride: 8}
}

// NewClusterWalk returns a cluster-random walk: every clusterLen
// accesses it jumps to a random position, and advances by stride in
// between.
func NewClusterWalk(base, size, stride uint64, clusterLen int) *Walk {
	if stride == 0 {
		stride = 64
	}
	return &Walk{Base: base, Size: size, Stride: stride, ClusterLen: clusterLen}
}

// Next returns the next address of the walk.
func (w *Walk) Next(r *xrand.Rand) uint64 {
	if w.sequential() {
		return w.stepSeq()
	}
	a, st := w.stepRandom(r.State())
	r.Seed(st)
	return a
}

// sequential reports whether the walk draws nothing: Next is then
// stepSeq.
func (w *Walk) sequential() bool { return !w.Random && w.ClusterLen <= 0 && w.Size > 0 }

// stepSeq steps a sequential walk. It is small enough to inline into
// Stream.Emit's loop; the cursor stays below Size unless Size shrank,
// so the reduction is only a guard.
func (w *Walk) stepSeq() uint64 {
	p := w.pos
	if p >= w.Size {
		p %= w.Size
	}
	if w.pos += w.Stride; w.pos >= w.Size {
		w.pos = 0
	}
	return w.Base + p
}

// stepRandom steps the uniform and cluster-random modes (and the empty
// walk) on a generator state held outside a Rand, returning the
// address and the advanced state. It divides only where the result
// can differ from a mask or the value itself: a power-of-two size
// reduces a draw with a mask, and a cluster's cursor is reduced only
// once it passes the end.
func (w *Walk) stepRandom(st uint64) (uint64, uint64) {
	size := w.Size
	if size == 0 {
		return w.Base, st
	}
	var u uint64
	if w.Random {
		st, u = xrand.Step(st)
		return w.Base + (reduce(u, size) &^ 7), st
	}
	if w.left <= 0 {
		st, u = xrand.Step(st)
		w.pos = reduce(u, size) &^ 7
		w.left = w.ClusterLen
	}
	w.left--
	p := w.pos
	if p >= size {
		p %= size
	}
	w.pos += w.Stride
	return w.Base + p, st
}

// reduce returns u % n for n > 0, with a mask when n is a power of two.
func reduce(u, n uint64) uint64 {
	if n&(n-1) == 0 {
		return u & (n - 1)
	}
	return u % n
}

// Stream emits synthetic instructions matching a Mix, walking the PCs
// of a routine and the addresses of one or two data Walks.
//
// Everything about an instruction that is a pure function of its PC
// (its class, a branch site's taken bit and skip distance) is read
// from the routine's slot table (see slotTable); only the data
// addresses, the dependency chain and branch noise draw from Rng.
type Stream struct {
	Mix Mix
	// Pri is the primary data walk (mandatory if the mix has memory
	// operations); Sec an optional secondary walk used with
	// probability SecP; Far an optional far-heap walk used with
	// probability FarP (checked first).
	Pri  *Walk
	Sec  *Walk
	SecP float32
	Far  *Walk
	FarP float32
	// Rng draws the dependency chains, branch noise, the choice of
	// walk and random walk positions. Mandatory.
	Rng *xrand.Rand

	// cuts are Mix, SecP and FarP as integer cut points, recomputed
	// whenever one of them changes. The zero value is the cut points
	// of the zero Mix.
	cuts cuts
}

// cuts holds a Stream's probabilities as exact integer cut points
// (see cutPoint): class and taken over the 16-bit PC hashes, the rest
// over the 24-bit draws Rand.Float32 makes.
type cuts struct {
	mix        Mix
	secP, farP float32

	class                  [len(classOps)]uint32
	taken                  uint32
	noise, chain, sec, far uint64
}

// classOps are the Mix classes in cascade order: an instruction takes
// the first class whose cumulative fraction exceeds its PC hash, and
// IntAlu when none does.
var classOps = [...]isa.Op{isa.Load, isa.Store, isa.Branch, isa.IntAddr, isa.FPAddr, isa.FPArith, isa.IntMul, isa.IntDiv}

// cutPoint returns the integer t such that, for every integer
// v < 2^bits, float32(v)/2^bits < c holds exactly when v < t.
// Converting v to float32 and scaling by a power of two are both
// exact, so the float comparison is v < c·2^bits over the reals, which
// for an integer v is v < ⌈c·2^bits⌉. NaN, zero and negative
// fractions cut at 0 (never below), fractions of 1 or more at 2^bits
// (always below).
func cutPoint(c float32, bits uint) uint32 {
	x := float64(c) * float64(uint64(1)<<bits)
	if !(x > 0) {
		return 0
	}
	if x >= float64(uint64(1)<<bits) {
		return 1 << bits
	}
	return uint32(math.Ceil(x))
}

func newCuts(m Mix, secP, farP float32) cuts {
	c := cuts{mix: m, secP: secP, farP: farP}
	fracs := [len(classOps)]float32{m.Load, m.Store, m.Branch, m.IntAddr, m.FPAddr, m.FPArith, m.IntMul, m.IntDiv}
	sum := fracs[0]
	for j, f := range fracs {
		if j > 0 {
			sum += f // float32 running sum, as the cascade adds them
		}
		c.class[j] = cutPoint(sum, 16)
	}
	c.taken = cutPoint(m.Taken, 16)
	c.noise = uint64(cutPoint(m.Noise, 24))
	c.chain = uint64(cutPoint(m.Chain, 24))
	c.sec = uint64(cutPoint(secP, 24))
	c.far = uint64(cutPoint(farP, 24))
	return c
}

// A slot table holds one byte per instruction slot of a routine: the
// instruction class the Mix gives the slot's PC in the low four bits,
// and for a branch site its per-site taken bit (slotTaken) and, in the
// top three bits, a short skip of 1–6 instructions. A zero skip marks
// one of the one-in-ten sites that jump 24–63 instructions; Emit
// recomputes those from the PC hash.
const (
	slotOp        = 0x0F
	slotTaken     = 0x10
	slotSkipShift = 5
)

// slotKey identifies a slot table: the routine's address range and
// the cut points its bytes depend on.
type slotKey struct {
	base, size uint64
	class      [len(classOps)]uint32
	taken      uint32
}

type slotTable struct {
	key   slotKey
	slots []uint8
}

// slotTables holds every slot table built so far, process-wide
// (slotKey → *slotTable): one per routine address range and Mix the
// process has emitted into. Layouts are deterministic, so the
// repository's workloads define a fixed set of them, about 1.9 MB in
// all.
var slotTables sync.Map

// slotsFor returns rtn's slot table under c, building it on the
// routine's first use. The routine memoizes the table it last used, so
// only a routine's first emission in a run consults the process-wide
// map; both publish through atomics, so emitters on several goroutines
// may share a routine and its table.
func slotsFor(rtn *Routine, c *cuts) []uint8 {
	key := slotKey{base: rtn.Base, size: rtn.Size, class: c.class, taken: c.taken}
	if t := rtn.slots.Load(); t != nil && t.key == key {
		return t.slots
	}
	v, ok := slotTables.Load(key)
	if !ok {
		v, _ = slotTables.LoadOrStore(key, buildSlots(key))
	}
	t := v.(*slotTable)
	rtn.slots.Store(t)
	return t.slots
}

func buildSlots(k slotKey) *slotTable {
	slots := make([]uint8, (k.size+isa.InstBytes-1)/isa.InstBytes)
	for i := range slots {
		pc := k.base + uint64(i)*isa.InstBytes
		v := uint32(xrand.Hash64(pc^0xC0DE) & 0xFFFF)
		op := isa.IntAlu
		for j, cut := range k.class {
			if v < cut {
				op = classOps[j]
				break
			}
		}
		b := uint8(op)
		if op == isa.Branch {
			h := xrand.Hash64(pc)
			if uint32(h&0xFFFF) < k.taken {
				b |= slotTaken
			}
			if h%10 != 0 {
				b |= uint8(1+(h>>16)%6) << slotSkipShift
			}
		}
		slots[i] = b
	}
	return &slotTable{key: k, slots: slots}
}

// Emit produces n instructions inside rtn starting at byte offset off
// (wrapped into the routine). The emitter's current position is moved
// into the routine; callers doing semantic emission afterwards should
// re-Enter their own routine.
//
// The instruction class at a PC is a pure function of the PC:
// re-executing a window emits the same instruction sequence, with the
// same branch sites and the same per-site outcomes, exactly like real
// code. Only data addresses, dependency chains and branch noise vary
// by run. Most taken branches skip a few instructions; roughly one in
// ten jumps far enough (a basic-block boundary, an inlined-call body)
// to defeat the next-line instruction prefetcher, as real code layouts
// do. With CallEvery set, every CallEvery-th instruction is instead an
// indirect hop elsewhere in the routine, to a per-site-stable target
// (virtual dispatch is overwhelmingly monomorphic per call site).
//
// Emit is one loop for both delivery paths: it writes each instruction
// straight into the emitter's block (one slot deep without a block
// path) and hands the block over whenever it fills. The generator
// state, budget and register allocator stay in locals; the state is
// written back to Rng before every call out (block delivery, the
// cancellation poll) and on return, so Rng makes exactly the draws, in
// order, that one call per instruction would make. The cancellation
// poll still runs every cancelCheckMask+1 emitted instructions.
func (s *Stream) Emit(e *Emitter, rtn *Routine, off uint64, n int) {
	if n <= 0 {
		return
	}
	if s.cuts.mix != s.Mix || s.cuts.secP != s.SecP || s.cuts.farP != s.FarP {
		s.cuts = newCuts(s.Mix, s.SecP, s.FarP)
	}
	c := &s.cuts
	slots := slotsFor(rtn, c)
	nslots := uint64(len(slots))
	base, size := rtn.Base, rtn.Size
	si := off % size >> 2 // slot index: the PC is base + si*InstBytes
	e.rtn = rtn

	rng := s.Rng
	st := rng.State()
	blk := e.block[:cap(e.block)]
	k := len(e.block)
	budget, emitted, reg := e.budget, e.emitted, e.nextReg
	last := isa.NoReg
	callEvery, sinceCall := s.Mix.CallEvery, 0
	for n > 0 && budget > 0 {
		var run int
		if callEvery > 0 && sinceCall == callEvery-1 {
			// Every CallEvery-th instruction is an indirect hop.
			pc := base + si*isa.InstBytes
			si = xrand.Hash64(pc) % size >> 2
			blk[k] = isa.Inst{PC: pc, Target: base + si*isa.InstBytes, Op: isa.Branch,
				Kind: isa.BrIndirectJump, Taken: true, Src1: last}
			run, sinceCall = 1, 0
		} else {
			// A run of slot-table instructions up to the next event: the
			// end of the call or the budget, a full block, a
			// cancellation poll or an indirect hop.
			run = min(n, len(blk)-k)
			if budget < int64(run) {
				run = int(budget)
			}
			if e.cancel != nil {
				run = min(run, int(cancelCheckMask+1-emitted&cancelCheckMask))
			}
			if callEvery > 0 {
				run = min(run, callEvery-1-sinceCall)
			}
			sinceCall += run
			seg := blk[k : k+run]
			for j := range seg {
				in := &seg[j]
				pc := base + si*isa.InstBytes
				b := slots[si]
				op := isa.Op(b & slotOp)
				var u uint64
				st, u = xrand.Step(st)
				// The operation consumes the previous result when the
				// draw falls below the chain cut: (draw-cut)>>63 is 1
				// exactly then, and masks last in without a branch.
				src1 := last & isa.Reg(0-(u>>40-c.chain)>>63)
				in.PC = pc
				switch {
				case op >= isa.IntAlu:
					in.Addr, in.Target = 0, 0
					in.Op, in.Kind, in.Taken, in.Size = op, isa.BrNone, false, 0
					in.Dst, in.Src1, in.Src2 = isa.Reg(reg), src1, isa.NoReg
					last = isa.Reg(reg)
					if reg++; reg == 0 {
						reg = 8
					}
					if si++; si == nslots {
						si = 0
					}
				case op == isa.Branch:
					taken := b&slotTaken != 0
					if c.noise > 0 {
						if st, u = xrand.Step(st); u>>40 < c.noise {
							st, u = xrand.Step(st)
							taken = u&1 == 0
						}
					}
					skip := uint64(b >> slotSkipShift)
					if skip == 0 {
						skip = 24 + xrand.Hash64(pc)>>20%40
					}
					in.Addr, in.Target = 0, pc+(skip+1)*isa.InstBytes
					in.Op, in.Kind, in.Taken, in.Size = isa.Branch, isa.BrCond, taken, 0
					in.Dst, in.Src1, in.Src2 = isa.NoReg, src1, isa.NoReg
					if taken {
						si += skip + 1
					} else {
						si++
					}
					if si >= nslots {
						si = 0
					}
				default: // isa.Load, isa.Store
					// The far walk is checked first, then the secondary;
					// each draw happens only when its walk exists.
					w, picked := s.Pri, false
					if s.Far != nil {
						if st, u = xrand.Step(st); u>>40 < c.far {
							w, picked = s.Far, true
						}
					}
					if !picked && s.Sec != nil {
						if st, u = xrand.Step(st); u>>40 < c.sec {
							w = s.Sec
						}
					}
					var addr uint64
					if w != nil {
						if w.sequential() {
							addr = w.stepSeq()
						} else {
							addr, st = w.stepRandom(st)
						}
					}
					in.Addr, in.Target = addr, 0
					in.Op, in.Kind, in.Taken, in.Size = op, isa.BrNone, false, 8
					if op == isa.Load {
						in.Dst, in.Src1, in.Src2 = isa.Reg(reg), src1, isa.NoReg
						last = isa.Reg(reg)
						if reg++; reg == 0 {
							reg = 8
						}
					} else {
						in.Dst, in.Src1, in.Src2 = isa.NoReg, last, src1
					}
					if si++; si == nslots {
						si = 0
					}
				}
			}
		}
		n -= run
		budget -= int64(run)
		emitted += uint64(run)
		if k += run; k == len(blk) {
			e.block = blk[:k]
			rng.Seed(st)
			e.deliver()
			k = 0
		}
		if emitted&cancelCheckMask == 0 && e.cancel != nil {
			rng.Seed(st)
			e.budget = budget
			e.pollCancel()
			budget = e.budget
		}
	}
	rng.Seed(st)
	e.block = blk[:k]
	e.budget, e.emitted, e.nextReg = budget, emitted, reg
	e.pc = base + si*isa.InstBytes
}
