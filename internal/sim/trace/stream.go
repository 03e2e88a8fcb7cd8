package trace

import (
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
	count      int
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
	if w.Size == 0 {
		return w.Base
	}
	if w.Random {
		return w.Base + (r.Uint64n(w.Size) &^ 7)
	}
	if w.ClusterLen > 0 {
		if w.count%w.ClusterLen == 0 {
			w.pos = r.Uint64n(w.Size) &^ 7
		}
		w.count++
	}
	a := w.Base + w.pos%w.Size
	w.pos += w.Stride
	if w.ClusterLen == 0 && w.pos >= w.Size {
		w.pos = 0
	}
	return a
}

// Reset rewinds a sequential walk to its base.
func (w *Walk) Reset() { w.pos = 0 }

// Stream emits synthetic instructions matching a Mix, walking the PCs
// of a routine and the addresses of one or two data Walks.
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
	// Rng drives class selection and noise. Mandatory.
	Rng *xrand.Rand
}

// Emit produces n instructions inside rtn starting at byte offset off
// (wrapped into the routine). The emitter's current position is moved
// into the routine; callers doing semantic emission afterwards should
// re-Enter their own routine.
func (s *Stream) Emit(e *Emitter, rtn *Routine, off uint64, n int) {
	if n <= 0 {
		return
	}
	e.rtn = rtn
	e.pc = rtn.Base + (off % rtn.Size &^ (isa.InstBytes - 1))
	m := &s.Mix
	var last isa.Reg = isa.NoReg
	sinceCall := 0
	for i := 0; i < n && e.OK(); i++ {
		if m.CallEvery > 0 {
			sinceCall++
			if sinceCall >= m.CallEvery {
				sinceCall = 0
				// Indirect hop elsewhere in the same routine: a
				// switch-table-style indirect jump to a per-site-stable
				// target (virtual dispatch is overwhelmingly
				// monomorphic per call site).
				tgt := rtn.Base + (xrand.Hash64(e.pc)%rtn.Size)&^(isa.InstBytes-1)
				e.put(isa.Branch, isa.BrIndirectJump, true, e.pc, 0, tgt, 0, isa.NoReg, last, isa.NoReg)
				e.pc = tgt
				continue
			}
		}
		// The instruction class at a given PC is a pure function of the
		// PC: re-executing a window emits the same instruction sequence
		// (and the same branch sites with the same outcomes), exactly
		// like real code. Only data addresses and noise vary by run.
		r := float32(xrand.Hash64(e.pc^0xC0DE)&0xFFFF) / 65536
		var src1 isa.Reg
		if s.Rng.Float32() < m.Chain {
			src1 = last
		} else {
			src1 = isa.NoReg
		}
		switch {
		case r < m.Load:
			last = e.Load(s.addr(), 8, src1)
		case r < m.Load+m.Store:
			e.Store(s.addr(), 8, last, src1)
		case r < m.Load+m.Store+m.Branch:
			s.branch(e, src1)
		case r < m.Load+m.Store+m.Branch+m.IntAddr:
			last = e.Int(isa.IntAddr, src1, isa.NoReg)
		case r < m.Load+m.Store+m.Branch+m.IntAddr+m.FPAddr:
			last = e.Int(isa.FPAddr, src1, isa.NoReg)
		case r < m.Load+m.Store+m.Branch+m.IntAddr+m.FPAddr+m.FPArith:
			last = e.FP(isa.FPArith, src1, isa.NoReg)
		case r < m.Load+m.Store+m.Branch+m.IntAddr+m.FPAddr+m.FPArith+m.IntMul:
			last = e.Int(isa.IntMul, src1, isa.NoReg)
		case r < m.Load+m.Store+m.Branch+m.IntAddr+m.FPAddr+m.FPArith+m.IntMul+m.IntDiv:
			last = e.Int(isa.IntDiv, src1, isa.NoReg)
		default:
			last = e.Int(isa.IntAlu, src1, isa.NoReg)
		}
	}
}

func (s *Stream) addr() uint64 {
	if s.Far != nil && s.Rng.Float32() < s.FarP {
		return s.Far.Next(s.Rng)
	}
	if s.Sec != nil && s.Rng.Float32() < s.SecP {
		return s.Sec.Next(s.Rng)
	}
	if s.Pri == nil {
		return 0
	}
	return s.Pri.Next(s.Rng)
}

func (s *Stream) branch(e *Emitter, dep isa.Reg) {
	m := &s.Mix
	// Per-site outcome: hash the PC so the site is consistently taken
	// or not-taken across executions, with density m.Taken.
	h := xrand.Hash64(e.pc)
	taken := float32(h&0xFFFF)/65536 < m.Taken
	if m.Noise > 0 && s.Rng.Float32() < m.Noise {
		taken = s.Rng.Uint64()&1 == 0
	}
	// Most taken branches skip a few instructions; roughly one in ten
	// jumps far enough (a basic-block boundary, an inlined-call body)
	// to defeat the next-line instruction prefetcher, as real code
	// layouts do.
	skip := 1 + int(h>>16)%6
	if h%10 == 0 {
		skip = 24 + int(h>>20)%40
	}
	target := e.pc + uint64((skip+1)*isa.InstBytes)
	e.put(isa.Branch, isa.BrCond, taken, e.pc, 0, target, 0, isa.NoReg, dep, isa.NoReg)
	if taken {
		e.pc = target
	} else {
		e.pc += isa.InstBytes
	}
	if e.rtn != nil && e.pc >= e.rtn.End() {
		e.pc = e.rtn.Base
	}
}
