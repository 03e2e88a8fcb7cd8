// Package trace connects instrumented workload kernels to the
// micro-architecture models.
//
// A kernel does its real computation on ordinary Go values, and in the
// same pass narrates the machine-level work through an Emitter: one
// call per dynamic instruction, carrying the instruction class, the
// instruction address (from a simulated code Routine), the data address
// (from the simulated heap) and the register dependencies. The stream
// of isa.Inst records drives the cache, TLB, branch-predictor and
// pipeline models, which implement the Probe interface.
package trace

import (
	"sync/atomic"

	"repro/internal/sim/isa"
	"repro/internal/sim/mem"
)

// Probe consumes a dynamic instruction stream. Implementations must not
// retain the *isa.Inst across calls: emitters reuse the record.
type Probe interface {
	Inst(i *isa.Inst)
}

// BlockProbe is the batched delivery path: the emitter accumulates
// instructions into a fixed-size block and hands the whole block over
// in one call. Blocks only change *when* a probe observes the stream,
// never *what* it observes — the concatenation of all delivered blocks
// is exactly the per-instruction sequence, so any probe implementing
// both interfaces must produce bit-identical state either way.
// Implementations must not retain the slice across calls: emitters
// reuse the block buffer.
type BlockProbe interface {
	InstBlock(block []isa.Inst)
}

// DefaultBlockSize is the emitter's block buffer size (instructions)
// when a BlockProbe consumer doesn't pick one. Sized so the buffer
// (~160 KB) plus one cache model's hot tag arrays fit the host L2 —
// large enough to amortize per-block decode and fan-out, small enough
// that replaying a block against one simulated cache at a time stays
// cache-resident on the host.
const DefaultBlockSize = 4096

// Unblocked returns a view of p without its block path: an emitter
// driving the result always delivers per-instruction, even when p
// implements BlockProbe. It is the per-instruction reference the
// block-path equivalence tests compare against.
func Unblocked(p Probe) Probe { return unblocked{p} }

type unblocked struct{ p Probe }

func (u unblocked) Inst(i *isa.Inst) { u.p.Inst(i) }

// CountProbe counts instructions by class; useful in tests.
type CountProbe struct {
	Total  uint64
	ByOp   [isa.NumOps]uint64
	Taken  uint64
	Memory uint64
}

// Inst implements Probe.
func (c *CountProbe) Inst(i *isa.Inst) {
	c.Total++
	c.ByOp[i.Op]++
	if i.Op == isa.Branch && i.Taken {
		c.Taken++
	}
	if i.Op.IsMem() {
		c.Memory++
	}
}

// InstBlock implements BlockProbe.
func (c *CountProbe) InstBlock(block []isa.Inst) {
	for i := range block {
		c.Inst(&block[i])
	}
}

// Routine is a contiguous region of simulated code. Kernels and stack
// models allocate Routines from a mem.Layout and emit instructions
// whose PCs advance through the region, so the instruction-cache and
// footprint models see realistic text-segment behaviour.
type Routine struct {
	// Name identifies the routine in reports and tests.
	Name string
	// Base is the first instruction address.
	Base uint64
	// Size is the region size in bytes.
	Size uint64

	// slots memoizes the slot table Stream.Emit last used here.
	slots atomic.Pointer[slotTable]
}

// End returns one past the last valid instruction address.
func (r *Routine) End() uint64 { return r.Base + r.Size }

// Contains reports whether pc falls inside the routine.
func (r *Routine) Contains(pc uint64) bool {
	return pc >= r.Base && pc < r.Base+r.Size
}

// NewRoutine reserves a code region of size bytes from the layout.
func NewRoutine(l *mem.Layout, name string, size uint64) *Routine {
	if size < isa.InstBytes {
		size = isa.InstBytes
	}
	return &Routine{Name: name, Base: l.Code(size), Size: size}
}

// Label is a recorded code position used as a branch target.
type Label struct {
	pc  uint64
	rtn *Routine
}

type frame struct {
	pc  uint64
	rtn *Routine
}

// maxCallDepth bounds the simulated call stack; deeper calls are
// treated as tail calls, which keeps runaway recursion in stack models
// harmless.
const maxCallDepth = 64

// Emitter is the instrumentation DSL. It owns the current program
// counter, a rotating register allocator for dataflow tracking, the
// simulated call stack, and the remaining instruction budget.
//
// All emit methods send exactly one instruction to the probe and
// advance the PC by isa.InstBytes (branches may relocate it).
type Emitter struct {
	p       Probe
	bp      BlockProbe // non-nil enables block-buffered delivery
	block   []isa.Inst // accumulating block; cap is the block size, 1 without bp
	pc      uint64
	rtn     *Routine
	stack   [maxCallDepth]frame
	depth   int
	budget  int64
	emitted uint64
	nextReg uint8

	// cancel, when non-nil, aborts the emission: once the channel is
	// closed the next cancellation poll (every cancelCheckMask+1
	// instructions) zeroes the remaining budget, so OK() turns false
	// and the kernel winds down within a few thousand instructions
	// instead of running its full budget. canceled records that the
	// abort fired.
	cancel   <-chan struct{}
	canceled bool
}

// cancelCheckMask spaces the cancellation polls: one non-blocking
// channel read per 4096 emitted instructions — the same granularity as
// a default trace block — which keeps the hot emit path free of
// per-instruction select overhead while bounding the post-cancel
// overrun to a few microseconds of simulation.
const cancelCheckMask = 4095

// SetCancel arms the emitter with an abort channel (typically
// ctx.Done()); a nil channel disarms it. Closing the channel stops the
// run early: the budget is zeroed at the next poll, so kernels polling
// OK() return promptly. Call before emission starts.
func (e *Emitter) SetCancel(ch <-chan struct{}) { e.cancel = ch }

// Canceled reports whether the abort channel fired during emission —
// the emitted stream is then truncated and any derived result must be
// discarded, never published.
func (e *Emitter) Canceled() bool { return e.canceled }

// pollCancel is the periodic non-blocking abort check.
func (e *Emitter) pollCancel() {
	select {
	case <-e.cancel:
		e.canceled = true
		e.budget = 0
	default:
	}
}

// NewEmitter returns an emitter feeding p with an instruction budget.
// Kernels poll OK() and stop when the budget is exhausted, so every
// workload run retires a comparable instruction count regardless of
// dataset size. Delivery is per-instruction; use NewBlockEmitter for
// the batched path.
func NewEmitter(p Probe, budget int64) *Emitter {
	return &Emitter{p: p, block: make([]isa.Inst, 0, 1), budget: budget, nextReg: 8}
}

// NewBlockEmitter returns an emitter that, when p implements
// BlockProbe, accumulates instructions into a blockSize-instruction
// buffer and delivers full blocks through InstBlock (callers must
// Flush once emission ends). blockSize <= 0 picks DefaultBlockSize.
// For probes without a block path it behaves exactly like NewEmitter.
// The probe observes the identical instruction sequence either way.
func NewBlockEmitter(p Probe, budget int64, blockSize int) *Emitter {
	bp, ok := p.(BlockProbe)
	if !ok {
		return NewEmitter(p, budget)
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &Emitter{p: p, bp: bp, block: make([]isa.Inst, 0, blockSize), budget: budget, nextReg: 8}
}

// Flush delivers any buffered partial block. It must be called when
// emission ends (workloads.Run does); calling it on a per-instruction
// emitter, or twice, is a no-op.
func (e *Emitter) Flush() {
	if len(e.block) > 0 {
		e.deliver()
	}
}

// deliver hands the buffered block to the probe and empties it. An
// emitter without a block path buffers one instruction and delivers it
// through Probe.Inst.
func (e *Emitter) deliver() {
	if e.bp != nil {
		e.bp.InstBlock(e.block)
	} else {
		e.p.Inst(&e.block[0])
	}
	e.block = e.block[:0]
}

// put writes one instruction field by field straight into the next
// block slot, delivers the block when it fills, and retires the
// instruction against the budget. Every emission except Stream.Emit's
// funnels through here, and both delivery modes share it. Storing the
// fields in place, rather than building an isa.Inst value and copying
// it, keeps the hot path free of wide reloads of just-written bytes.
func (e *Emitter) put(op isa.Op, kind isa.BranchKind, taken bool, pc, addr, target uint64, size uint8, dst, s1, s2 isa.Reg) {
	n := len(e.block)
	e.block = e.block[:n+1]
	i := &e.block[n]
	i.PC, i.Addr, i.Target = pc, addr, target
	i.Op, i.Kind, i.Taken, i.Size = op, kind, taken, size
	i.Dst, i.Src1, i.Src2 = dst, s1, s2
	if n+1 == cap(e.block) {
		e.deliver()
	}
	e.budget--
	e.emitted++
	if e.cancel != nil && e.emitted&cancelCheckMask == 0 {
		e.pollCancel()
	}
}

// OK reports whether instruction budget remains.
func (e *Emitter) OK() bool { return e.budget > 0 }

// Emitted returns the number of instructions emitted so far.
func (e *Emitter) Emitted() uint64 { return e.emitted }

// PC returns the current program counter (mainly for tests).
func (e *Emitter) PC() uint64 { return e.pc }

// Routine returns the routine the emitter is currently inside.
func (e *Emitter) Routine() *Routine { return e.rtn }

// Enter positions the emitter at the start of r without emitting a
// control transfer. Use it once at the top of a kernel; use Call for
// modelled function calls.
func (e *Emitter) Enter(r *Routine) {
	e.rtn = r
	e.pc = r.Base
}

// fresh returns the next rotating register. Registers 1..7 are reserved
// for fixed accumulators (see Fixed); 0 is isa.NoReg.
func (e *Emitter) fresh() isa.Reg {
	r := e.nextReg
	e.nextReg++
	if e.nextReg == 0 { // wrapped past 255
		e.nextReg = 8
	}
	return isa.Reg(r)
}

// Fixed returns one of seven fixed registers (i in 1..7), used for
// serial accumulator chains (reductions), which bound instruction-level
// parallelism exactly as a real dependent chain does.
func (e *Emitter) Fixed(i int) isa.Reg {
	if i < 1 || i > 7 {
		panic("trace: Fixed register index out of range")
	}
	return isa.Reg(i)
}

// emit sends one straight-line instruction at the current PC and
// advances past it.
func (e *Emitter) emit(op isa.Op, addr uint64, size uint8, dst, s1, s2 isa.Reg) {
	pc := e.pc
	e.advance()
	e.put(op, isa.BrNone, false, pc, addr, 0, size, dst, s1, s2)
}

func (e *Emitter) advance() {
	e.pc += isa.InstBytes
	if e.rtn != nil && e.pc >= e.rtn.End() {
		// Silent wrap keeps long straight-line emissions inside the
		// routine; the instruction cache sees the region re-walked.
		e.pc = e.rtn.Base
	}
}

// Load emits a load of size bytes from addr. addrDep is the register
// the address depends on (isa.NoReg if none). It returns the register
// holding the loaded value.
func (e *Emitter) Load(addr uint64, size uint8, addrDep isa.Reg) isa.Reg {
	dst := e.fresh()
	e.emit(isa.Load, addr, size, dst, addrDep, isa.NoReg)
	return dst
}

// LoadTo emits a load whose result lands in dst (used for accumulator
// reloads).
func (e *Emitter) LoadTo(dst isa.Reg, addr uint64, size uint8, addrDep isa.Reg) isa.Reg {
	e.emit(isa.Load, addr, size, dst, addrDep, isa.NoReg)
	return dst
}

// Store emits a store of size bytes to addr. val is the stored value's
// register, addrDep the address dependency.
func (e *Emitter) Store(addr uint64, size uint8, val, addrDep isa.Reg) {
	e.emit(isa.Store, addr, size, isa.NoReg, val, addrDep)
}

// Int emits an integer operation of the given class (IntAlu, IntAddr,
// FPAddr, IntMul, IntDiv) and returns the destination register.
func (e *Emitter) Int(op isa.Op, s1, s2 isa.Reg) isa.Reg {
	dst := e.fresh()
	e.emit(op, 0, 0, dst, s1, s2)
	return dst
}

// IntTo emits an integer operation into an explicit destination,
// forming a serial chain when dst is also a source.
func (e *Emitter) IntTo(dst isa.Reg, op isa.Op, s1, s2 isa.Reg) isa.Reg {
	e.emit(op, 0, 0, dst, s1, s2)
	return dst
}

// FP emits a floating-point operation (FPArith or FPDiv) and returns
// the destination register.
func (e *Emitter) FP(op isa.Op, s1, s2 isa.Reg) isa.Reg {
	dst := e.fresh()
	e.emit(op, 0, 0, dst, s1, s2)
	return dst
}

// FPTo emits a floating-point operation into an explicit destination.
func (e *Emitter) FPTo(dst isa.Reg, op isa.Op, s1, s2 isa.Reg) isa.Reg {
	e.emit(op, 0, 0, dst, s1, s2)
	return dst
}

// IntN emits n independent IntAlu operations (fixed-cost glue code).
func (e *Emitter) IntN(n int) {
	for i := 0; i < n; i++ {
		e.Int(isa.IntAlu, isa.NoReg, isa.NoReg)
	}
}

// Here records the current position as a branch target label.
func (e *Emitter) Here() Label { return Label{pc: e.pc, rtn: e.rtn} }

// Loop emits a conditional backward branch to l. When taken the PC
// returns to the label (a loop iteration); otherwise execution falls
// through. dep is the register the loop condition depends on.
func (e *Emitter) Loop(l Label, taken bool, dep isa.Reg) {
	e.put(isa.Branch, isa.BrCond, taken, e.pc, 0, l.pc, 0, isa.NoReg, dep, isa.NoReg)
	if taken {
		e.pc = l.pc
		e.rtn = l.rtn
	} else {
		e.pc += isa.InstBytes
	}
}

// If emits a conditional forward branch guarding a then-block of
// exactly thenN instructions. When cond is false the branch is taken
// and skips the block (then is not called); when cond is true the
// branch falls through and then() must emit exactly thenN
// instructions. This mirrors compiled if-statements and keeps the PCs
// of the surrounding code identical on both paths, so the branch
// predictors see stable branch addresses.
func (e *Emitter) If(cond bool, thenN int, then func()) {
	target := e.pc + uint64((thenN+1)*isa.InstBytes)
	e.put(isa.Branch, isa.BrCond, !cond, e.pc, 0, target, 0, isa.NoReg, isa.NoReg, isa.NoReg)
	if cond {
		e.pc += isa.InstBytes
		before := e.emitted
		then()
		if got := int(e.emitted - before); got != thenN {
			panic("trace: If block emitted wrong instruction count: " +
				itoa(got) + " != " + itoa(thenN))
		}
	} else {
		e.pc = target
		if e.rtn != nil && e.pc >= e.rtn.End() {
			e.pc = e.rtn.Base
		}
	}
}

// Branch emits a standalone conditional branch with an explicit
// outcome; the fall-through and taken paths rejoin immediately (a
// compare-and-skip of one instruction). Use it for data-dependent
// comparisons whose arms are handled in Go code rather than emitted.
func (e *Emitter) Branch(taken bool, dep isa.Reg) {
	pc := e.pc
	e.advance()
	e.put(isa.Branch, isa.BrCond, taken, pc, 0, pc+2*isa.InstBytes, 0, isa.NoReg, dep, isa.NoReg)
}

// Call emits a direct call into r and moves the emitter there.
func (e *Emitter) Call(r *Routine) {
	e.put(isa.Branch, isa.BrCall, true, e.pc, 0, r.Base, 0, isa.NoReg, isa.NoReg, isa.NoReg)
	ret := e.pc + isa.InstBytes
	if e.depth < maxCallDepth {
		e.stack[e.depth] = frame{pc: ret, rtn: e.rtn}
		e.depth++
	}
	e.rtn = r
	e.pc = r.Base
}

// Ret emits a return to the calling routine. With an empty call stack
// it is a no-op jump to the current routine base.
func (e *Emitter) Ret() {
	var target frame
	if e.depth > 0 {
		e.depth--
		target = e.stack[e.depth]
	} else {
		target = frame{pc: e.rtn.Base, rtn: e.rtn}
	}
	e.put(isa.Branch, isa.BrRet, true, e.pc, 0, target.pc, 0, isa.NoReg, isa.NoReg, isa.NoReg)
	e.pc = target.pc
	e.rtn = target.rtn
}

// Depth returns the current simulated call depth (for tests).
func (e *Emitter) Depth() int { return e.depth }

// Pos is a saved emitter code position.
type Pos struct {
	pc  uint64
	rtn *Routine
}

// Pos captures the current code position so a framework interposer can
// emit elsewhere and return (see Restore).
func (e *Emitter) Pos() Pos { return Pos{pc: e.pc, rtn: e.rtn} }

// Restore moves the emitter back to a saved position without emitting
// a control transfer; pair with Pos around stream emissions.
func (e *Emitter) Restore(p Pos) {
	e.pc = p.pc
	e.rtn = p.rtn
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [24]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
