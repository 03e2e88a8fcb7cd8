// Package stack models the software stacks whose impact is the paper's
// third headline observation: "complex software stacks that fail to
// use state-of-practise processors efficiently are one of the main
// factors leading to high front-end stalls. For the same workloads,
// the L1I cache miss rates have one order of magnitude differences
// among diverse implementations with different software stacks."
//
// A stack model is an instruction-footprint overlay: around every
// record read, key-value emission, task boundary and request, it emits
// framework instructions drawn from a text segment of the stack's
// characteristic size, split between a small hot core (dispatch loops,
// serializer inner loops — instruction-cache resident) and a large
// cold periphery (RPC, task management, format negotiation — the code
// that blows out the L1I). JVM stacks additionally emit periodic
// garbage-collection sweeps over the framework heap, which is what
// pushes their L2/LLC data traffic above the thin stacks' (§5.5,
// third observation).
package stack

import (
	"repro/internal/sim/mem"
	"repro/internal/sim/trace"
	"repro/internal/xrand"
)

// Descriptor parameterizes a software stack model. The values for the
// concrete stacks live in descriptors.go and are the calibrated
// constants declared in DESIGN.md §4.
type Descriptor struct {
	// Name is the stack name as used in workload IDs ("Hadoop").
	Name string
	// JVM marks managed-runtime stacks (enables the GC model).
	JVM bool

	// CodeKB is the total framework text footprint; HotKB the
	// instruction-cache-resident core of it.
	CodeKB, HotKB int
	// ColdFrac is the fraction of framework dynamic instructions
	// executed from cold paths (uniformly spread over the cold text).
	ColdFrac float32

	// ReadInsts + ReadPerByte*bytes instructions are emitted per input
	// record read (record reader, deserialization).
	ReadInsts   int
	ReadPerByte float32
	// EmitInsts + EmitPerByte*bytes per emitted key-value pair
	// (collector, serializer, spill accounting).
	EmitInsts   int
	EmitPerByte float32
	// TaskInsts per task/split boundary (scheduling, setup, commit).
	TaskInsts int
	// IterInsts per iteration boundary of iterative jobs (Spark-style
	// cached RDD re-scan bookkeeping).
	IterInsts int
	// RequestInsts per served request (service stacks: RPC decode,
	// dispatch, filter chain, response encode).
	RequestInsts int
	// ShufflePerByte instructions per shuffled byte.
	ShufflePerByte float32

	// GCPeriod is the framework-instruction interval between GC
	// sweeps; GCInsts their length; zero disables GC.
	GCPeriod, GCInsts int
	// HeapMB sizes the framework heap the GC walks and from which
	// serialization metadata is read.
	HeapMB int

	// Mix is the framework instruction composition.
	Mix trace.Mix

	// ColdZipfS skews cold-routine popularity (default 1.35); service
	// stacks use a steeper skew, keeping their hottest slow paths
	// L2-resident while the tail still blows out the L1I.
	ColdZipfS float64

	// SysCPUFactor scales the simulated user-level instruction count to
	// deployment-scale CPU seconds in the system-behaviour model: it
	// stands for the system-software path the micro-architectural
	// simulation does not emit (kernel I/O, JVM services, HDFS
	// datanode work, checksumming). Calibrated per stack; see
	// DESIGN.md §4.
	SysCPUFactor float64

	// BatchRows is how many rows a relational engine pulls per
	// record-reader invocation: 1 for row-at-a-time executors (Hive
	// 0.9, MySQL), large for vectorized engines (Impala, Shark's
	// columnar RDDs). Kernels use Batch() so zero means 1.
	BatchRows int
}

// Batch returns the effective batch size (at least 1).
func (d *Descriptor) Batch() int {
	if d.BatchRows < 1 {
		return 1
	}
	return d.BatchRows
}

// Runtime is one workload run's instantiation of a stack model: its
// routines and heap walks are allocated from the run's layout, and all
// framework emission goes through the run's emitter.
type Runtime struct {
	D Descriptor
	E *trace.Emitter

	hot     []*trace.Routine
	cold    []*trace.Routine
	coldPop *xrand.Zipf
	// sticky is the slow-path routine small framework events reuse;
	// consecutive record-level events walk the same cold pages, as a
	// real runtime's per-record slow path does.
	sticky     *trace.Routine
	stickyLeft int
	gcRtn      *trace.Routine
	stream     trace.Stream
	gcWalk     *trace.Walk
	rng        *xrand.Rand
	hotSlot    int
	sinceGC    int

	// FrameworkInsts tallies instructions emitted by the stack model
	// (vs. the kernel), for the overhead-share reports.
	FrameworkInsts uint64
}

const coldChunkKB = 16

// NewRuntime allocates the stack's simulated text and heap from l and
// binds it to e. Allocate the runtime before kernel routines so the
// framework occupies the bottom of the text segment, as a real process
// image would place its libraries.
func NewRuntime(d Descriptor, e *trace.Emitter, l *mem.Layout, seed uint64) *Runtime {
	rt := &Runtime{D: d, E: e, rng: xrand.New(seed)}
	hotKB := d.HotKB
	if hotKB <= 0 {
		hotKB = 16
	}
	nHot := 4
	for i := 0; i < nHot; i++ {
		rt.hot = append(rt.hot, trace.NewRoutine(l, d.Name+"/hot", uint64(hotKB/nHot)<<10))
	}
	coldKB := d.CodeKB - hotKB
	for coldKB > 0 {
		sz := coldChunkKB
		if coldKB < sz {
			sz = coldKB
		}
		rt.cold = append(rt.cold, trace.NewRoutine(l, d.Name+"/cold", uint64(sz)<<10))
		coldKB -= sz
	}
	if len(rt.cold) > 0 {
		// Cold-path popularity is skewed: a handful of cold routines
		// (common slow paths) take most of the cold executions, the
		// long tail the rest.
		s := d.ColdZipfS
		if s == 0 {
			s = 1.15
		}
		rt.coldPop = xrand.NewZipf(len(rt.cold), s)
	}
	if d.GCPeriod > 0 {
		rt.gcRtn = trace.NewRoutine(l, d.Name+"/gc", 24<<10)
	}
	heapMB := d.HeapMB
	if heapMB <= 0 {
		heapMB = 2
	}
	heapBase := l.Alloc(uint64(heapMB) << 20)
	// Serialization buffers are small and recycled: the runtime writes
	// the same ~64 KB of active spill space over and over (L1/L2
	// resident), so framework buffer traffic does not stream the heap.
	spill := trace.NewWalk(heapBase, 16<<10, 16)
	// Runtime metadata (object headers, dispatch tables): random inside
	// a compact working set that the caches cover.
	meta := trace.NewRandomWalk(heapBase+(64<<10), 32<<10)
	// Object-graph touches into the wider young generation: random
	// page, a handful of object fields per page — the L2-missing,
	// L3-hitting component of managed-heap traffic.
	farMB := uint64(4)
	if uint64(heapMB) < farMB {
		farMB = uint64(heapMB)
	}
	far := trace.NewClusterWalk(heapBase+(1<<20), farMB<<20, 256, 16)
	farP := float32(0.020)
	if !d.JVM {
		farP = 0.008
	}
	rt.stream = trace.Stream{
		Mix: d.Mix, Pri: spill, Sec: meta, SecP: 0.12,
		Far: far, FarP: farP, Rng: rt.rng,
	}
	// GC increments sweep the whole heap in address order (mark/sweep
	// phase locality): long strided scans that miss the LLC on a heap
	// bigger than it — the thick stacks' LLC traffic of §5.5.
	rt.gcWalk = trace.NewWalk(heapBase, uint64(heapMB)<<20, 16)
	return rt
}

// framework emits n framework instructions split between hot and cold
// code, then returns the emitter to the kernel's position.
func (rt *Runtime) framework(n int) {
	if n <= 0 || !rt.E.OK() {
		return
	}
	d := &rt.D
	nCold := int(float32(n) * d.ColdFrac)
	nHot := n - nCold
	before := rt.E.Emitted()

	if nHot > 0 {
		r := rt.hot[rt.hotSlot%len(rt.hot)]
		// Eight stable entry points per hot routine: the hot working
		// set stays a few dozen KB, inside the L1I, like a real
		// runtime's dispatch core.
		off := uint64(rt.hotSlot%8) * 640
		rt.hotSlot++
		rt.E.Call(r)
		rt.stream.Emit(rt.E, r, off, nHot)
		rt.E.Ret()
	}
	if nCold > 0 && nCold < 160 && len(rt.cold) > 0 {
		// Small per-record events reuse one sticky slow-path routine
		// for a while: consecutive records execute the same cold pages
		// (ITLB-friendly), and the sticky routine rotates slowly so the
		// run still covers the stack's text footprint.
		if rt.sticky == nil || rt.stickyLeft <= 0 {
			rt.sticky = rt.cold[rt.coldPop.Sample(rt.rng)]
			rt.stickyLeft = 5
		}
		rt.stickyLeft--
		rt.E.Call(rt.sticky)
		rt.stream.Emit(rt.E, rt.sticky, (rt.sticky.Size/4)*rt.rng.Uint64n(4), nCold)
		rt.E.Ret()
		nCold = 0
	}
	for nCold > 0 && len(rt.cold) > 0 {
		chunk := nCold
		if chunk > 500 {
			chunk = 500 // long slow paths traverse several functions
		}
		nCold -= chunk
		r := rt.cold[rt.coldPop.Sample(rt.rng)]
		// Four canonical entry points per cold routine: cold paths are
		// still functions with fixed addresses, so re-executions walk
		// the same instructions (and their branches become learnable),
		// they are just spread over a lot of text.
		off := (r.Size / 4) * rt.rng.Uint64n(4)
		rt.E.Call(r)
		rt.stream.Emit(rt.E, r, off, chunk)
		rt.E.Ret()
	}
	rt.FrameworkInsts += rt.E.Emitted() - before

	if d.GCPeriod > 0 {
		rt.sinceGC += n
		if rt.sinceGC >= d.GCPeriod {
			rt.sinceGC = 0
			rt.gc()
		}
	}
}

// gc emits one garbage-collection increment: a sweep loop in the GC
// routine whose loads stride the framework heap.
func (rt *Runtime) gc() {
	d := &rt.D
	if d.GCInsts <= 0 || !rt.E.OK() {
		return
	}
	before := rt.E.Emitted()
	e := rt.E
	e.Call(rt.gcRtn)
	mark := trace.Stream{
		Mix: trace.Mix{Load: 0.38, Store: 0.08, Branch: 0.2, IntAddr: 0.22,
			Taken: 0.3, Noise: 0.02, Chain: 0.45},
		Pri: rt.gcWalk,
		Rng: rt.rng,
	}
	mark.Emit(e, rt.gcRtn, 0, d.GCInsts)
	e.Ret()
	rt.FrameworkInsts += rt.E.Emitted() - before
}

// TaskStart emits the per-task framework overhead (split scheduling,
// task setup, output committer negotiation).
func (rt *Runtime) TaskStart() { rt.framework(rt.D.TaskInsts) }

// IterStart emits the per-iteration overhead of iterative jobs.
func (rt *Runtime) IterStart() { rt.framework(rt.D.IterInsts) }

// ReadRecord emits the record-reader overhead for one input record of
// the given size.
func (rt *Runtime) ReadRecord(bytes int) {
	rt.framework(rt.D.ReadInsts + int(rt.D.ReadPerByte*float32(bytes)))
}

// EmitKV emits the collector/serializer overhead for one emitted
// key-value pair of the given size.
func (rt *Runtime) EmitKV(bytes int) {
	rt.framework(rt.D.EmitInsts + int(rt.D.EmitPerByte*float32(bytes)))
}

// Request emits the per-request overhead of a service stack plus the
// response serialization for respBytes.
func (rt *Runtime) Request(respBytes int) {
	rt.framework(rt.D.RequestInsts + int(rt.D.EmitPerByte*float32(respBytes)))
}

// Shuffle emits the shuffle/exchange overhead for the given volume.
func (rt *Runtime) Shuffle(bytes int) {
	rt.framework(int(rt.D.ShufflePerByte * float32(bytes)))
}
