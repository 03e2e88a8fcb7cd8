// Package workloads implements the big data workloads of the paper:
// the algorithm kernels (WordCount, Grep, Sort, K-means, PageRank,
// Naive Bayes, the relational operators, the TPC-DS queries, the cloud
// OLTP operations and the graph kernels), the 77-workload
// BigDataBench-3.0-like roster they combine into, the 17 representative
// workloads of Table 2, and the six MPI re-implementations of §5.5.
//
// A workload = an algorithm kernel x a software stack x a dataset.
// Kernels do their real computation on generated data and narrate the
// machine-level work through the trace.Emitter; the stack model
// interposes framework instructions around record reads, key-value
// emissions, tasks and requests.
package workloads

import (
	"context"

	"repro/internal/sim/mem"
	"repro/internal/sim/trace"
	"repro/internal/stack"
	"repro/internal/xrand"
)

// Category is the paper's application-category dimension (§3.2.3).
type Category int

// Application categories.
const (
	Service Category = iota
	DataAnalysis
	InteractiveAnalysis
)

var categoryNames = []string{"service", "data analysis", "interactive analysis"}

// String names the category.
func (c Category) String() string { return categoryNames[c] }

// Kernel is an instrumented algorithm implementation.
type Kernel interface {
	// Name identifies the algorithm ("WordCount").
	Name() string
	// Run executes the kernel until the context's instruction budget
	// is exhausted, emitting its dynamic instruction stream and
	// tallying its I/O volumes in the context.
	Run(c *Ctx)
}

// KernelFunc adapts a function to the Kernel interface; the comparator
// suites use it for their mini-kernels.
type KernelFunc struct {
	// KernelName identifies the mini-kernel.
	KernelName string
	// F runs the kernel.
	F func(*Ctx)
}

// Name implements Kernel.
func (k KernelFunc) Name() string { return k.KernelName }

// Run implements Kernel.
func (k KernelFunc) Run(c *Ctx) { k.F(c) }

// Ctx carries everything a kernel needs for one run.
type Ctx struct {
	// E is the instruction emitter (budget-bearing).
	E *trace.Emitter
	// RT is the software-stack runtime to charge framework events to.
	RT *stack.Runtime
	// L is the run's simulated address space.
	L *mem.Layout
	// Rng is the run's deterministic random source.
	Rng *xrand.Rand
	// Code is the kernel's primary code routine; kernels may allocate
	// more from L.
	Code *trace.Routine

	// I/O tallies (bytes), maintained by the kernel as it processes
	// data: read input, produced output, and intermediate (shuffled)
	// data. They drive the Table 2 data-behaviour classification.
	InBytes, OutBytes, InterBytes uint64
	// Records counts logical records (or requests) processed.
	Records uint64
	// CPUWeight scales per-input-byte CPU work to deployment scale for
	// kernels whose simulated run cannot cover the full job shape:
	// iterative algorithms set it to their typical iteration count,
	// sorts to the extra merge passes of a full-scale run. Default 1.
	CPUWeight float64
}

// Workload is one roster entry.
type Workload struct {
	// ID is the paper-style identifier ("S-WordCount").
	ID string
	// Kernel is the algorithm.
	Kernel Kernel
	// Stack is the software-stack descriptor.
	Stack stack.Descriptor
	// Category is the application category.
	Category Category
	// DataSet names the Table 1 dataset the workload consumes.
	DataSet string
}

// kernelCodeKB sizes every kernel's code routine.
const kernelCodeKB = 24

// Result summarizes one run.
type Result struct {
	Workload Workload
	// Insts is the number of instructions emitted.
	Insts uint64
	// InBytes/OutBytes/InterBytes are the kernel's I/O tallies.
	InBytes, OutBytes, InterBytes uint64
	// Records is the number of records/requests processed.
	Records uint64
	// FrameworkShare is the fraction of instructions emitted by the
	// software-stack model rather than the kernel.
	FrameworkShare float64
	// CPUWeight is the kernel's deployment-scale CPU multiplier.
	CPUWeight float64
}

// Run executes w against probe p with the given instruction budget and
// returns the run summary. Each run gets a fresh simulated address
// space and deterministic seeds derived from the workload ID, so runs
// are reproducible and independent.
//
// Probes implementing trace.BlockProbe receive the stream in
// trace.DefaultBlockSize batches; use RunBlock to pick the batch size.
// Results are identical either way — blocking changes when the probe
// observes the stream, never what it observes.
func Run(w Workload, p trace.Probe, budget int64) *Result {
	return RunBlock(w, p, budget, 0)
}

// RunBlock is Run with an explicit trace-replay block size
// (instructions per delivered batch; <= 0 means
// trace.DefaultBlockSize). The block size is a plumbing knob: every
// size yields byte-identical results, it only tunes batching overhead
// against buffer footprint. Probes without a block path are driven
// per-instruction regardless.
func RunBlock(w Workload, p trace.Probe, budget int64, blockSize int) *Result {
	res, _ := RunBlockCtx(nil, w, p, budget, blockSize)
	return res
}

// RunBlockCtx is RunBlock bound to a context: a cancelled ctx aborts
// the run early — the emitter zeroes its budget at the next poll (a
// few thousand instructions), the kernel winds down, and the call
// returns ctx.Err() with a nil Result. The truncated stream the probe
// observed must be discarded, never published: a cancelled run's
// tallies are not a prefix-deterministic artefact. A nil or background
// context never cancels and behaves exactly like RunBlock.
func RunBlockCtx(ctx context.Context, w Workload, p trace.Probe, budget int64, blockSize int) (*Result, error) {
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err // cancelled before any work
		}
		done = ctx.Done()
	}
	l := mem.NewLayout()
	e := trace.NewBlockEmitter(p, budget, blockSize)
	e.SetCancel(done)
	seed := idSeed(w.ID)
	rt := stack.NewRuntime(w.Stack, e, l, seed)
	code := trace.NewRoutine(l, w.ID+"/kernel", kernelCodeKB<<10)
	e.Enter(code)
	c := &Ctx{E: e, RT: rt, L: l, Rng: xrand.New(seed ^ 0xC0FFEE), Code: code}
	w.Kernel.Run(c)
	e.Flush()
	// Any cancellation during the run condemns the result — not just
	// one the emitter's periodic poll observed. The signal can land
	// after the last poll but before the tail flush, in which case a
	// probe watching the same ctx (machine.StackSweep.Cancel) has already
	// drained deliveries the emitter still counted; the only safe
	// answer is abort.
	if e.Canceled() || (ctx != nil && ctx.Err() != nil) {
		return nil, ctx.Err()
	}
	insts := e.Emitted()
	cw := c.CPUWeight
	if cw <= 0 {
		cw = 1
	}
	res := &Result{
		Workload: w,
		Insts:    insts,
		InBytes:  c.InBytes, OutBytes: c.OutBytes, InterBytes: c.InterBytes,
		Records:   c.Records,
		CPUWeight: cw,
	}
	if insts > 0 {
		res.FrameworkShare = float64(rt.FrameworkInsts) / float64(insts)
	}
	return res, nil
}

// DataRatio is the paper's §3.2.2 data-behaviour classification of an
// output(or intermediate)-to-input byte ratio.
type DataRatio int

// Data-behaviour classes.
const (
	// RatioNone means no data of that kind is produced (ratio < 0.01).
	RatioNone DataRatio = iota
	// RatioLess means between 1% and 90% of the input (Out<In).
	RatioLess
	// RatioEqual means within [0.9, 1.1) of the input (Out=In).
	RatioEqual
	// RatioMore means at least 1.1x the input (Out>In).
	RatioMore
)

var ratioNames = []string{"<<Input", "<Input", "=Input", ">Input"}

// String renders the class in the paper's Table 2 notation.
func (r DataRatio) String() string { return ratioNames[r] }

// ClassifyRatio applies the paper's thresholds to out/in.
func ClassifyRatio(out, in uint64) DataRatio {
	if in == 0 {
		return RatioNone
	}
	r := float64(out) / float64(in)
	switch {
	case r < 0.01:
		return RatioNone
	case r < 0.9:
		return RatioLess
	case r < 1.1:
		return RatioEqual
	default:
		return RatioMore
	}
}

// ShardSlice returns the shard-th of count interleaved slices of list
// (elements whose index ≡ shard mod count) — the deterministic
// partition cooperating CLI shards agree on.
func ShardSlice(list []Workload, shard, count int) []Workload {
	var out []Workload
	for i, w := range list {
		if i%count == shard {
			out = append(out, w)
		}
	}
	return out
}

func idSeed(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}
