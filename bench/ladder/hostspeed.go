package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The host's speed drifts. On a shared two-vCPU virtual machine a fixed
// loop's time moved by 15% within a minute, and the workloads' timings
// by 20–60% between stretches minutes to hours apart, so ten runs of
// one workload spread by up to 28% with nothing changed. Each untraced
// run therefore times three fixed loops before and after it, one bound
// by arithmetic and two by memory latency at two working-set sizes, and
// scales its timings to the speed at which the loops take their
// reference times. When the drift is large, the scaled timings spread
// about half as much as the measured ones (see README.md). The loops are
// the benchmark's own code and run in the parent process, so a change to
// the program moves the scaled timings exactly as much as the raw ones.

// hostLoop is one fixed loop, run on every processor at once, and its
// median time on the machine that set the bounds (see README.md): half
// the median over 40 runs of twice as long a loop for the arithmetic and
// 64 MB loops, over 84 for the 8 MB one.
type hostLoop struct {
	run func(w int) uint64
	ref float64
}

var hostLoops = []hostLoop{
	{aluLoop, 0.1825},
	{func(w int) uint64 { return walk(table64MB(), w, 2_000_000) }, 0.40},
	{func(w int) uint64 { return walk(table8MB(), w, 2_000_000) }, 0.314},
}

func aluLoop(w int) uint64 {
	h := uint64(w + 1)
	for i := 0; i < 75_000_000; i++ {
		h = h*6364136223846793005 + 1442695040888963407
		h ^= h >> 17
	}
	return h
}

// walk follows steps dependent loads through table, whose length is a
// power of two.
func walk(table []uint32, w, steps int) uint64 {
	mask := uint32(len(table) - 1)
	p := uint32(w)
	for i := 0; i < steps; i++ {
		p = table[(p+uint32(i))&mask]
	}
	return uint64(p)
}

var (
	table64MB = sync.OnceValue(func() []uint32 { return walkTable(16 << 20) })
	table8MB  = sync.OnceValue(func() []uint32 { return walkTable(2 << 20) })
)

// walkTable is n pseudo-random indexes into itself; n is a power of two.
func walkTable(n int) []uint32 {
	t := make([]uint32, n)
	x := uint32(1)
	for i := range t {
		x = x*1664525 + 1013904223
		t[i] = x & uint32(n-1)
	}
	return t
}

// timeHostLoops returns each loop's time in seconds.
func timeHostLoops() []float64 {
	times := make([]float64, len(hostLoops))
	for i, l := range hostLoops {
		times[i] = onEveryProc(l.run).Seconds()
	}
	return times
}

// sink keeps the loops' results live.
var sink []uint64

func onEveryProc(f func(w int) uint64) time.Duration {
	out := make([]uint64, runtime.GOMAXPROCS(0))
	start := time.Now()
	var wg sync.WaitGroup
	for w := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[w] = f(w)
		}()
	}
	wg.Wait()
	d := time.Since(start)
	sink = out
	return d
}

// hostFactor is how much slower than the reference machine the host ran
// across one run: the geometric mean of every loop time before and
// after it, each over its reference.
func hostFactor(before, after []float64) float64 {
	logs := 0.0
	for i, l := range hostLoops {
		logs += math.Log(before[i]/l.ref) + math.Log(after[i]/l.ref)
	}
	return math.Exp(logs / float64(2*len(hostLoops)))
}
