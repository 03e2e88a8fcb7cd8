package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

// childFlag, as the first argument, makes the binary run one workload
// as a child process of the benchmark.
const childFlag = "-ladder-child"

// sizes fixes the budgets every workload runs at. benchSizes are the
// benchmark's; the smoke test shrinks them and checks no digests.
type sizes struct {
	paper  experiments.Options // paper-cold: the paper's own fidelity
	sweep  int64               // sweep-geometries: budget per workload
	serve  experiments.Options // fidelity of both serving workloads
	golden bool                // compare outputs with testdata/golden.json
}

func benchSizes() sizes {
	return sizes{
		paper:  experiments.Default(),
		sweep:  1_500_000,
		serve:  experiments.Quick(),
		golden: true,
	}
}

// childRun is one workload run inside a child process.
type childRun struct {
	seed      uint64
	seconds   time.Duration
	setupOnly bool   // stop after set-up: the run is one set-up-time sample
	work      string // scratch directory inside the checkout
	size      sizes
	golden    map[string]string
	tr        *tracer // nil when untraced
	ready     func()  // marks the end of set-up
}

// workload is one benchmark workload.
type workload struct {
	name string
	// setups is how many fresh processes set the workload up in one
	// run; setup_s is the median of their set-up times.
	setups int
	run    func(*childRun) (*childResult, error)
}

// benchWorkloads stress different layers; README.md says why each one.
var benchWorkloads = []workload{
	// The paper's product, mostly machine-model profiling.
	{"paper-cold", 31, runPaperCold},
	// Stack-distance sweeps and no profiling.
	{"sweep-geometries", 31, runSweepGeometries},
	// Serving and the memory store, no simulation.
	{"serve-warm", 3, runServeWarm},
	// Cold fills, proxy hops and evictions beside warm reads.
	{"serve-mixed", 3, runServeMixed},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// markReady tells the parent that set-up has ended and restarts the
// kernel's count of peak resident memory, so the peak the parent reads
// from the child's rusage is that of the measured work. A serving
// workload's priming peaks with however its concurrent computations
// happen to overlap, which moved the whole process's peak by a third
// from run to run.
func markReady() {
	fmt.Println("ready")
	// Writing 5 to clear_refs resets the peak (Linux).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "ladder: peak memory includes set-up:", err)
	}
}

// childMain runs one workload and prints "ready" when set-up ends, then
// the result as one JSON line.
func childMain(args []string) int {
	fs := flag.NewFlagSet("ladder child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "measured seconds")
	setupOnly := fs.Bool("setup-only", false, "exit after set-up")
	work := fs.String("work", "", "scratch directory")
	traceOut := fs.String("trace-out", "", "trace the run and write its spans here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "ladder: unknown workload %q\n", *name)
		return 2
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladder: golden digests:", err)
		return 1
	}
	c := &childRun{
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		setupOnly: *setupOnly,
		work:      *work,
		size:      benchSizes(),
		golden:    golden,
		ready:     markReady,
	}
	if *traceOut != "" {
		c.tr = newTracer()
	}
	res, err := w.run(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ladder: %s: %v\n", w.name, err)
		return 1
	}
	if c.setupOnly {
		return 0
	}
	if c.tr != nil {
		if err := c.tr.write(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "ladder: spans:", err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "ladder:", err)
		return 1
	}
	return 0
}
