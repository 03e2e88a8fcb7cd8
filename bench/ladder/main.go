// Command ladder is the repository's end-to-end and per-layer
// benchmark. It runs four workloads (paper-cold, sweep-geometries,
// serve-warm, serve-mixed), each in fresh child processes re-executed
// from its own binary, checks every output, and prints every metric as
// "name value unit" followed by one JSON summary line.
//
// Run it from the repository root:
//
//	bash bench/ladder/run.sh [-workload W|all] [-seed N] [-seconds S]
//	    [-runs N] [-trace 0|1] [-out report.json] [-trace-out spans.jsonl]
//
// -trace 0 reports the end-to-end metrics, their timings scaled to a
// reference machine's speed (hostspeed.go); -trace 1 runs each workload
// untraced and then traced and reports the per-layer metrics. The exit
// status is 1 when any output is wrong or any operation failed. See
// README.md for the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == childFlag {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(parentMain(os.Args[1:]))
}

// workDir holds the children's scratch directories and the spans,
// relative to the directory the benchmark runs in.
const workDir = ".bench_build"

// childTimeout bounds one child process.
const childTimeout = 170 * time.Second

// setupGap spaces one run's set-up samples so that their median covers
// about a second of the host's state: taken back to back, the median of
// a few-millisecond process start moved by a third between successive
// tenths of a second on a shared two-vCPU machine.
const setupGap = 30 * time.Millisecond

// options are the parent's settings, passed on to every child.
type options struct {
	seed     uint64
	seconds  float64
	traced   bool
	traceOut string
}

func parentMain(args []string) int {
	var names []string
	for _, w := range benchWorkloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("ladder", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed of every generated input (2 is held out for claims)")
	// BENCHMARK.json's invocation passes --seconds with its run_seconds,
	// which the default equals.
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	runs := fs.Int("runs", 1, "runs per workload; with more than one, print medians, quartiles and spreads")
	traceMode := fs.Int("trace", 0, "1 runs each workload untraced, then traced, and reports the per-layer metrics")
	out := fs.String("out", "", "also write the full report here as JSON")
	traceOut := fs.String("trace-out", "", "spans of the traced run as JSON lines (default "+workDir+"/spans-<workload>.jsonl)")
	update := fs.Bool("update-golden", false, "record the outputs' digests in "+goldenPath+" instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *runs < 1 || *traceMode < 0 || *traceMode > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "ladder: bad arguments; see -h")
		return 2
	}
	selected := benchWorkloads
	if *name != "all" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "ladder: unknown workload %q (want %s or all)\n", *name, strings.Join(names, ", "))
			return 2
		}
		selected = []workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladder:", err)
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traceMode == 1}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	host := hostEnv()
	fmt.Printf("# ladder seed=%d seconds=%g trace=%d %s\n", o.seed, o.seconds, *traceMode, host)
	bounds := readBounds("BENCHMARK.json")

	rep := report{Host: host, Seed: o.seed, Seconds: o.seconds, Trace: *traceMode, Workloads: map[string][]*runResult{}}
	summary := map[string]float64{}
	correct, attempted, failed := true, int64(0), int64(0)
	digests := map[string]string{}
	for _, w := range selected {
		o.traceOut = *traceOut
		if o.traceOut == "" {
			o.traceOut = filepath.Join(workDir, "spans-"+w.name+".jsonl")
		}
		var results []*runResult
		for i := 0; i < *runs; i++ {
			res, err := runWorkload(exe, w, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ladder: %s: %v\n", w.name, err)
				return 1
			}
			fmt.Printf("## %s run %d\n", w.name, i+1)
			res.print(defs)
			results = append(results, res)
			attempted += res.Attempted
			failed += res.Failed
			correct = correct && len(res.Errors) == 0
			for k, v := range res.Digests {
				digests[k] = v
			}
		}
		rep.Workloads[w.name] = results
		medians := summarizeRuns(w.name, defs, results, bounds)
		for k, v := range medians {
			if len(selected) > 1 {
				k = w.name + "." + k
			}
			summary[k] = v
		}
	}
	if *update {
		if err := updateGolden(digests); err != nil {
			fmt.Fprintln(os.Stderr, "ladder: update golden:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "ladder: recorded %d digests in %s\n", len(digests), goldenPath)
		correct = true
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ladder: report:", err)
			return 1
		}
	}

	units := map[string]string{}
	for _, d := range defs {
		units[d.name] = d.unit
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for k, v := range summary {
		unit := units[k]
		if _, m, ok := strings.Cut(k, "."); ok && unit == "" {
			unit = units[m]
		}
		metrics[k] = value{v, unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladder:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct || failed > 0 {
		return 1
	}
	return 0
}

// runResult is one run of one workload as the parent reports it.
type runResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Digests   map[string]string  `json:"digests,omitempty"`
}

// runWorkload makes one run: untraced, the end-to-end metrics from
// w.setups fresh processes, the last of which also measures, scaled to
// the reference machine's speed; traced, an untraced and a traced child
// and the per-layer metrics.
func runWorkload(exe string, w workload, o options) (*runResult, error) {
	if !o.traced {
		before := timeHostLoops()
		var setups []float64
		for i := 1; ; i++ {
			ch, err := startChild(exe, w, o, i < w.setups, "")
			if err != nil {
				return nil, err
			}
			setups = append(setups, ch.ready.Seconds())
			if i < w.setups {
				if err := ch.wait(); err != nil {
					return nil, err
				}
				time.Sleep(setupGap)
				continue
			}
			res, err := ch.result()
			if err != nil {
				return nil, err
			}
			sort.Float64s(setups)
			out := newRunResult(res, endToEnd)
			out.Metrics["setup_s"] = median(setups)
			out.Samples["setup_s"] = len(setups)
			out.Metrics["peak_rss_mb"] = ch.maxRSSMB
			out.scaleTimings(hostFactor(before, timeHostLoops()))
			return out, nil
		}
	}
	ch, err := startChild(exe, w, o, false, "")
	if err != nil {
		return nil, err
	}
	u, err := ch.result()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err != nil {
		return nil, err
	}
	if ch, err = startChild(exe, w, o, false, o.traceOut); err != nil {
		return nil, err
	}
	t, err := ch.result()
	if err != nil {
		return nil, err
	}
	return layerResult(u, t), nil
}

// layerResult assembles the per-layer metrics of a traced run t from
// it and its untraced twin u.
func layerResult(u, t *childResult) *runResult {
	out := newRunResult(t, perLayer)
	busy := 0.0
	for _, name := range busyLayers {
		busy += t.Metrics[name]
	}
	out.Metrics["other.busy_s"] = u.ScopeCPU - busy
	if u.Metrics["p50_ms"] > 0 {
		out.Metrics["trace.overhead"] = t.Metrics["p50_ms"]/u.Metrics["p50_ms"] - 1
	}
	out.Attempted += u.Attempted
	out.Failed += u.Failed
	out.Errors = append(out.Errors, u.Errors...)
	out.Notes = append(out.Notes, fmt.Sprintf("untraced.cpu_s %v s", u.ScopeCPU), fmt.Sprintf("untraced.p50_ms %v ms", u.Metrics["p50_ms"]))
	return out
}

// newRunResult keeps res's metrics named in defs, zero where res has
// none.
func newRunResult(res *childResult, defs []metricDef) *runResult {
	out := &runResult{
		Metrics: map[string]float64{}, Samples: map[string]int{}, Notes: res.Notes,
		Attempted: res.Attempted, Failed: res.Failed, Errors: res.Errors, Digests: res.Digests,
	}
	for _, d := range defs {
		out.Metrics[d.name] = res.Metrics[d.name]
		if n, ok := res.Samples[d.name]; ok {
			out.Samples[d.name] = n
		}
	}
	return out
}

// scaleTimings scales the end-to-end timings to the reference machine,
// f being how much slower than it the host ran (see hostspeed.go):
// times are divided by f and the throughput is multiplied by it. Memory
// is left as measured, and the measured timings are kept as notes.
func (r *runResult) scaleTimings(f float64) {
	for _, d := range endToEnd {
		v := r.Metrics[d.name]
		switch d.name {
		case "peak_rss_mb":
			continue
		case "ops_per_s":
			r.Metrics[d.name] = v * f
		default:
			r.Metrics[d.name] = v / f
		}
		r.Notes = append(r.Notes, fmt.Sprintf("measured.%s %v %s", d.name, v, d.unit))
	}
	r.Notes = append(r.Notes, fmt.Sprintf("host.factor %v", f))
}

func (r *runResult) print(defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%s %s %s", d.name, strconv.FormatFloat(r.Metrics[d.name], 'g', -1, 64), d.unit)
		if n, ok := r.Samples[d.name]; ok {
			fmt.Printf(" n=%d", n)
		}
		fmt.Println()
	}
	for _, n := range r.Notes {
		fmt.Println("#", n)
	}
	fmt.Printf("# attempted %d failed %d\n", r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Println("# error:", e)
	}
}

// summarizeRuns returns each metric's median over the runs and, with
// more than one run, prints the median, the quartiles and two spreads:
// the interquartile range and the full range, each over the median. A
// metric whose full range exceeds its bound is flagged.
func summarizeRuns(name string, defs []metricDef, runs []*runResult, bounds map[string]float64) map[string]float64 {
	med := map[string]float64{}
	for _, d := range defs {
		var v []float64
		for _, r := range runs {
			v = append(v, r.Metrics[d.name])
		}
		sort.Float64s(v)
		m := median(v)
		med[d.name] = m
		if len(runs) < 2 {
			continue
		}
		q1, q3 := quartiles(v)
		iqr, rng := 0.0, 0.0
		if m != 0 {
			iqr, rng = (q3-q1)/m, (v[len(v)-1]-v[0])/m
		}
		mark := ""
		if b, ok := bounds[d.name]; ok && rng > b {
			mark = fmt.Sprintf("  SPREAD > bound %g", b)
		}
		fmt.Printf("# %s %s median %.6g q1 %.6g q3 %.6g iqr %.1f%% range %.1f%% n=%d%s\n",
			name, d.name, m, q1, q3, 100*iqr, 100*rng, len(v), mark)
	}
	return med
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the first and third quartiles of sorted values as
// Python's statistics.quantiles(values, n=4) computes them (the
// exclusive method).
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// readBounds returns the end-to-end bounds in the BENCHMARK.json at
// path, or nil when there is none.
func readBounds(path string) map[string]float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var f struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &f) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range f.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// child is one child process running one workload.
type child struct {
	cmd      *exec.Cmd
	cancel   context.CancelFunc
	lines    *bufio.Scanner
	work     string
	ready    time.Duration // from start until the child finished set-up
	maxRSSMB float64
}

// startChild starts w in a fresh process with its own scratch
// directory and waits until it has set up.
func startChild(exe string, w workload, o options, setupOnly bool, traceOut string) (*child, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	args := []string{childFlag, "-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-work", work}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	// A child outlives nothing: it is killed when the benchmark is.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		cancel()
		os.RemoveAll(work)
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		cancel()
		os.RemoveAll(work)
		return nil, err
	}
	ch := &child{cmd: cmd, cancel: cancel, lines: bufio.NewScanner(stdout), work: work}
	ch.lines.Buffer(make([]byte, 64<<10), 64<<20)
	if !ch.lines.Scan() || ch.lines.Text() != "ready" {
		return nil, ch.failed(errors.New("child exited before set-up finished"))
	}
	ch.ready = time.Since(start)
	return ch, nil
}

// result reads the child's JSON result and waits for it to exit.
func (ch *child) result() (*childResult, error) {
	if !ch.lines.Scan() {
		return nil, ch.failed(errors.New("child exited without a result"))
	}
	var res childResult
	if err := json.Unmarshal(ch.lines.Bytes(), &res); err != nil {
		return nil, ch.failed(fmt.Errorf("child result: %w", err))
	}
	if err := ch.wait(); err != nil {
		return nil, err
	}
	return &res, nil
}

// wait waits for the child to exit and removes its scratch directory.
func (ch *child) wait() error {
	for ch.lines.Scan() {
	}
	err := ch.cmd.Wait()
	ch.cancel()
	os.RemoveAll(ch.work)
	if err != nil {
		return fmt.Errorf("child: %w", err)
	}
	if ru, ok := ch.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		ch.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return nil
}

// failed stops the child after a protocol error and reports both.
func (ch *child) failed(err error) error {
	ch.cmd.Process.Kill()
	if werr := ch.wait(); werr != nil {
		return fmt.Errorf("%w (%v)", err, werr)
	}
	return err
}

// report is the JSON written by -out.
type report struct {
	Host      hostInfo                `json:"host"`
	Seed      uint64                  `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Trace     int                     `json:"trace"`
	Workloads map[string][]*runResult `json:"workloads"`
}

// hostInfo records where a report's numbers came from.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Revision   string `json:"vcs_revision"`
}

func hostEnv() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Go: runtime.Version(), Revision: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, modified := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if rev != "" {
			h.Revision = rev
			if modified {
				h.Revision += "+modified"
			}
		}
	}
	return h
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s vcs.revision=%s", h.NProc, h.GOMAXPROCS, h.CPU, h.Go, h.Revision)
}
