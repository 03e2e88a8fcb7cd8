package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported number and its unit. BENCHMARK.json
// lists the same names and units; the smoke test keeps the two equal.
type metricDef struct{ name, unit string }

// endToEnd are the numbers a user of the system sees. Every workload
// reports all of them; what one operation is differs per workload (see
// README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the numbers of single layers, named after the modules
// they time. A traced run reports all of them; a layer a workload does
// not reach reads 0.
var perLayer = []metricDef{
	{"trace.gen.busy_s", "s"},
	{"trace.gen.insts", "count"},
	{"datagen.generations", "count"},
	{"machine.profile.busy_s", "s"},
	{"machine.profile.runs", "count"},
	{"machine.profile.minsts_per_s", "Minst/s"},
	{"sweep.stackdist.busy_s", "s"},
	{"sweep.stackdist.passes", "count"},
	{"sweep.stackdist.minsts_per_s", "Minst/s"},
	{"engine.primers.busy_s", "s"},
	{"render.busy_s", "s"},
	{"engine.parallel_efficiency", "ratio"},
	{"store.mem.hits", "count"},
	{"store.mem.fills", "count"},
	{"store.mem.evictions", "count"},
	{"store.mem.hit_ratio", "ratio"},
	{"store.disk.put_busy_s", "s"},
	{"store.disk.puts", "count"},
	{"store.disk.put_mb", "MB"},
	{"store.http.get_busy_s", "s"},
	{"store.http.put_busy_s", "s"},
	{"store.http.gets", "count"},
	{"store.http.puts", "count"},
	{"store.http.retries", "count"},
	{"serve.computes", "count"},
	{"serve.cold.compute_busy_s", "s"},
	{"serve.queue.wait_p50_ms", "ms"},
	{"fleet.proxied", "count"},
	{"fleet.proxy_fallback", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"other.busy_s", "s"},
	{"trace.overhead", "ratio"},
}

// busyLayers are the layer times, in thread CPU seconds, that
// other.busy_s subtracts from the untraced run's CPU time. The other
// busy_s layers are summed wall time (engine units, store calls, SSE
// compute spans), often spent waiting, so they cannot be subtracted
// from CPU time.
var busyLayers = []string{"trace.gen.busy_s", "machine.profile.busy_s", "sweep.stackdist.busy_s"}

// childResult is what one child process reports to the parent.
type childResult struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Errors lists failed correctness checks: digest mismatches, warm
	// bytes that differ from the primed ones, a decomposition that does
	// not match the measured run.
	Errors []string `json:"errors,omitempty"`
	// Digests holds the SHA-256 of every output checked by name.
	Digests map[string]string  `json:"digests,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	// Samples counts the samples behind each timing.
	Samples map[string]int `json:"samples,omitempty"`
	// Notes are extra "name value unit" lines for people: the tail's
	// percentile, per-class latencies and the like.
	Notes []string `json:"notes,omitempty"`
	// ScopeCPU is the CPU time of the work a traced run decomposes: one
	// batch iteration, or the serving phase.
	ScopeCPU float64 `json:"scope_cpu_s"`
}

func newResult() *childResult {
	return &childResult{Digests: map[string]string{}, Metrics: map[string]float64{}, Samples: map[string]int{}}
}

func (r *childResult) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// latency records the end-to-end timings of operations that took lat:
// the median, the tail, and the throughput and CPU time per operation
// over wall, with cpu the process CPU time they took.
func (r *childResult) latency(lat []time.Duration, wall time.Duration, cpu float64) {
	p50, tail, which := summarize(lat)
	r.Metrics["p50_ms"] = p50
	r.Metrics["tail_ms"] = tail
	r.Samples["p50_ms"] = len(lat)
	r.Samples["tail_ms"] = len(lat)
	r.note("tail_ms.percentile", which, "")
	if len(lat) > 0 {
		r.Metrics["ops_per_s"] = float64(len(lat)) / wall.Seconds()
		r.Metrics["cpu_ms_per_op"] = cpu * 1000 / float64(len(lat))
	}
}

func (r *childResult) note(name string, v any, unit string) {
	r.Notes = append(r.Notes, fmt.Sprintf("%s %v %s", name, v, unit))
}

// summarize returns the median and the tail of lat in milliseconds.
// The tail is the highest of p99, p95 and p90 that has at least ten
// samples beyond it, or the maximum when none has; which names it.
func summarize(lat []time.Duration) (p50, tail float64, which string) {
	if len(lat) == 0 {
		return 0, 0, "none"
	}
	ms := sortedMS(lat)
	p50 = quantile(ms, 0.5)
	for _, p := range []struct {
		q    float64
		name string
	}{{0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}} {
		if float64(len(ms))*(1-p.q) >= 10 {
			return p50, quantile(ms, p.q), p.name
		}
	}
	return p50, ms[len(ms)-1], "max"
}

// pct is the q-quantile of ds in milliseconds.
func pct(ds []time.Duration, q float64) float64 { return quantile(sortedMS(ds), q) }

func sortedMS(ds []time.Duration) []float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = msOf(d)
	}
	sort.Float64s(ms)
	return ms
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// threadCPU is the calling thread's CPU time. Callers lock their
// goroutine to its thread first.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD on Linux
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration((tv(ru.Utime) + tv(ru.Stime)) * float64(time.Second))
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// memSnap is the allocator and collector state at one instant.
type memSnap struct {
	alloc, pauseNs uint64
	gcs            uint32
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{alloc: m.TotalAlloc, pauseNs: m.PauseTotalNs, gcs: m.NumGC}
}

// goMetrics records the Go runtime's work between two snapshots.
func (r *childResult) goMetrics(a, b memSnap) {
	r.Metrics["go.alloc_mb"] = float64(b.alloc-a.alloc) / (1 << 20)
	r.Metrics["go.gc_cycles"] = float64(b.gcs - a.gcs)
	r.Metrics["go.gc_pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6
}
