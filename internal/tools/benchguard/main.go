// Command benchguard compares a bench2json results file against a
// committed baseline and fails (exit 1) when any benchmark matching a
// pattern regressed beyond a tolerance — CI's guard against the sweep
// replay pipeline quietly losing its throughput.
//
//	go run ./internal/tools/benchguard \
//	    -baseline BENCH_baseline.json -current BENCH_results.json \
//	    -match '^BenchmarkSweep' -max-regress 0.25 \
//	    -ratio 'BenchmarkSweepFiguresBlocked<=0.5*BenchmarkSweepFiguresSerial'
//
// Regression is measured on ns/op (current/baseline - 1). go test
// appends -GOMAXPROCS to every benchmark name when GOMAXPROCS > 1 and
// to none at 1, so a file's names lose a trailing -N only when every
// one of them carries the same -N; runs from machines with different
// core counts then compare, and a sub-benchmark's own number
// ("geoms-4") survives a one-proc file. A matched baseline
// benchmark missing from the current run fails too (a rename must
// update the baseline); benchmarks only in the current run are listed
// but don't fail. When the machine legitimately changes or the
// pipeline legitimately slows, refresh the baseline by committing the
// new BENCH_results.json over BENCH_baseline.json.
//
// -ratio adds hardware-independent assertions evaluated *within* the
// current run (comma-separated "A<=F*B" terms: benchmark A's ns/op
// must be at most F times benchmark B's; A and B are looked up exactly
// as written, without a -GOMAXPROCS suffix). Cross-machine baselines
// drift with runner hardware; a within-run ratio — e.g. "the blocked
// figure path is at least twice the serial path's throughput" — holds
// on any machine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type envelope struct {
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []result          `json:"benchmarks"`
}

var trailingNum = regexp.MustCompile(`-\d+$`)

// procSuffix returns the -N that ends every benchmark name, or "" when
// the names do not all end in the same one.
func procSuffix(rs []result) string {
	suffix := ""
	for i, r := range rs {
		s := trailingNum.FindString(r.Name)
		if s == "" || (i > 0 && s != suffix) {
			return ""
		}
		suffix = s
	}
	return suffix
}

// load reads a bench2json file keyed by benchmark name without the
// -GOMAXPROCS suffix.
func load(path string) (map[string]result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	suffix := procSuffix(env.Benchmarks)
	out := make(map[string]result, len(env.Benchmarks))
	for _, r := range env.Benchmarks {
		out[strings.TrimSuffix(r.Name, suffix)] = r
	}
	return out, nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline (bench2json format)")
	currentPath := flag.String("current", "BENCH_results.json", "fresh results (bench2json format)")
	match := flag.String("match", "^BenchmarkSweep", "regexp of benchmark names to guard")
	maxRegress := flag.Float64("max-regress", 0.25, "tolerated fractional ns/op increase before failing")
	ratios := flag.String("ratio", "", `within-run assertions on the current results, comma-separated "A<=F*B" (A's ns/op at most F times B's)`)
	flag.Parse()

	re, err := regexp.Compile(*match)
	if err != nil {
		fatal(err)
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		fatal(err)
	}
	current, err := load(*currentPath)
	if err != nil {
		fatal(err)
	}

	failed := false
	guarded := 0
	for name, base := range baseline {
		if !re.MatchString(name) {
			continue
		}
		guarded++
		cur, ok := current[name]
		if !ok {
			fmt.Printf("FAIL %-32s missing from current run (renamed? refresh the baseline)\n", name)
			failed = true
			continue
		}
		delta := cur.NsPerOp/base.NsPerOp - 1
		status := "ok  "
		if delta > *maxRegress {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %-32s %14.0f -> %14.0f ns/op  (%+.1f%%, tolerance %+.0f%%)\n",
			status, name, base.NsPerOp, cur.NsPerOp, delta*100, *maxRegress*100)
	}
	for name := range current {
		if re.MatchString(name) {
			if _, ok := baseline[name]; !ok {
				fmt.Printf("new  %-32s not in baseline (commit a refreshed baseline to guard it)\n", name)
			}
		}
	}
	if guarded == 0 {
		fatal(fmt.Errorf("no baseline benchmark matches %q", *match))
	}
	if *ratios != "" {
		for _, term := range strings.Split(*ratios, ",") {
			if !checkRatio(strings.TrimSpace(term), current) {
				failed = true
			}
		}
	}
	if failed {
		fmt.Println("benchguard: regression beyond tolerance")
		os.Exit(1)
	}
	fmt.Printf("benchguard: %d benchmark(s) within tolerance\n", guarded)
}

// ratioTerm parses "A<=F*B".
var ratioTerm = regexp.MustCompile(`^([\w/-]+)<=([0-9.]+)\*([\w/-]+)$`)

// checkRatio evaluates one within-run assertion against the current
// results, printing and returning its verdict.
func checkRatio(term string, current map[string]result) bool {
	m := ratioTerm.FindStringSubmatch(term)
	if m == nil {
		fatal(fmt.Errorf("malformed -ratio term %q (want A<=F*B)", term))
	}
	factor, err := strconv.ParseFloat(m[2], 64)
	if err != nil {
		fatal(err)
	}
	a, okA := current[m[1]]
	b, okB := current[m[3]]
	if !okA || !okB {
		fmt.Printf("FAIL ratio %s: benchmark missing from current run\n", term)
		return false
	}
	ratio := a.NsPerOp / b.NsPerOp
	if ratio > factor {
		fmt.Printf("FAIL ratio %-60s measured %.3f > %.3f\n", term, ratio, factor)
		return false
	}
	fmt.Printf("ok   ratio %-60s measured %.3f <= %.3f\n", term, ratio, factor)
	return true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
