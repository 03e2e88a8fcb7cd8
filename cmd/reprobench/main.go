// Command reprobench load-tests a reprod fleet against committed goal
// files and fails on regression — the serving-layer gate next to the
// microbenchmark baseline (BENCH_baseline.json + benchguard).
//
// It loads one goal directory (a machine class in machine.json plus
// one cases/*/experiment.json per case, see internal/loadgen and
// bench/goals/README.md), ramps each case's scenario mix over the
// target replicas via the v1 API, records throughput, p50/p90/p99
// latency, fleet-wide compute counters (/v1/stats deltas) and — given
// -pids — peak RSS, then compares every number against the case's
// goals and the machine class's limits.
//
// Exit status 0 means every goal held; 1 means at least one goal
// regressed (each violation is printed benchguard-style); 2 means the
// run itself failed (unreachable fleet, bad goal files).
//
// Usage:
//
//	reprobench -goals bench/goals/ci-1core \
//	           -targets http://127.0.0.1:19561,http://127.0.0.1:19562 \
//	           [-out report.json] [-pids 123,456] [-salt S] [-timeout 2m]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/loadgen"
)

func main() {
	goals := flag.String("goals", "", "goal directory (machine.json + cases/*/experiment.json)")
	targets := flag.String("targets", "", "comma-separated reprod replica base URLs")
	out := flag.String("out", "", "write the JSON report here (\"\" = stdout only)")
	pids := flag.String("pids", "", "comma-separated PIDs whose summed RSS is sampled (replicas + artifactd)")
	salt := flag.String("salt", "", "cold-key salt (\"\" = derived from the clock; fix it to reproduce a run's keys)")
	timeout := flag.Duration("timeout", 0, "per-request timeout (0 = the suite's machine.json request_timeout, or 2m)")
	flag.Parse()
	if *goals == "" || *targets == "" {
		fmt.Fprintln(os.Stderr, "reprobench: -goals and -targets are required")
		os.Exit(2)
	}

	suite, err := loadgen.LoadSuite(*goals)
	if err != nil {
		fatal(err)
	}
	r := &loadgen.Runner{
		Salt: *salt,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "reprobench: "+format+"\n", args...)
		},
	}
	if *timeout > 0 {
		// An explicit flag overrides the suite's request_timeout; left
		// at 0, the runner reads it from machine.json (2m fallback).
		r.Client = &http.Client{Timeout: *timeout}
	}
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			r.Targets = append(r.Targets, t)
		}
	}
	for _, p := range strings.Split(*pids, ",") {
		if p = strings.TrimSpace(p); p != "" {
			pid, err := strconv.Atoi(p)
			if err != nil {
				fatal(fmt.Errorf("bad -pids entry %q: %w", p, err))
			}
			r.PIDs = append(r.PIDs, pid)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	report, err := r.Run(ctx, suite)
	if err != nil {
		fatal(err)
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(enc))
	if *out != "" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	if len(report.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "reprobench: %d goal(s) regressed on machine class %s:\n",
			len(report.Failures), suite.Machine.Name)
		for _, f := range report.Failures {
			fmt.Fprintf(os.Stderr, "reprobench:   FAIL %s\n", f)
		}
		fmt.Fprintln(os.Stderr, "reprobench: if this is an accepted change, recalibrate the goal files under", *goals)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "reprobench: all %d case(s) passed on machine class %s\n",
		len(report.Cases), suite.Machine.Name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reprobench:", err)
	os.Exit(2)
}
