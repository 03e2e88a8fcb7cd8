// Command wcrt is the workload characterization and reduction tool of
// the paper's §2.2: it profiles a workload roster on the modelled Xeon
// E5645, collects the 45-metric vectors, normalizes them, applies PCA,
// clusters with K-means and prints the representative subset.
//
// Profiling runs through experiments.Session and the content-keyed
// artifact store, so repeated or combined runs never re-profile a
// workload they have already seen: with -cache-dir the profiles
// persist, and a second wcrt run (or a cmd/repro run at the same
// budget) reads them back instead of re-tracing the roster;
// -store-url shares them through a cmd/artifactd server instead, so
// the shards can live on different machines. -shard i/n distributes
// the profiling: shard processes each profile the i-th of n
// interleaved slices into the shared store and skip the reduction; a
// final run without -shard merges the warm profiles and reduces. -gc
// bounds the -cache-dir (LRU sweep) after the run.
//
// Usage:
//
//	wcrt [-k N] [-budget N] [-set roster|reps] [-metrics] [-csv]
//	     [-cache-dir DIR] [-store-url URL] [-store-token T] [-gc SPEC]
//	     [-mem-quota SPEC] [-shard i/n] [-parallel N]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim/machine"
	"repro/internal/workloads"
)

func main() {
	k := flag.Int("k", 17, "cluster count (<= 0 selects k automatically)")
	budget := flag.Int64("budget", 1_500_000, "instruction budget per workload")
	set := flag.String("set", "roster", "workload set: roster (77) or reps (17)")
	showMetrics := flag.Bool("metrics", false, "print the full 45-metric vector per workload")
	asCSV := flag.Bool("csv", false, "emit metric vectors as CSV")
	shardSpec := flag.String("shard", "", "profile only slice i of n (as i/n, 0-based) into the store and skip the reduction; a later run without -shard merges")
	parallel := flag.Int("parallel", 0, "bound concurrent profiling runs (0 = GOMAXPROCS)")
	storeFlags := cli.RegisterStore(flag.CommandLine)
	flag.Parse()

	var list []workloads.Workload
	switch *set {
	case "roster":
		list = workloads.Roster77()
	case "reps":
		list = workloads.Representative17()
	default:
		fmt.Fprintf(os.Stderr, "wcrt: unknown set %q\n", *set)
		os.Exit(2)
	}

	// One budget for every session cache, so shard fills, reps fills
	// and roster fills share per-workload artifacts at this budget.
	sess := experiments.NewSession(experiments.Options{
		Budget: *budget, SweepBudget: *budget, RosterBudget: *budget,
	})
	sess.Parallelism = *parallel
	st, quota, gcSweep, err := storeFlags.Open()
	if err != nil {
		fatal(err)
	}
	sess.Store = st
	sess.ArtifactStore().SetMemQuota(quota)
	sweep := func() {
		if gcSweep == nil {
			return
		}
		res, err := gcSweep()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wcrt: gc: %s\n", res)
	}

	if *shardSpec != "" {
		i, n, err := experiments.ParseShard(*shardSpec)
		if err != nil {
			fatal(err)
		}
		if st == nil {
			fatal(fmt.Errorf("-shard requires -cache-dir or -store-url: a shard's profiles must persist for the merge run to find them"))
		}
		slice := workloads.ShardSlice(list, i, n)
		fmt.Fprintf(os.Stderr, "wcrt: shard %d/%d profiling %d of %d workloads (%d instructions each)...\n",
			i, n, len(slice), len(list), *budget)
		profiles := sess.Profiles(machine.XeonE5645(), slice, *budget)
		if *showMetrics || *asCSV {
			printMetrics(profiles, *asCSV)
		}
		fmt.Fprintf(os.Stderr, "wcrt: shard done (%d profiling runs executed); run without -shard to merge and reduce\n",
			sess.ProfileRuns())
		sweep()
		return
	}

	fmt.Fprintf(os.Stderr, "wcrt: profiling %d workloads (%d instructions each)...\n", len(list), *budget)
	var profiles []core.Profile
	if *set == "roster" {
		profiles = sess.Roster()
	} else {
		profiles = sess.Reps()
	}

	if *showMetrics || *asCSV {
		printMetrics(profiles, *asCSV)
	}

	a := &core.Analyzer{ExplainTarget: 0.9, Seed: 0x5EED}
	red, err := a.Reduce(profiles, *k)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("PCA: kept %d of %d dimensions (%.1f%% variance)\n",
		red.Dimensions, metrics.NumMetrics, red.Explained*100)
	fmt.Printf("K-means: %d clusters\n\n", red.K)
	t := report.Table{Headers: []string{"representative", "represents", "members"}}
	for _, c := range red.Clusters {
		names := ""
		for i, m := range c.Members {
			if i > 0 {
				names += " "
			}
			names += red.Names[m]
		}
		t.Add(red.Names[c.Representative], len(c.Members), names)
	}
	t.Render(os.Stdout)
	sweep()
}

// printMetrics writes the profiles' 45-metric vectors to stdout as a
// table or CSV.
func printMetrics(profiles []core.Profile, asCSV bool) {
	t := report.Table{Title: "45-metric characterization",
		Headers: append([]string{"workload"}, metrics.Names()...)}
	for _, p := range profiles {
		cells := make([]interface{}, 0, metrics.NumMetrics+1)
		cells = append(cells, p.Workload.ID)
		for _, v := range p.Vector {
			cells = append(cells, v)
		}
		t.Add(cells...)
	}
	if asCSV {
		t.CSV(os.Stdout)
	} else {
		t.Render(os.Stdout)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wcrt:", err)
	os.Exit(1)
}
