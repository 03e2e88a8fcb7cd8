// Command bdbench runs big data workloads on the modelled machines and
// prints their micro-architectural characterization, one row per
// workload — the per-workload view behind the paper's Figs. 1-5.
//
// Rows are printed from experiments.Session.Profiles, so each
// (machine, workload, budget) profile is the same store artefact that
// cmd/wcrt and cmd/repro fill: with -cache-dir a repeated run — or a
// run after wcrt or repro at the same budget — re-executes nothing,
// and -shard i/n lets n processes split a set (each prints only its
// interleaved slice) while sharing the store — across machines when
// they share a cmd/artifactd server via -store-url. -gc bounds the
// -cache-dir (LRU sweep) after the run.
//
// Ids select workloads of the set by name, case-insensitively. An
// unknown -set or -machine, or an id that matches nothing in the set,
// exits 2.
//
// Usage:
//
//	bdbench [-budget N] [-machine xeon|atom] [-set reps|mpi|all|roster]
//	        [-parallel N] [-cache-dir DIR] [-store-url URL]
//	        [-store-token T] [-gc SPEC] [-mem-quota SPEC] [-shard i/n]
//	        [id ...]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim/branch"
	"repro/internal/sim/machine"
	"repro/internal/workloads"
)

func main() {
	budget := flag.Int64("budget", 2_000_000, "instruction budget per workload")
	mach := flag.String("machine", "xeon", "machine model: xeon or atom")
	set := flag.String("set", "reps", "workload set: reps, mpi, all (reps+mpi) or roster")
	parallel := flag.Int("parallel", 0, "bound concurrent workload runs (0 = GOMAXPROCS, 1 = serial)")
	shardSpec := flag.String("shard", "", "run only slice i of n of the set, as i/n (0-based)")
	storeFlags := cli.RegisterStore(flag.CommandLine)
	flag.Parse()

	usage := func(err error) {
		fmt.Fprintln(os.Stderr, "bdbench:", err)
		os.Exit(2)
	}
	cfg, list, err := selectRun(*set, *mach, flag.Args())
	if err != nil {
		usage(err)
	}
	if *shardSpec != "" {
		i, n, err := experiments.ParseShard(*shardSpec)
		if err != nil {
			usage(err)
		}
		list = workloads.ShardSlice(list, i, n)
	}
	st, quota, sweep, err := storeFlags.Open()
	if err != nil {
		usage(err)
	}
	sess := experiments.NewSession(experiments.Options{Budget: *budget})
	sess.Parallelism = *parallel
	sess.Store = st
	sess.ArtifactStore().SetMemQuota(quota)
	profiles := sess.Profiles(cfg, list, *budget)

	fmt.Printf("%-18s %5s %6s %6s %6s %6s %6s %5s %6s %5s %5s %5s %5s %5s %6s %6s %6s %5s %6s %6s %6s %6s %6s\n",
		"workload", "IPC", "L1I", "L1D", "L2", "L2I%", "L3", "brM%", "mCRI", "br%", "ld%", "st%", "int%", "fp%",
		"ITLB", "DTLB", "codeKB", "fw%", "ILP", "MLP", "front%", "imS/KI", "mpS/KI")
	for _, p := range profiles {
		v := p.Vector
		fmt.Printf("%-18s %5.2f %6.1f %6.1f %6.1f %6.0f %6.2f %5.1f %6s %5.1f %5.1f %5.1f %5.1f %5.1f %6.3f %6.3f %6.0f %5.1f %6.1f %6.1f %6.1f %6.0f %6.0f\n",
			p.Workload.ID, v[metrics.IPC], v[metrics.L1IMPKI], v[metrics.L1DMPKI], v[metrics.L2MPKI],
			v[metrics.L2InstShare]*100, v[metrics.L3MPKI],
			v[metrics.BrMispredictRatio]*100, mispredictClasses(p.Branch),
			v[metrics.MixBranch]*100, v[metrics.MixLoad]*100, v[metrics.MixStore]*100,
			v[metrics.MixInt]*100, v[metrics.MixFP]*100,
			v[metrics.ITLBMPKI], v[metrics.DTLBMPKI],
			v[metrics.CodeFootprintKB], p.Run.FrameworkShare*100, v[metrics.ILP], v[metrics.MLP],
			v[metrics.FrontStallRatio]*100,
			v[metrics.IMissStallPerKI], v[metrics.MispredictStallPerKI])
	}
	if sweep != nil {
		res, err := sweep()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bdbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bdbench: gc: %s\n", res)
	}
}

// mispredictClasses renders the mCRI column: the percentage of
// mispredictions that were conditional, return and indirect branches.
func mispredictClasses(st branch.Stats) string {
	tot := float64(st.Mispredicts)
	if tot == 0 {
		tot = 1
	}
	return fmt.Sprintf("%2.0f/%2.0f/%2.0f",
		100*float64(st.MisCond)/tot, 100*float64(st.MisRet)/tot, 100*float64(st.MisInd)/tot)
}

// selectRun resolves -set, -machine and the id arguments into the
// machine model and the workloads to run, in set order. Ids match
// workload ids case-insensitively; an unknown set or machine, or ids
// that match nothing in the set, are errors.
func selectRun(set, mach string, ids []string) (machine.Config, []workloads.Workload, error) {
	var cfg machine.Config
	switch mach {
	case "xeon":
		cfg = machine.XeonE5645()
	case "atom":
		cfg = machine.AtomD510()
	default:
		return cfg, nil, fmt.Errorf("unknown machine %q (want xeon or atom)", mach)
	}
	var list []workloads.Workload
	switch set {
	case "reps":
		list = workloads.Representative17()
	case "mpi":
		list = workloads.MPI6()
	case "all":
		list = append(workloads.Representative17(), workloads.MPI6()...)
	case "roster":
		list = workloads.Roster77()
	default:
		return cfg, nil, fmt.Errorf("unknown set %q (want reps, mpi, all or roster)", set)
	}
	if len(ids) == 0 {
		return cfg, list, nil
	}
	matched := map[string]bool{}
	for _, id := range ids {
		matched[strings.ToLower(id)] = false
	}
	var picked []workloads.Workload
	for _, w := range list {
		id := strings.ToLower(w.ID)
		if _, ok := matched[id]; ok {
			matched[id] = true
			picked = append(picked, w)
		}
	}
	var unknown []string
	for _, id := range ids {
		if !matched[strings.ToLower(id)] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		return cfg, nil, fmt.Errorf("no workload in set %q matches %s", set, strings.Join(unknown, " "))
	}
	return cfg, picked, nil
}
