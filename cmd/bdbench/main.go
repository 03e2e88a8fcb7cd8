// Command bdbench runs big data workloads on the modelled machines and
// prints their micro-architectural characterization, one row per
// workload — the per-workload view behind the paper's Figs. 1-5.
//
// Rows are content-keyed artifacts: with -cache-dir each (machine,
// workload, budget) row persists, so a repeated run re-executes
// nothing, and -shard i/n lets n processes split a set (each prints
// only its interleaved slice) while sharing the store — across
// machines when they share a cmd/artifactd server via -store-url. -gc
// bounds the -cache-dir (LRU sweep) after the run.
//
// Usage:
//
//	bdbench [-budget N] [-machine xeon|atom] [-set reps|mpi|all|roster]
//	        [-parallel N] [-block N] [-cache-dir DIR] [-store-url URL]
//	        [-store-token T] [-gc SPEC] [-shard i/n] [id ...]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/artifact"
	"repro/internal/artifact/httpstore"
	"repro/internal/conc"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim/machine"
	"repro/internal/workloads"
)

// row is one workload's printed characterization — the serializable
// artefact bdbench caches per (machine, workload signature, budget).
type row struct {
	ID   string
	V    metrics.Vector
	FW   float64
	MCRI string
}

func main() {
	budget := flag.Int64("budget", 2_000_000, "instruction budget per workload")
	mach := flag.String("machine", "xeon", "machine model: xeon or atom")
	set := flag.String("set", "reps", "workload set: reps, mpi, all (reps+mpi) or roster")
	parallel := flag.Int("parallel", 0, "bound concurrent workload runs (0 = GOMAXPROCS, 1 = serial)")
	cacheDir := flag.String("cache-dir", "", "persist per-workload rows and dataset content under this directory and warm-start from it")
	storeURL := flag.String("store-url", "", "share rows through the artifactd server at this URL (combine with -cache-dir for a local tier in front)")
	storeToken := flag.String("store-token", "", "bearer token for a -token'd artifactd server (default $REPRO_STORE_TOKEN)")
	gcSpec := flag.String("gc", "", `after the run, LRU-sweep the -cache-dir down to this bound: a size, an age, or both ("4GB", "168h", "4GB,168h")`)
	shardSpec := flag.String("shard", "", "run only slice i of n of the set, as i/n (0-based)")
	block := flag.Int("block", 0, "trace-replay block size in instructions (0 = default); output is byte-identical for every size")
	memQuota := flag.String("mem-quota", "", `bound the in-process artifact cache: size, idle age and/or kind=size, comma-separated ("256MB", "256MB,datagen=96MB")`)
	flag.Parse()

	var list []workloads.Workload
	switch *set {
	case "reps":
		list = workloads.Representative17()
	case "mpi":
		list = workloads.MPI6()
	case "all":
		list = append(workloads.Representative17(), workloads.MPI6()...)
	case "roster":
		list = workloads.Roster77()
	default:
		fmt.Fprintf(os.Stderr, "unknown set %q\n", *set)
		os.Exit(2)
	}
	if ids := flag.Args(); len(ids) > 0 {
		want := map[string]bool{}
		for _, id := range ids {
			want[strings.ToLower(id)] = true
		}
		var filtered []workloads.Workload
		for _, w := range list {
			if want[strings.ToLower(w.ID)] {
				filtered = append(filtered, w)
			}
		}
		list = filtered
	}
	if *shardSpec != "" {
		i, n, err := experiments.ParseShard(*shardSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bdbench:", err)
			os.Exit(2)
		}
		list = workloads.ShardSlice(list, i, n)
	}

	sweep, err := artifact.GCSweeper(*cacheDir, *gcSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdbench:", err)
		os.Exit(2)
	}
	store := artifact.Default()
	if *cacheDir != "" || *storeURL != "" {
		st, err := httpstore.OpenStore(*cacheDir, *storeURL, *storeToken)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bdbench:", err)
			os.Exit(1)
		}
		store = st
		datagen.SetStore(st)
	}
	if *memQuota != "" {
		q, err := artifact.ParseQuotaSpec(*memQuota)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bdbench:", err)
			os.Exit(2)
		}
		store.SetMemQuota(q)
	}

	cfg := machine.XeonE5645()
	if *mach == "atom" {
		cfg = machine.AtomD510()
	}

	fmt.Printf("%-18s %5s %6s %6s %6s %6s %6s %5s %6s %5s %5s %5s %5s %5s %6s %6s %6s %5s %6s %6s %6s %6s %6s\n",
		"workload", "IPC", "L1I", "L1D", "L2", "L2I%", "L3", "brM%", "mCRI", "br%", "ld%", "st%", "int%", "fp%",
		"ITLB", "DTLB", "codeKB", "fw%", "ILP", "MLP", "front%", "imS/KI", "mpS/KI")
	// Each workload's row fills through the artifact store on its own
	// machine model; the fan-out runs on a bounded worker pool and rows
	// stay in input order.
	type rowKey struct {
		Machine  string
		Workload string
		Budget   int64
	}
	rows := make([]row, len(list))
	errs := make([]error, len(list))
	conc.ForEach(*parallel, len(list), func(i int) {
		w := list[i]
		key := artifact.KeyOf("bdbench-row", rowKey{cfg.Name, workloads.Signature(w), *budget})
		rows[i], errs[i] = artifact.GetChecked(store, key,
			func(r row) bool { return r.ID == w.ID },
			func() (row, error) {
				m := machine.New(cfg)
				res := workloads.RunBlock(w, m, *budget, *block)
				m.Finish()
				v := metrics.Compute(m)
				st := m.BP.Stats()
				tot := float64(st.Mispredicts)
				if tot == 0 {
					tot = 1
				}
				mcri := fmt.Sprintf("%2.0f/%2.0f/%2.0f",
					100*float64(st.MisCond)/tot, 100*float64(st.MisRet)/tot, 100*float64(st.MisInd)/tot)
				return row{ID: w.ID, V: v, FW: res.FrameworkShare, MCRI: mcri}, nil
			})
	})
	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bdbench:", err)
			os.Exit(1)
		}
	}
	for _, r := range rows {
		v := r.V
		fmt.Printf("%-18s %5.2f %6.1f %6.1f %6.1f %6.0f %6.2f %5.1f %6s %5.1f %5.1f %5.1f %5.1f %5.1f %6.3f %6.3f %6.0f %5.1f %6.1f %6.1f %6.1f %6.0f %6.0f\n",
			r.ID, v[metrics.IPC], v[metrics.L1IMPKI], v[metrics.L1DMPKI], v[metrics.L2MPKI],
			v[metrics.L2InstShare]*100, v[metrics.L3MPKI],
			v[metrics.BrMispredictRatio]*100, r.MCRI,
			v[metrics.MixBranch]*100, v[metrics.MixLoad]*100, v[metrics.MixStore]*100,
			v[metrics.MixInt]*100, v[metrics.MixFP]*100,
			v[metrics.ITLBMPKI], v[metrics.DTLBMPKI],
			v[metrics.CodeFootprintKB], r.FW*100, v[metrics.ILP], v[metrics.MLP],
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
