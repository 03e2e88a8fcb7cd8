// Command repro regenerates every table and figure of the paper's
// evaluation and writes their ASCII renderings to stdout and, with
// -out, to one NAME.txt file per item.
//
// The experiments run through the engine in two phases: hidden primers
// profile and sweep every workload exactly once, then the tables and
// figures read the shared results. -parallel bounds both the units
// running at once in each phase and the workers inside each unit;
// -parallel 1 runs everything one at a time in definition order, and
// the output is byte-identical either way.
//
// With -cache-dir every expensive artefact — dataset content,
// 45-metric profiles, Fig. 6-9 sweep curves, and the rendered output
// of each table and figure — persists in a content-keyed store under
// that directory, so a second run warm-starts and recomputes nothing
// (verify with -stats: zero trace passes, zero profiling runs, zero
// dataset generations, zero unit renders) while producing
// byte-identical output. -store-url points the same store at a
// cmd/artifactd server instead (or additionally: with both flags the
// disk tier fronts the server), which is how shards on different
// machines share one cache; -store-token (default $REPRO_STORE_TOKEN)
// authenticates against an artifactd started with -token. -shard i/n
// runs only the i-th of n round-robin partitions of the selected
// items; n processes sharing a store — a -cache-dir or an artifactd
// URL — split a run and their merged -out files are byte-identical to
// a single full run. -gc bounds the -cache-dir by size and/or entry
// age (LRU sweep) after the run.
//
// Usage:
//
//	repro [-quick] [-parallel N] [-timing] [-stats]
//	      [-cache-dir DIR] [-store-url URL] [-store-token T] [-gc SPEC]
//	      [-mem-quota SPEC] [-shard i/n] [-out DIR]
//	      [-scenario FILE | item ...]
//
// Items: table1 table2 table3 table4 fig1 fig2 fig3 fig4 fig5 fig6
// fig7 fig8 fig9 reduction stack. Default: all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cli"
	"repro/internal/datagen"
	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "use reduced instruction budgets")
	outDir := flag.String("out", "", "also write per-item files to this directory")
	parallel := flag.Int("parallel", 0, "bound concurrency: units at once in each engine phase and workers within each unit (0 = GOMAXPROCS, 1 = one at a time in definition order)")
	timing := flag.Bool("timing", false, "print the per-experiment timing table to stderr")
	shardSpec := flag.String("shard", "", "run only shard i of n visible items, as i/n (0-based); cooperating shards share a store and merge byte-identically")
	stats := flag.Bool("stats", false, "print artifact-store and recomputation probes to stderr")
	scenarioFile := flag.String("scenario", "", `run one ad-hoc scenario spec (JSON file, "-" for stdin) instead of paper items; the rendered bytes go to stdout`)
	storeFlags := cli.RegisterStore(flag.CommandLine)
	flag.Parse()

	opt := experiments.Default()
	if *quick {
		opt = experiments.Quick()
	}

	var sel []string
	if args := flag.Args(); len(args) > 0 {
		known := map[string]bool{}
		for _, name := range experiments.VisibleUnitNames() {
			known[name] = true
		}
		for _, a := range args {
			item := strings.ToLower(a)
			if !known[item] {
				fatal(fmt.Errorf("unknown item %q (known: %s)",
					a, strings.Join(experiments.VisibleUnitNames(), " ")))
			}
			sel = append(sel, item)
		}
	}
	if *scenarioFile != "" && len(sel) > 0 {
		fatal(fmt.Errorf("-scenario and item selection are mutually exclusive"))
	}

	st, quota, sweep, err := storeFlags.Open()
	if err != nil {
		fatal(err)
	}
	sess := experiments.NewSession(opt)
	sess.Parallelism = *parallel
	sess.Store = st
	sess.ArtifactStore().SetMemQuota(quota)

	failed := false
	if *scenarioFile != "" {
		// Scenario mode writes exactly the rendered bytes — the same
		// bytes reprod serves for the same spec against the same
		// store, which the serving CI job diffs.
		if err := renderScenario(sess, *scenarioFile); err != nil {
			fatal(err)
		}
	} else {
		e := &experiments.Engine{Session: sess, Select: sel}
		if *shardSpec != "" {
			i, n, err := experiments.ParseShard(*shardSpec)
			if err != nil {
				fatal(err)
			}
			e.Shard, e.ShardCount = i, n
		}
		failed = renderItems(e, *outDir, *timing)
	}
	if *stats {
		printStats(sess)
	}
	if sweep != nil {
		res, err := sweep()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "repro: gc: %s\n", res)
	}
	if failed {
		os.Exit(1)
	}
}

// renderScenario canonicalizes the scenario spec in path ("-" reads
// stdin), computes it (or fetches it warm) and writes the rendered
// bytes to stdout.
func renderScenario(sess *experiments.Session, path string) error {
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	var spec experiments.Scenario
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("scenario %s: %w", path, err)
	}
	return experiments.RenderScenario(sess, spec, os.Stdout)
}

// renderItems runs the engine and writes every visible unit to stdout
// (and to outDir/NAME.txt when outDir is set), then the timing table
// to stderr when asked. It reports whether any unit failed.
func renderItems(e *experiments.Engine, outDir string, timing bool) bool {
	results, err := e.Run()
	if err != nil {
		fatal(err)
	}

	out := func(name string) (io.Writer, func()) {
		if outDir == "" {
			fmt.Printf("\n")
			return os.Stdout, func() {}
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fatal(err)
		}
		f, err := os.Create(filepath.Join(outDir, name+".txt"))
		if err != nil {
			fatal(err)
		}
		return io.MultiWriter(os.Stdout, f), func() { f.Close() }
	}

	failed := false
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", r.Unit.Name, r.Err)
			failed = true
			continue
		}
		if r.Unit.Hidden || r.Artifact == nil {
			continue
		}
		w, done := out(r.Unit.Name)
		r.Artifact.Render(w)
		done()
	}
	if timing {
		t := experiments.TimingTable(results)
		t.Render(os.Stderr)
	}
	return failed
}

func printStats(sess *experiments.Session) {
	ss := sess.ArtifactStore().Stats()
	fmt.Fprintf(os.Stderr, "repro: trace passes: %d; profile runs: %d; dataset generations: %d; unit renders: %d\n",
		sess.TracePasses(), sess.ProfileRuns(), datagen.Generations(), sess.Renders())
	fmt.Fprintf(os.Stderr, "repro: store: %d fills, %d memory hits, %d backend hits, %d backend discards, %d prefetched\n",
		ss.Fills, ss.MemHits, ss.BackendHits, ss.BackendDiscards, ss.Prefetched)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}
