// Command artifactd serves a content-keyed artifact store directory
// over HTTP, so engine shards on different machines share one cache:
// every shard points -store-url at this server, each artefact
// (dataset content, profile record, sweep curves, rendered unit) is
// computed by exactly one shard and downloaded by the rest, and the
// merged outputs are byte-identical to a single full run.
//
// Endpoints: GET/HEAD/PUT /artifact/{id}, POST /closure (bulk
// download of many entries in one round trip — how a cold shard or
// reprod instance warms up), GET /stats (JSON counters), GET
// /healthz. Uploads are verified — an entry whose recorded identity
// does not hash to its id is rejected — and entries are re-verified
// on the way out, so corruption anywhere costs a recomputation, never
// a wrong result.
//
// With -gc the entry directory is swept at startup and every
// -gc-interval: entries older than the age bound are removed, and the
// least recently used entries are evicted until the directory fits the
// size bound. Eviction is safe at any moment — an evicted artefact is
// recomputed by the next shard that needs it.
//
// With -token (or $ARTIFACTD_TOKEN) every artifact request must carry
// a matching "Authorization: Bearer" header — set it before exposing
// the server beyond a trusted LAN; clients pass the token via
// -store-token or $REPRO_STORE_TOKEN. /stats, /metrics (Prometheus
// text format) and /healthz stay open for probes and scrapers.
//
// -fault-spec is for testing only: it injects latency, errors,
// connection resets, truncated bodies and up/down windows into the
// artifact endpoints (probes and stats stay clean), so chaos CI can
// prove that clients treat a misbehaving store as misses-and-retries,
// never as wrong results.
//
// Usage:
//
//	artifactd [-addr :9444] [-dir DIR] [-token SECRET]
//	          [-gc "4GB,168h"] [-gc-interval 10m] [-fault-spec SPEC]
//	          [-log-level debug|info|warn|error]
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/artifact"
	"repro/internal/artifact/artifactd"
	"repro/internal/cli"
	"repro/internal/faultinject"
)

func main() {
	addr := flag.String("addr", ":9444", "listen address")
	dir := flag.String("dir", ".artifactd", "entry directory to serve (created if absent)")
	token := flag.String("token", os.Getenv("ARTIFACTD_TOKEN"),
		"require this bearer token on artifact requests (default $ARTIFACTD_TOKEN; empty = open server)")
	gcSpec := flag.String("gc", "", `bound the entry directory, as a size, an age, or both: "4GB", "168h", "4GB,168h" (LRU sweep; empty = never collect)`)
	gcInterval := flag.Duration("gc-interval", 10*time.Minute, "how often to run the -gc sweep")
	faultSpec := flag.String("fault-spec", "", `TESTING ONLY: inject faults into artifact requests, e.g. "seed=7,err=0.3,truncate=0.1" (see internal/faultinject; probe and stats endpoints stay clean)`)
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	flag.Parse()

	logger, err := cli.NewLogger("artifactd", *logLevel)
	if err != nil {
		fatal(err)
	}

	srv, err := artifactd.New(*dir)
	if err != nil {
		fatal(err)
	}
	if *token != "" {
		srv.SetToken(*token)
		logger.Info("bearer-token auth enabled")
	}

	if *gcSpec != "" {
		policy, err := artifact.ParseGCSpec(*gcSpec)
		if err != nil {
			fatal(err)
		}
		sweep := func() {
			res, err := artifact.GC(srv.Dir(), policy.MaxBytes, policy.MaxAge)
			if err != nil {
				logger.Error("gc sweep failed", "dir", srv.Dir(), "error", err)
				return
			}
			logger.Info("gc sweep", "dir", srv.Dir(), "result", res.String())
		}
		sweep()
		go func() {
			for range time.Tick(*gcInterval) {
				sweep()
			}
		}()
	}

	handler := srv.Handler()
	if *faultSpec != "" {
		spec, err := faultinject.ParseSpec(*faultSpec)
		if err != nil {
			fatal(err)
		}
		// Probes and counters stay clean: chaos CI reads /stats and
		// /metrics to see how clients rode out the injected faults.
		clean, faulty := handler, faultinject.New(spec).Handler(handler)
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/healthz", "/stats", "/metrics":
				clean.ServeHTTP(w, r)
			default:
				faulty.ServeHTTP(w, r)
			}
		})
		logger.Warn(fmt.Sprintf("FAULT INJECTION ACTIVE (%s) — testing only, never production", spec))
	}

	logger.Info("serving artifacts", "dir", srv.Dir(), "addr", *addr)
	if err := http.ListenAndServe(*addr, handler); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "artifactd:", err)
	os.Exit(1)
}
