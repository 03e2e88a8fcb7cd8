// Command reprod serves the paper's tables, figures and ad-hoc
// scenarios on demand over HTTP — the request/response face of the
// reproduction pipeline. Where cmd/repro runs a batch and exits,
// reprod stays up: requests canonicalize into artifact keys, warm
// requests are answered straight from the store, cold ones are
// computed exactly once no matter how many clients ask (per-key
// request coalescing), and client disconnects cancel the simulation
// work they abandoned.
//
// Endpoints (see internal/serve): GET /v1/units/{unit},
// POST /v1/scenarios, POST /v1/jobs + GET /v1/jobs (paginated) +
// GET /v1/jobs/{id} + DELETE /v1/jobs/{id} for async batches,
// GET /v1/stats, GET /metrics (Prometheus text), GET /healthz.
//
// -cache-dir persists every artefact locally; -store-url shares them
// through a cmd/artifactd server (cold starts issue one bulk closure
// download instead of per-key fetches); with both, the disk tier
// fronts the server. Output bytes are identical to cmd/repro's for the
// same options — a unit fetched over HTTP diffs clean against the
// batch CLI's file.
//
// -self + -peers turn N replicas into a fleet: every artefact key is
// rendezvous-hashed to one home replica and cold requests are
// forwarded there, so per-key coalescing holds fleet-wide. Point every
// replica at the same -store-url so warm artefacts are shared too.
// Every peer carries a consecutive-failure circuit breaker
// (-peer-fail-limit / -peer-cooldown): a dead replica's keys are
// rerouted over the healthy members until a half-open probe recovers
// it. GET /readyz splits readiness (draining / store degraded → 503)
// from /healthz liveness.
//
// -fault-spec is for testing only: it injects latency, errors,
// connection resets, truncated bodies and up/down flapping windows
// into the serving endpoints (probes and stats stay clean) so chaos CI
// can exercise the resilience machinery against a real process.
//
// SIGTERM / SIGINT drains: in-flight requests and running jobs finish,
// queued jobs are cancelled, new submissions are refused 503, then the
// process exits 0.
//
// Usage:
//
//	reprod [-addr :9555] [-quick] [-parallel N] [-workers N]
//	       [-cache-dir DIR] [-store-url URL] [-store-token T]
//	       [-self URL] [-peers URL,URL,...]
//	       [-peer-fail-limit N] [-peer-cooldown D] [-fault-spec SPEC]
//	       [-gc SPEC] [-gc-interval D] [-mem-quota SPEC] [-drain-timeout D]
//	       [-log-level debug|info|warn|error]
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":9555", "listen address")
	quick := flag.Bool("quick", false, "serve reduced instruction budgets (tests/CI)")
	parallel := flag.Int("parallel", 0, "bound workers inside each computation (0 = GOMAXPROCS)")
	workers := flag.Int("workers", 0, "bound concurrently executing computations (0 = GOMAXPROCS)")
	gcInterval := flag.Duration("gc-interval", 10*time.Minute, "how often to run the -gc and -mem-quota age sweeps")
	self := flag.String("self", "", `this replica's advertised base URL, e.g. "http://10.0.0.3:9555" (fleet mode)`)
	peers := flag.String("peers", "", "comma-separated advertised base URLs of every fleet replica (-self may be repeated in the list)")
	peerFailLimit := flag.Int("peer-fail-limit", 0, "consecutive proxy transport failures that sideline a fleet peer (0 = default 3)")
	peerCooldown := flag.Duration("peer-cooldown", 0, "how long a sidelined peer's breaker stays open before a half-open probe (0 = default 5s)")
	faultSpec := flag.String("fault-spec", "", `TESTING ONLY: inject faults into served requests, e.g. "seed=3,up=6s,down=4s" (see internal/faultinject; probe and stats endpoints stay clean)`)
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for in-flight work")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	storeFlags := cli.RegisterStore(flag.CommandLine)
	flag.Parse()

	logger, err := cli.NewLogger("reprod", *logLevel)
	if err != nil {
		fatal(err)
	}
	st, quota, gcSweep, err := storeFlags.Open()
	if err != nil {
		fatal(err)
	}

	opt := experiments.Default()
	if *quick {
		opt = experiments.Quick()
	}

	cfg := serve.Config{
		Opt: opt, Store: st, MemQuota: quota, Parallelism: *parallel, Workers: *workers,
		Self: *self, PeerFailLimit: *peerFailLimit, PeerCooldown: *peerCooldown,
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cfg.Peers = append(cfg.Peers, p)
		}
	}
	if cfg.Self != "" {
		for _, p := range cfg.Peers {
			logger.Debug("fleet member configured", "self", cfg.Self, "peer", p)
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}

	// An idle store receives no charges, so MaxAge needs a ticker to
	// expire entries nobody is asking for anymore.
	if cfg.MemQuota.MaxAge > 0 {
		go func() {
			for range time.Tick(*gcInterval) {
				srv.Store().SweepMem()
			}
		}()
	}

	if gcSweep != nil {
		sweep := func() {
			res, err := gcSweep()
			if err != nil {
				logger.Error("gc sweep failed", "error", err)
				return
			}
			logger.Info("gc sweep", "result", res.String())
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
		// The probe/stats surface stays clean so CI (and a confused
		// operator) can always see what the chaos is doing to the
		// replica: only the serving endpoints misbehave.
		clean, faulty := handler, faultinject.New(spec).Handler(handler)
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/healthz", "/readyz", "/metrics", "/v1/stats":
				clean.ServeHTTP(w, r)
			default:
				faulty.ServeHTTP(w, r)
			}
		})
		logger.Warn(fmt.Sprintf("FAULT INJECTION ACTIVE (%s) — testing only, never production", spec))
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		sig := <-stop
		logger.Info("draining (in-flight work finishes, queued jobs abort)", "signal", sig.String())
		srv.BeginShutdown()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Error("http shutdown", "error", err)
		}
		if err := srv.Drain(ctx); err != nil {
			logger.Error("job drain", "error", err)
		}
		close(done)
	}()

	logger.Info("serving experiments", "addr", *addr, "quick", *quick)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	<-done
	logger.Info("drained, exiting")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reprod:", err)
	os.Exit(1)
}
