// Package serve implements reprod, the on-demand experiment-serving
// daemon: paper units and ad-hoc scenario specs answered over HTTP out
// of the content-keyed artifact store, computed at most once no matter
// how many clients ask — per process, or per fleet.
//
// The serving core is four mechanisms layered on the existing
// pipeline:
//
//   - Warm fast path: every request canonicalizes to an artifact key
//     (experiments.UnitRenderKey / experiments.ScenarioKey) and is
//     first answered by artifact.Peek — a warm request is pure store
//     I/O, no session, no engine, no simulation, no render.
//   - Request coalescing: cold requests for the same key share one
//     flight (flightGroup); N concurrent requests for a cold figure
//     run exactly one computation. Flights execute on a bounded
//     conc.Pool, and a flight abandoned by every waiter is cancelled —
//     client disconnects propagate down to the emitters and stop
//     simulation within a few thousand instructions.
//   - Fleet routing: replicas configured with Self/Peers rendezvous-
//     hash every key to one home replica and forward cold requests
//     there (see fleet.go), so coalescing holds across the whole
//     fleet: N replicas × M clients asking for one cold key still run
//     exactly one computation.
//   - Async jobs: POST /v1/jobs accepts unit/scenario batches, returns
//     an id immediately, and GET /v1/jobs/{id} reports state plus
//     per-unit timing and inline results. Jobs fill the same store and
//     keep no bytes of their own: a job's results, like finished work
//     fetched through the synchronous endpoints, are read from it.
//
// The HTTP surface is versioned under /v1 with a uniform JSON error
// envelope (see api.go for the wire schema). Shutdown (SIGTERM in
// cmd/reprod) drains: in-flight requests and running jobs complete,
// queued jobs are cancelled, new submissions are refused 503.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/conc"
	"repro/internal/datagen"
	"repro/internal/eventbus"
	"repro/internal/experiments"
	"repro/internal/retry"
	"repro/internal/telemetry"
)

// Scenario re-exports the declarative request spec.
type Scenario = experiments.Scenario

// Config sizes a server.
type Config struct {
	// Opt is the experiment options every computation runs at; it is
	// part of every artifact identity, so one daemon serves one
	// fidelity (run a second daemon for -quick output).
	Opt experiments.Options
	// Store backs every computation. nil gets a private in-memory
	// store — still shared across all of this server's requests.
	Store *artifact.Store
	// Parallelism bounds the workers inside one computation
	// (experiments.Session.Parallelism; 0 = GOMAXPROCS).
	Parallelism int
	// Workers bounds concurrently executing computations — flights and
	// jobs together (0 = GOMAXPROCS; the pool floors at 2).
	Workers int
	// MemQuota bounds the store's in-process memory tier (resident
	// bytes, idle age, per-kind budgets — see artifact.ParseQuotaSpec).
	// The zero value leaves the store unbounded; a long-lived daemon
	// accumulating distinct ad-hoc scenario renders should always set
	// it. Applied to Store (or the private store) at construction.
	MemQuota artifact.MemQuota
	// Self is this replica's advertised base URL (how peers reach it,
	// e.g. "http://10.0.0.3:9555"). Empty disables fleet mode.
	Self string
	// Peers lists every replica's advertised base URL (Self may but
	// need not be repeated). With two or more distinct members, every
	// artefact key is rendezvous-hashed to one home replica and cold
	// requests are forwarded there — fleet-wide coalescing.
	Peers []string
	// PeerFailLimit is the consecutive transport failures that trip a
	// peer's circuit breaker (0 = retry.DefaultFailLimit). While open,
	// that peer's keys are rerouted over the healthy members instead of
	// paying a dial timeout per request.
	PeerFailLimit int
	// PeerCooldown is how long a tripped peer breaker stays open before
	// one request is let through as a half-open probe
	// (0 = retry.DefaultCooldown).
	PeerCooldown time.Duration
}

// Server is the reprod serving core, usable behind any http.Server
// (cmd/reprod) or httptest (the tests). Construct with New.
type Server struct {
	cfg     Config
	store   *artifact.Store
	pool    *conc.Pool
	flights *flightGroup
	jobs    *jobSet
	fleet   *fleet

	// units maps each visible paper unit to its render key at cfg.Opt,
	// built once by New: validating and keying a unit request is one
	// lookup.
	units map[string]artifact.Key

	// bus is the live observability fan-out (GET /v1/events). The topic
	// publishers are pre-bound handles the hot paths gate on — an idle
	// bus costs one atomic load per instrumentation site.
	bus          *eventbus.Bus
	engineEvents *eventbus.Publisher
	flightEvents *eventbus.Publisher
	fleetEvents  *eventbus.Publisher

	draining atomic.Bool

	// The serving counters; Metrics names them on the wire.
	unitReqs, scenarioReqs            atomic.Int64
	warmHits, coalesced, computes     atomic.Int64
	abandoned                         atomic.Int64
	jobsSubmitted, jobsDone           atomic.Int64
	jobsFailed, jobsCanceled          atomic.Int64
	tracePasses, profileRuns, renders atomic.Int64
	proxied, proxyFallback            atomic.Int64
	peerServed, loopGuarded           atomic.Int64
	rerouted, proxyRetries            atomic.Int64
}

// New returns a serving core over cfg. The only error is an invalid
// fleet configuration (peers without a self URL, non-absolute member
// URLs).
func New(cfg Config) (*Server, error) {
	fl, err := newFleet(cfg.Self, cfg.Peers, cfg.PeerFailLimit, cfg.PeerCooldown)
	if err != nil {
		return nil, err
	}
	st := cfg.Store
	if st == nil {
		st = artifact.New()
	}
	if cfg.MemQuota.Enabled() {
		st.SetMemQuota(cfg.MemQuota)
	}
	units := map[string]artifact.Key{}
	for _, name := range experiments.VisibleUnitNames() {
		units[name] = experiments.UnitRenderKey(cfg.Opt, name)
	}
	bus := eventbus.New()
	srv := &Server{
		cfg:          cfg,
		store:        st,
		pool:         conc.NewPool(cfg.Workers),
		jobs:         newJobSet(),
		fleet:        fl,
		units:        units,
		bus:          bus,
		engineEvents: bus.Topic("engine"),
		flightEvents: bus.Topic("flight"),
		fleetEvents:  bus.Topic("fleet"),
	}
	srv.flights = newFlightGroup(srv.flightEvents)
	// The store publishes fill/hit/eviction/degraded transitions onto
	// this server's bus. A store shared between servers reports to the
	// last one constructed.
	st.SetEvents(bus.Topic("store"))
	if fl != nil {
		for peer, br := range fl.health {
			br.OnChange = srv.breakerEvent(peer)
		}
	}
	return srv, nil
}

// breakerEvent builds the per-peer breaker transition hook: every
// state change lands on the fleet topic as breaker_trip (→ open),
// breaker_probe (→ half-open) or breaker_recover (→ closed).
func (s *Server) breakerEvent(peer string) func(from, to retry.State) {
	return func(from, to retry.State) {
		if !s.fleetEvents.Active() {
			return
		}
		typ := "breaker_trip"
		switch to {
		case retry.HalfOpen:
			typ = "breaker_probe"
		case retry.Closed:
			typ = "breaker_recover"
		}
		s.fleetEvents.Event(typ, map[string]any{"peer": peer, "from": from.String(), "to": to.String()})
	}
}

// Bus returns the server's event bus (tests subscribe directly).
func (s *Server) Bus() *eventbus.Bus { return s.bus }

// Store returns the store behind every computation.
func (s *Server) Store() *artifact.Store { return s.store }

// session builds one computation's session: private probes, shared
// store, the request's context.
func (s *Server) session(ctx context.Context) *experiments.Session {
	sess := experiments.NewSession(s.cfg.Opt)
	sess.Parallelism = s.cfg.Parallelism
	sess.Store = s.store
	sess.Ctx = ctx
	return sess
}

// absorb folds a finished session's probes into the server totals —
// the counters CI reads to prove "32 concurrent cold requests computed
// once" and "warm requests simulate nothing".
func (s *Server) absorb(sess *experiments.Session) {
	s.tracePasses.Add(sess.TracePasses())
	s.profileRuns.Add(sess.ProfileRuns())
	s.renders.Add(sess.Renders())
}

// compute runs fn on the bounded worker pool under the flight context.
// Queued work re-checks the context so an abandoned flight never
// occupies a worker. The computes counter counts sessions that
// actually rendered something: a flight whose artefact turns out to be
// warm by the time it executes (a proxy-fallback straggler racing a
// rerouted wave, say) only copies bytes out of the store — counting it
// would make the coalescing gates lie under fault-injected timing.
func (s *Server) compute(ctx context.Context, keyID string, fn func(sess *experiments.Session) ([]byte, error)) ([]byte, error) {
	var out []byte
	err := ctx.Err()
	if err != nil {
		return nil, err
	}
	s.pool.ForEach(1, func(int) {
		if err = ctx.Err(); err != nil {
			return // cancelled while queued for a worker
		}
		if s.flightEvents.Active() {
			s.flightEvents.Event("compute_start", map[string]any{"key": keyID})
		}
		start := time.Now()
		sess := s.session(ctx)
		out, err = fn(sess)
		if sess.Renders() > 0 {
			s.computes.Add(1)
		}
		s.absorb(sess)
		if s.flightEvents.Active() {
			s.flightEvents.Event("compute_finish", map[string]any{
				"key": keyID, "ms": float64(time.Since(start).Microseconds()) / 1000, "ok": err == nil,
			})
		}
	})
	return out, err
}

// renderUnit runs the one-unit engine (primers included) and extracts
// the unit's rendered bytes.
func (s *Server) renderUnit(ctx context.Context, sess *experiments.Session, unit string, events experiments.EventSink) ([]byte, error) {
	e := &experiments.Engine{Session: sess, Select: []string{unit}, Events: events}
	results, err := e.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Unit.Name != unit {
			continue
		}
		if r.Err != nil {
			return nil, r.Err
		}
		if r.Artifact == nil {
			return nil, fmt.Errorf("unit %s produced no artifact", unit)
		}
		var buf strings.Builder
		r.Artifact.Render(&buf)
		return []byte(buf.String()), nil
	}
	return nil, fmt.Errorf("unit %s missing from engine results", unit)
}

// unitCompute returns the flight that renders unit into the store under
// its render key (keyID): the one compute behind GET /v1/units/{unit}
// and behind a job's recorded unit result.
func (s *Server) unitCompute(unit, keyID string) func(context.Context) ([]byte, error) {
	return func(fctx context.Context) ([]byte, error) {
		return s.compute(fctx, keyID, func(sess *experiments.Session) ([]byte, error) {
			return s.renderUnit(fctx, sess, unit, s.engineEvents)
		})
	}
}

// scenarioCompute returns the flight that renders the canonical spec
// into the store under its scenario key (keyID): the one compute behind
// POST /v1/scenarios and behind a job's recorded scenario result.
func (s *Server) scenarioCompute(canon Scenario, keyID string) func(context.Context) ([]byte, error) {
	return func(fctx context.Context) ([]byte, error) {
		return s.compute(fctx, keyID, func(sess *experiments.Session) ([]byte, error) {
			return experiments.RunScenario(sess, canon)
		})
	}
}

// runJob executes one job on the pool worker that picked it up.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.ctx.Err() != nil {
		j.state = JobCanceled
		j.finished = time.Now()
		j.mu.Unlock()
		s.jobsCanceled.Add(1)
		s.emitJob(j, "canceled", map[string]any{"error": "canceled while queued"})
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
	s.emitJob(j, "started", nil)

	sess := s.session(j.ctx)
	var timings []UnitTiming
	var firstErr error
	var results []jobResult

	if len(j.req.Units) > 0 {
		e := &experiments.Engine{Session: sess, Select: j.req.Units, Events: jobSink{s, j}}
		runResults, err := e.RunContext(j.ctx)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		for _, r := range runResults {
			status := "ok"
			switch {
			case r.Err != nil:
				status = "error: " + r.Err.Error()
				if firstErr == nil {
					firstErr = r.Err
				}
			case r.Unit.Hidden:
				status = "primer"
			}
			if r.Err == nil && !r.Unit.Hidden && r.Artifact != nil {
				key := s.units[r.Unit.Name]
				results = append(results, jobResult{r.Unit.Name, key, s.unitCompute(r.Unit.Name, key.ID())})
			}
			timings = append(timings, UnitTiming{
				Unit: r.Unit.Name, Ms: float64(r.Elapsed.Microseconds()) / 1000, Status: status,
			})
		}
	}
	// Submission stored each scenario in canonical form.
	for i, spec := range j.req.Scenarios {
		name := scenarioName(i, spec)
		s.emitJob(j, "scenario_start", map[string]any{"scenario": name})
		start := time.Now()
		_, err := experiments.RunScenario(sess, spec)
		status := "ok"
		if err != nil {
			status = "error: " + err.Error()
			if firstErr == nil {
				firstErr = err
			}
		}
		s.emitJob(j, "scenario_finish", map[string]any{
			"scenario": name, "ms": float64(time.Since(start).Microseconds()) / 1000, "status": status,
		})
		if err == nil {
			key := experiments.ScenarioKey(spec)
			results = append(results, jobResult{"scenario:" + name, key, s.scenarioCompute(spec, key.ID())})
		}
		timings = append(timings, UnitTiming{
			Unit: "scenario:" + name, Ms: float64(time.Since(start).Microseconds()) / 1000, Status: status,
		})
	}
	// Like compute: a job whose every unit was already warm only copied
	// bytes out of the store, and is not a computation.
	if sess.Renders() > 0 {
		s.computes.Add(1)
	}
	s.absorb(sess)

	j.mu.Lock()
	j.timings = timings
	j.results = results
	j.finished = time.Now()
	terminal := "done"
	var data map[string]any
	switch {
	case j.ctx.Err() != nil:
		j.state = JobCanceled
		j.errMsg = j.ctx.Err().Error()
		s.jobsCanceled.Add(1)
		terminal, data = "canceled", map[string]any{"error": j.errMsg}
	case firstErr != nil:
		j.state = JobFailed
		j.errMsg = firstErr.Error()
		s.jobsFailed.Add(1)
		terminal, data = "failed", map[string]any{"error": j.errMsg}
	default:
		j.state = JobDone
		s.jobsDone.Add(1)
	}
	j.mu.Unlock()
	s.emitJob(j, terminal, data)
}

// jobStatus returns j's status with its recorded results, each read
// like any other answer: from the store by key, or, when the store has
// let it go, recomputed through the flight group under the caller's
// context and coalesced with any request for the same key. A result is
// a deterministic function of its key, so the recompute reproduces the
// bytes exactly, whichever state the job ended in. ResultsTruncated
// reports a result this response could not produce (its recompute
// failed or was cut short by ctx).
func (s *Server) jobStatus(ctx context.Context, j *job) JobStatus {
	st := j.status()
	if st.Finished == nil {
		return st // results are recorded with the terminal state
	}
	j.mu.Lock()
	results := j.results
	j.mu.Unlock()
	for _, res := range results {
		b, ok := artifact.Peek[[]byte](s.store, res.key, nil)
		if !ok {
			var err error
			if b, _, err = s.flights.do(ctx, res.key.ID(), res.run); err != nil {
				st.ResultsTruncated = true
				continue
			}
		}
		if st.Results == nil {
			st.Results = make(map[string]string, len(results))
		}
		st.Results[res.name] = string(b)
	}
	return st
}

// BeginShutdown starts a drain: new jobs are refused, queued jobs are
// cancelled, running jobs and in-flight requests continue. Call before
// http.Server.Shutdown.
func (s *Server) BeginShutdown() {
	s.draining.Store(true)
	s.jobs.cancelQueued()
}

// Drain blocks until every accepted job has finished (or ctx expires).
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.jobs.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Healthy reports readiness: not draining and the store backend not
// degraded. Liveness is /healthz; this feeds /readyz.
func (s *Server) Healthy() (ready bool, reason string) {
	if s.draining.Load() {
		return false, "draining"
	}
	if s.store.Health().Degraded {
		return false, "degraded"
	}
	return true, "ready"
}

// Metrics snapshots every serving metric, reading each source once: the
// one declaration behind both GET /v1/stats and GET /metrics.
func (s *Server) Metrics() telemetry.List {
	states, unhealthy, bc := s.fleet.healthSnapshot()
	sh := s.store.Health()
	ss := s.store.Stats()
	bs := s.bus.Stats()
	passes := s.tracePasses.Load()
	return telemetry.List{
		telemetry.Counter("unit_requests", "reprod_unit_requests_total", "Paper-unit requests received.", s.unitReqs.Load()),
		telemetry.Counter("scenario_requests", "reprod_scenario_requests_total", "Scenario requests received.", s.scenarioReqs.Load()),
		telemetry.Counter("warm_hits", "reprod_warm_hits_total", "Requests answered straight from the store.", s.warmHits.Load()),
		telemetry.Counter("coalesced", "reprod_coalesced_total", "Requests that joined an in-flight computation.", s.coalesced.Load()),
		telemetry.Counter("computes", "reprod_computes_total", "Computations actually executed.", s.computes.Load()),
		telemetry.Counter("abandoned", "reprod_abandoned_total", "Requests whose clients left before the answer.", s.abandoned.Load()),
		telemetry.Gauge("in_flight", "reprod_in_flight", "Computations currently in flight.", int64(s.flights.inFlight())),
		telemetry.Counter("jobs_submitted", "reprod_jobs_submitted_total", "Jobs accepted.", s.jobsSubmitted.Load()),
		telemetry.Counter("jobs_done", "reprod_jobs_done_total", "Jobs finished successfully.", s.jobsDone.Load()),
		telemetry.Counter("jobs_failed", "reprod_jobs_failed_total", "Jobs finished with an error.", s.jobsFailed.Load()),
		telemetry.Counter("jobs_canceled", "reprod_jobs_canceled_total", "Jobs cancelled (client or shutdown).", s.jobsCanceled.Load()),
		telemetry.Counter("trace_passes", "reprod_trace_passes_total", "Sweep trace passes executed.", passes),
		telemetry.Counter("sweep_stackdist_passes", "reprod_sweep_stackdist_passes_total", "Trace passes run by the stack-distance sweep engine.", passes),
		telemetry.Counter("profile_runs", "reprod_profile_runs_total", "Profiling runs executed.", s.profileRuns.Load()),
		telemetry.Counter("renders", "reprod_renders_total", "Units rendered.", s.renders.Load()),
		telemetry.Counter("dataset_generations", "reprod_dataset_generations_total", "Dataset-content generations executed by this process.", datagen.Generations()),
		telemetry.Gauge("fleet_size", "reprod_fleet_size", "Fleet membership size (0 = fleet mode off).", int64(s.fleet.size())),
		telemetry.Counter("fleet_proxied", "reprod_fleet_proxied_total", "Cold requests forwarded to their home replica.", s.proxied.Load()),
		telemetry.Counter("fleet_proxy_fallback", "reprod_fleet_proxy_fallback_total", "Forwards failed over to local compute (owner unreachable).", s.proxyFallback.Load()),
		telemetry.Counter("fleet_peer_served", "reprod_fleet_peer_served_total", "Requests received from a fleet peer.", s.peerServed.Load()),
		telemetry.Counter("fleet_loop_guarded", "reprod_fleet_loop_guarded_total", "Peer-forwarded requests this replica would have routed elsewhere.", s.loopGuarded.Load()),
		telemetry.Counter("fleet_rerouted", "reprod_fleet_rerouted_total", "Requests routed around a tripped peer breaker.", s.rerouted.Load()),
		telemetry.Gauge("fleet_peer_unhealthy", "reprod_peer_unhealthy", "Fleet peers currently sidelined (breaker not closed).", unhealthy),
		telemetry.Gauge("peer_states", "reprod_breaker_state", "Peer breaker state (0 closed, 1 half-open, 2 open).",
			telemetry.States{Label: "peer", Values: states, Names: []string{"closed", "half-open", "open"}}),
		telemetry.Counter("breaker_trips", "reprod_breaker_trips_total", "Peer breakers tripped open (fail limit reached).", bc.Trips),
		telemetry.Counter("breaker_probes", "reprod_breaker_probes_total", "Half-open probes sent to tripped peers.", bc.Probes),
		telemetry.Counter("breaker_recoveries", "reprod_breaker_recoveries_total", "Peer breakers closed again by a successful probe.", bc.Recoveries),
		// The store's HTTP backend and the fleet proxy retry
		// independently: one family, labelled by component.
		telemetry.Counter("store_retries", `reprod_retries_total{component="store"}`, "Extra attempts beyond each operation's first.", sh.Retries),
		telemetry.Counter("fleet_proxy_retries", `reprod_retries_total{component="proxy"}`, "", s.proxyRetries.Load()),
		telemetry.Gauge("store_degraded", "reprod_store_degraded", "Whether the persistence backend is degraded (1 = serving memory hits and computing locally).", sh.Degraded),
		telemetry.Counter("store_skipped", "reprod_store_skipped_total", "Store backend operations short-circuited while degraded.", sh.Skipped),
		telemetry.Counter("store_fills", "reprod_store_fills_total", "Store computations executed.", ss.Fills),
		telemetry.Counter("store_mem_hits", "reprod_store_mem_hits_total", "Store lookups answered by a resident entry.", ss.MemHits),
		telemetry.Counter("store_backend_hits", "reprod_store_backend_hits_total", "Fills satisfied by the persistence backend.", ss.BackendHits),
		telemetry.Counter("store_backend_discards", "reprod_store_backend_discards_total", "Backend entries rejected as corrupt, stale or mislabelled.", ss.BackendDiscards),
		telemetry.Counter("store_prefetched", "reprod_store_prefetched_total", "Entries staged by bulk prefetch.", ss.Prefetched),
		telemetry.Counter("store_evictions", "reprod_store_evictions_total", "Memory-tier residents evicted under quota.", ss.Evictions),
		telemetry.Counter("store_evicted_bytes", "reprod_store_evicted_bytes_total", "Charged bytes evicted by the memory tier.", ss.EvictedBytes),
		telemetry.Gauge("store_resident_bytes", "reprod_store_resident_bytes", "Charged bytes resident in the store's memory tier.", ss.ResidentBytes),
		telemetry.Gauge("store_resident_entries", "reprod_store_resident_entries", "Residents (entries + staged prefetches) in the memory tier.", ss.ResidentEntries),
		telemetry.Gauge("store_mem_hit_ratio", "reprod_store_mem_hit_ratio", "Fraction of store lookups answered by a resident entry.", ss.MemHitRatio()),
		telemetry.Gauge("store_kind_resident_bytes", "reprod_store_kind_resident_bytes", "Resident memory-tier bytes by artefact kind.",
			telemetry.Labeled{Label: "kind", Values: ss.KindResident}),
		telemetry.Counter("store_kind_evictions", "reprod_store_kind_evictions_total", "Memory-tier evictions by artefact kind.",
			telemetry.Labeled{Label: "kind", Values: ss.KindEvictions}),
		telemetry.Counter("events_published", "reprod_events_published_total", "Events materialized on the event bus.", bs.Published),
		telemetry.Counter("events_dropped", "reprod_events_dropped_total", "Events shed from slow subscribers' rings.", bs.Dropped),
		telemetry.Gauge("subscribers", "reprod_event_subscribers", "Event-bus subscribers currently attached.", bs.Subscribers),
		telemetry.Gauge("goroutines", "reprod_goroutines", "Goroutines in the process.", int64(runtime.NumGoroutine())),
	}
}
