package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// The v1 HTTP surface. Every resource lives under /v1.
//
//	GET    /v1/units/{unit}   one paper unit, rendered text (fig6, table2, ...)
//	POST   /v1/scenarios      ad-hoc scenario spec (JSON body) → rendered text
//	POST   /v1/jobs           {"units": [...], "scenarios": [...]} → {"id": ...}
//	GET    /v1/jobs           paginated summaries: ?state= ?limit= ?cursor=
//	GET    /v1/jobs/{id}      state, timings, inline results, error
//	DELETE /v1/jobs/{id}      cancel (queued or running)
//	GET    /v1/jobs/{id}/events  SSE: backlog replay + live lifecycle events
//	GET    /v1/events         SSE firehose, ?topics= filter (engine, flight, store, fleet, job/*)
//	GET    /v1/stats          counters as JSON
//	GET    /metrics           Prometheus text format (unversioned: infra)
//	GET    /healthz           liveness probe, "ok" (unversioned: infra)
//
// Errors are a uniform JSON envelope with a stable machine-readable
// code, replacing the pre-v1 ad-hoc text bodies:
//
//	{"error": {"code": "unknown_unit", "message": "...", "key": "..."}}
//
// key carries the artifact identity the request resolved to, when it
// resolved to one (compute failures, abandoned flights). Codes:
// method_not_allowed, bad_body, unknown_unit, invalid_scenario,
// invalid_job, unknown_job, invalid_query, draining,
// client_closed_request, compute_failed.
//
// GET /v1/jobs returns a page envelope, newest first:
//
//	{"jobs": [summary...], "next_cursor": "job-00000042"}
//
// Summaries omit timings and results (fetch the job id for those).
// ?state= filters on one lifecycle state, ?limit= bounds the page
// (default 100, max 1000), ?cursor= resumes after a previous page's
// next_cursor. next_cursor is absent on the last page.

// apiError is the body of the v1 error envelope.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Key     string `json:"key,omitempty"`
}

// writeErr writes the uniform v1 error envelope.
func writeErr(w http.ResponseWriter, status int, code, message, key string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error apiError `json:"error"`
	}{apiError{Code: code, Message: message, Key: key}})
}

// statusClientClosedRequest is nginx's conventional 499 — the request
// ended because the requester left, not because either side failed.
const statusClientClosedRequest = 499

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/units/", s.handleUnit)
	mux.HandleFunc("/v1/scenarios", s.handleScenario)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/events", s.handleEvents)
	mux.HandleFunc("/v1/stats", telemetry.JSONHandler(s.Metrics))
	mux.HandleFunc("/metrics", telemetry.PrometheusHandler(s.Metrics))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	// Liveness and readiness are deliberately split: /healthz says the
	// process is up (restarting it won't help), /readyz says it wants
	// traffic. A draining or degraded replica is alive but not ready —
	// load balancers should drain it, not kill it. Degraded replicas
	// still answer correctly (memory hits + local compute), so /readyz
	// is advisory, not a correctness gate.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		ready, reason := s.Healthy()
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		io.WriteString(w, reason+"\n")
	})
	return mux
}

// respond writes rendered bytes with provenance headers — the id the
// bytes live under in the store, and how this request obtained them
// (warm / computed / coalesced), which the coalescing tests and the CI
// serving job assert on.
func respond(w http.ResponseWriter, keyID, source string, b []byte) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Reprod-Key", keyID)
	w.Header().Set("X-Reprod-Source", source)
	w.Write(b)
}

// warm answers from the store when key's bytes are already available
// to it (memory tier or backend): pure store I/O, no session, no render.
func (s *Server) warm(w http.ResponseWriter, key artifact.Key) bool {
	b, ok := artifact.Peek[[]byte](s.store, key, nil)
	if ok {
		s.warmHits.Add(1)
		respond(w, key.ID(), "warm", b)
	}
	return ok
}

// cold answers a request the warm check missed: proxied to the key's
// fleet home when another replica owns it, computed under coalescing
// otherwise. body is the request body a proxy resends (nil for GETs). A
// failed proxy spent its retry budget in backoff, long enough for a
// concurrent requester (or the rerouted wave in front of us) to have
// finished the key locally, so the store is checked once more before
// a fresh flight opens.
func (s *Server) cold(w http.ResponseWriter, r *http.Request, key artifact.Key, body []byte, run func(context.Context) ([]byte, error)) {
	keyID := key.ID()
	if owner, fwd := s.route(r, keyID); fwd {
		if s.proxy(w, r, owner, keyID, body) || s.warm(w, key) {
			return
		}
	}
	b, joined, err := s.flights.do(r.Context(), keyID, run)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The client is gone (or every client was): nothing useful
			// to write, but account for the abandonment.
			s.abandoned.Add(1)
			writeErr(w, statusClientClosedRequest, "client_closed_request",
				"request cancelled: every requester left", keyID)
			return
		}
		writeErr(w, http.StatusInternalServerError, "compute_failed", err.Error(), keyID)
		return
	}
	source := "computed"
	if joined {
		source = "coalesced"
		s.coalesced.Add(1)
	}
	respond(w, keyID, source, b)
}

// handleUnit answers GET /v1/units/{unit}: the rendered unit, served
// warm from the store when possible, proxied to the key's fleet home
// when cold on a non-home replica, computed (coalesced) otherwise —
// byte-identical to what cmd/repro writes for the same unit at the
// same options.
func (s *Server) handleUnit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "units are fetched with GET", "")
		return
	}
	unit := strings.ToLower(strings.TrimPrefix(r.URL.Path, "/v1/units/"))
	key, ok := s.units[unit]
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown_unit", fmt.Sprintf("unknown unit %q (known: %s)",
			unit, strings.Join(experiments.VisibleUnitNames(), " ")), "")
		return
	}
	s.unitReqs.Add(1)
	if s.warm(w, key) {
		return
	}
	s.cold(w, r, key, nil, s.unitCompute(unit, key.ID()))
}

// handleScenario answers POST /v1/scenarios: validate and canonicalize
// the spec, then serve it exactly like a unit — warm from the store,
// proxied to its fleet home, or computed once under coalescing.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "scenarios are submitted with POST", "")
		return
	}
	spec, ok := decodeScenario(w, r)
	if !ok {
		return
	}
	canon, err := spec.Canonical(s.cfg.Opt)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_scenario", err.Error(), "")
		return
	}
	s.scenarioReqs.Add(1)
	key := experiments.ScenarioKey(canon)
	if s.warm(w, key) {
		return
	}
	// Marshal the canonical form before routing: route() may consume a
	// tripped owner's single half-open probe slot, which must not be
	// wasted on a request that then fails to serialize. The owner
	// re-canonicalizes (idempotent) and lands on the same key.
	body, err := json.Marshal(canon)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_scenario", err.Error(), key.ID())
		return
	}
	s.cold(w, r, key, body, s.scenarioCompute(canon, key.ID()))
}

// decodeScenario parses a scenario body, bounding it like any request
// body.
func decodeScenario(w http.ResponseWriter, r *http.Request) (Scenario, bool) {
	var spec Scenario
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil || json.Unmarshal(body, &spec) != nil {
		writeErr(w, http.StatusBadRequest, "bad_body", "body is not a JSON scenario spec", "")
		return Scenario{}, false
	}
	return spec, true
}

// maxJobsPageLimit bounds one GET /v1/jobs page.
const maxJobsPageLimit = 1000

// handleJobs answers POST /v1/jobs (submit) and GET /v1/jobs (list,
// paginated).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		state := JobState(q.Get("state"))
		if state != "" && !validJobState(state) {
			writeErr(w, http.StatusBadRequest, "invalid_query",
				fmt.Sprintf("unknown state %q (want queued, running, done, failed or canceled)", state), "")
			return
		}
		limit := 100
		if ls := q.Get("limit"); ls != "" {
			n, err := strconv.Atoi(ls)
			if err != nil || n <= 0 || n > maxJobsPageLimit {
				writeErr(w, http.StatusBadRequest, "invalid_query",
					fmt.Sprintf("limit %q must be an integer in [1, %d]", ls, maxJobsPageLimit), "")
				return
			}
			limit = n
		}
		cursor := q.Get("cursor")
		if cursor != "" && !strings.HasPrefix(cursor, "job-") {
			writeErr(w, http.StatusBadRequest, "invalid_query",
				fmt.Sprintf("cursor %q is not a job id from a previous page", cursor), "")
			return
		}
		page := s.jobs.page(state, limit, cursor)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(page)
	case http.MethodPost:
		if s.draining.Load() {
			writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; submit to another replica", "")
			return
		}
		var req JobRequest
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil || json.Unmarshal(body, &req) != nil {
			writeErr(w, http.StatusBadRequest, "bad_body", "body is not a JSON job request", "")
			return
		}
		if len(req.Units) == 0 && len(req.Scenarios) == 0 {
			writeErr(w, http.StatusBadRequest, "invalid_job", "job selects no units and no scenarios", "")
			return
		}
		for i, u := range req.Units {
			req.Units[i] = strings.ToLower(u)
			if _, ok := s.units[req.Units[i]]; !ok {
				writeErr(w, http.StatusBadRequest, "unknown_unit", fmt.Sprintf("unknown unit %q", u), "")
				return
			}
		}
		// Scenarios are canonicalized now, so a bad spec fails the
		// submit, not the poll, and the job runs the canonical forms. A
		// job reports each result under its name, so two scenarios may
		// not share one.
		names := make(map[string]bool, len(req.Scenarios))
		for i, spec := range req.Scenarios {
			canon, err := spec.Canonical(s.cfg.Opt)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "invalid_scenario", err.Error(), "")
				return
			}
			name := scenarioName(i, spec)
			if names[name] {
				writeErr(w, http.StatusBadRequest, "invalid_job", fmt.Sprintf("job names two scenarios %q", name), "")
				return
			}
			names[name] = true
			req.Scenarios[i] = canon
		}
		j := s.jobs.add(req)
		s.jobsSubmitted.Add(1)
		s.emitJob(j, "queued", map[string]any{"units": len(req.Units), "scenarios": len(req.Scenarios)})
		go func() {
			defer s.jobs.wg.Done()
			s.pool.ForEach(1, func(int) { s.runJob(j) })
		}()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": j.id})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "jobs are listed with GET and submitted with POST", "")
	}
}

// handleJob answers GET /v1/jobs/{id} (status), DELETE /v1/jobs/{id}
// (cancel), and GET /v1/jobs/{id}/events (SSE lifecycle stream).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	events := false
	if rest, ok := strings.CutSuffix(id, "/events"); ok {
		id, events = rest, true
	}
	j, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown_job", "unknown job "+id, "")
		return
	}
	if events {
		s.handleJobEvents(w, r, j)
		return
	}
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.jobStatus(r.Context(), j))
	case http.MethodDelete:
		j.cancel()
		w.WriteHeader(http.StatusAccepted)
	default:
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "jobs are polled with GET and cancelled with DELETE", "")
	}
}
