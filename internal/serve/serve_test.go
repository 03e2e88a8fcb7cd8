package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/experiments"
)

// tinyOpt keeps serving tests fast; identity and coalescing hold at
// any budget.
func tinyOpt() experiments.Options {
	return experiments.Options{Budget: 25_000, SweepBudget: 15_000, RosterBudget: 8_000}
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Opt == (experiments.Options{}) {
		cfg.Opt = tinyOpt()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// TestCoalescing32ConcurrentColdRequests is the tentpole proof: 32
// concurrent requests for one cold figure run exactly one computation
// (one render, one flight execution), return identical bytes, and the
// warm re-request afterwards recomputes nothing at all.
func TestCoalescing32ConcurrentColdRequests(t *testing.T) {
	srv, ts := startServer(t, Config{Parallelism: 2})

	const n = 32
	bodies := make([][]byte, n)
	sources := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, hdr, b := get(t, ts.URL+"/v1/units/fig6")
			if code != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, code, b)
				return
			}
			bodies[i] = b
			sources[i] = hdr.Get("X-Reprod-Source")
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d returned different bytes", i)
		}
	}
	st := srv.Metrics()
	if st.Int("computes") != 1 {
		t.Fatalf("32 cold requests ran %d computations, want exactly 1", st.Int("computes"))
	}
	if st.Int("renders") != 1 {
		t.Fatalf("32 cold requests rendered %d times, want exactly 1", st.Int("renders"))
	}
	coldPasses := st.Int("trace_passes")
	if coldPasses == 0 {
		t.Fatal("cold figure traced nothing")
	}
	computed := 0
	for _, s := range sources {
		if s == "computed" {
			computed++
		}
	}
	if computed != 1 {
		t.Fatalf("%d requests claim to have computed; want 1 (rest coalesced/warm)", computed)
	}

	// Warm re-request: zero simulation, zero renders, straight store I/O.
	code, hdr, b := get(t, ts.URL+"/v1/units/fig6")
	if code != http.StatusOK || hdr.Get("X-Reprod-Source") != "warm" {
		t.Fatalf("warm request: status %d source %q", code, hdr.Get("X-Reprod-Source"))
	}
	if !bytes.Equal(b, bodies[0]) {
		t.Fatal("warm bytes differ from cold")
	}
	st = srv.Metrics()
	if st.Int("computes") != 1 || st.Int("renders") != 1 || st.Int("trace_passes") != coldPasses {
		t.Fatalf("warm request recomputed: %+v", st)
	}
}

// TestUnitBytesMatchEngine pins the byte-identity criterion: a unit
// served over HTTP equals the same unit rendered by the engine (the
// path cmd/repro writes files through) at the same options.
func TestUnitBytesMatchEngine(t *testing.T) {
	_, ts := startServer(t, Config{})
	code, _, served := get(t, ts.URL+"/v1/units/table2")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, served)
	}

	sess := experiments.NewSession(tinyOpt())
	e := &experiments.Engine{Session: sess, Select: []string{"table2"}}
	results, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, r := range results {
		if r.Unit.Name == "table2" {
			r.Artifact.Render(&want)
		}
	}
	if !bytes.Equal(served, want.Bytes()) {
		t.Fatalf("served unit differs from engine rendering:\nserved %d bytes, engine %d bytes",
			len(served), want.Len())
	}
}

// TestScenarioDefaultViewStoresInstCurves pins what a cold scenario
// that leaves its views at the default persists: one instruction curve
// per workload, and no data or unified curve.
func TestScenarioDefaultViewStoresInstCurves(t *testing.T) {
	dir := t.TempDir()
	st, err := artifact.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{Store: st})
	spec := `{"workloads": ["H-Grep", "S-Sort"], "sizes_kb": [16, 64, 256]}`
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold scenario: %d: %s", resp.StatusCode, body)
	}
	files, err := filepath.Glob(filepath.Join(dir, "sweep-curves-*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]int{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		e, err := artifact.DecodeEntry(b)
		if err != nil {
			t.Fatal(err)
		}
		var label struct{ View string }
		if err := json.Unmarshal([]byte(e.Label), &label); err != nil {
			t.Fatal(err)
		}
		views[label.View]++
	}
	if len(views) != 1 || views["inst"] != 2 {
		t.Fatalf("stored curve artefacts by view %v, want two inst curves only", views)
	}
}

// TestScenarioEndpoint pins the scenario round trip: cold compute,
// equivalent-spec warm hit, byte identity with the library path, and
// validation errors as 400s.
func TestScenarioEndpoint(t *testing.T) {
	srv, ts := startServer(t, Config{})
	spec := `{"workloads": ["H-Grep", "S-Sort"], "sizes_kb": [16, 64, 256]}`
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold scenario: %d: %s", resp.StatusCode, cold)
	}

	// The equivalent spec (reordered, explicit defaults) must hit warm.
	equiv := `{"workloads": ["S-Sort", "H-Grep"], "sizes_kb": [256, 64, 16], "ways": 8, "views": ["inst"]}`
	resp, err = http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(equiv))
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := io.ReadAll(resp.Body)
	src := resp.Header.Get("X-Reprod-Source")
	resp.Body.Close()
	if src != "warm" {
		t.Fatalf("equivalent spec source %q, want warm", src)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("equivalent scenario bytes differ")
	}
	if st := srv.Metrics(); st.Int("computes") != 1 {
		t.Fatalf("equivalent specs computed %d times", st.Int("computes"))
	}

	// Library path serves the same bytes from a session sharing the store.
	sess := experiments.NewSession(tinyOpt())
	sess.Store = srv.Store()
	var spec2 Scenario
	if err := json.Unmarshal([]byte(spec), &spec2); err != nil {
		t.Fatal(err)
	}
	lib, err := experiments.RunScenario(sess, spec2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, lib) {
		t.Fatal("served scenario differs from library rendering")
	}

	// Bad specs are 400s, not 500s.
	for _, bad := range []string{
		`{"workloads": ["Z-Nothing"]}`,
		`{"groups": ["nope"]}`,
		`{}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestUnknownUnit404 pins request validation, and that units live only
// under /v1.
func TestUnknownUnit404(t *testing.T) {
	_, ts := startServer(t, Config{})
	for _, path := range []string{"/v1/units/fig99", "/units/fig6"} {
		if code, _, _ := get(t, ts.URL+path); code != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, code)
		}
	}
}

// TestUnitIndexMatchesEngine pins the per-server unit index that
// validates and keys unit requests: exactly the visible units, each
// under the key the engine memoizes its render with.
func TestUnitIndexMatchesEngine(t *testing.T) {
	srv, _ := startServer(t, Config{})
	names := experiments.VisibleUnitNames()
	if len(srv.units) != len(names) {
		t.Fatalf("index holds %d units, want %d", len(srv.units), len(names))
	}
	for _, name := range names {
		key, ok := srv.units[name]
		if !ok {
			t.Errorf("unit %q missing from the index", name)
			continue
		}
		if want := experiments.UnitRenderKey(tinyOpt(), name); key != want {
			t.Errorf("unit %q keyed %s, want %s", name, key.ID(), want.ID())
		}
	}
}

// TestJobLifecycle pins the async API: submit → poll to done with
// per-unit timings → the computed unit is then served warm.
func TestJobLifecycle(t *testing.T) {
	srv, ts := startServer(t, Config{Parallelism: 2})
	body := `{"units": ["table2"], "scenarios": [{"name": "jobspec", "workloads": ["H-Grep"], "sizes_kb": [16, 64]}]}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ack, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, ack)
	}
	var idResp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(ack, &idResp); err != nil || idResp.ID == "" {
		t.Fatalf("submit ack %q: %v", ack, err)
	}

	var status JobStatus
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, _, b := get(t, ts.URL+"/v1/jobs/"+idResp.ID)
		if code != http.StatusOK {
			t.Fatalf("poll: %d: %s", code, b)
		}
		if err := json.Unmarshal(b, &status); err != nil {
			t.Fatal(err)
		}
		if status.State == JobDone || status.State == JobFailed || status.State == JobCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", status.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if status.State != JobDone {
		t.Fatalf("job finished %s (%s)", status.State, status.Error)
	}
	if status.Started == nil || status.Finished == nil {
		t.Fatal("done job missing timestamps")
	}
	var sawUnit, sawPrimer, sawScenario bool
	for _, tm := range status.Timings {
		switch {
		case tm.Unit == "table2" && tm.Status == "ok":
			sawUnit = true
		case tm.Status == "primer":
			sawPrimer = true
		case tm.Unit == "scenario:jobspec" && tm.Status == "ok":
			sawScenario = true
		}
	}
	if !sawUnit || !sawPrimer || !sawScenario {
		t.Fatalf("timings missing rows: unit=%v primer=%v scenario=%v (%+v)",
			sawUnit, sawPrimer, sawScenario, status.Timings)
	}

	// The job warmed the store: the unit now serves warm.
	code, hdr, _ := get(t, ts.URL+"/v1/units/table2")
	if code != http.StatusOK || hdr.Get("X-Reprod-Source") != "warm" {
		t.Fatalf("post-job unit: %d source %q", code, hdr.Get("X-Reprod-Source"))
	}
	if st := srv.Metrics(); st.Int("jobs_done") != 1 {
		t.Fatalf("jobs done = %d", st.Int("jobs_done"))
	}

	// Job listing includes it (as a summary in the page envelope).
	code, _, b := get(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var page JobPage
	if err := json.Unmarshal(b, &page); err != nil || len(page.Jobs) != 1 || page.Jobs[0].ID != idResp.ID {
		t.Fatalf("list %s: %v", b, err)
	}
}

// TestJobOverWarmUnitsComputesNothing pins what computes counts for
// jobs, as for requests: a session that rendered something. A job over
// a unit already served warm copies bytes out of the store and leaves
// computes alone; a job over a cold unit moves it by exactly one.
func TestJobOverWarmUnitsComputesNothing(t *testing.T) {
	srv, ts := startServer(t, Config{})
	if code, _, b := get(t, ts.URL+"/v1/units/table3"); code != http.StatusOK {
		t.Fatalf("unit: %d: %s", code, b)
	}
	computes := srv.Metrics().Int("computes")
	completeJob(t, ts.URL, `{"units": ["table3"]}`)
	if st := srv.Metrics(); st.Int("computes") != computes || st.Int("renders") != 1 {
		t.Fatalf("warm job: computes %d -> %d, renders %d; want computes unchanged, 1 render",
			computes, st.Int("computes"), st.Int("renders"))
	}
	completeJob(t, ts.URL, `{"units": ["table2"]}`)
	if got := srv.Metrics().Int("computes"); got != computes+1 {
		t.Fatalf("cold job: computes %d -> %d, want +1", computes, got)
	}
}

// TestJobValidation pins early rejection.
func TestJobValidation(t *testing.T) {
	_, ts := startServer(t, Config{})
	for _, bad := range []string{
		`{}`,
		`{"units": ["fig99"]}`,
		`{"scenarios": [{"workloads": ["Z-Nothing"]}]}`,
		`{"scenarios": [{"name": "scenario-2", "workloads": ["H-Grep"]}, {"workloads": ["S-Sort"]}]}`, // the unnamed spec's name
		`garbage`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("job %q: %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestShutdownDrainsRunningAbortsQueued pins the drain contract: after
// BeginShutdown new jobs are refused 503, queued jobs finish canceled,
// and Drain returns once running work completes.
func TestShutdownDrainsRunningAbortsQueued(t *testing.T) {
	srv, ts := startServer(t, Config{})

	// A job cancelled before any worker picks it up must finish
	// canceled; simulate the queued state directly.
	j := srv.jobs.add(JobRequest{Units: []string{"table3"}})
	j.cancel()
	go func() {
		defer srv.jobs.wg.Done()
		srv.pool.ForEach(1, func(int) { srv.runJob(j) })
	}()

	srv.BeginShutdown()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"units": ["table3"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if j.status().State != JobCanceled {
		t.Fatalf("queued job finished %s, want canceled", j.status().State)
	}
}

// TestClientDisconnectCancelsAbandonedFlight pins cancellation by
// abandonment: when every waiter of a cold computation leaves, the
// flight's context is cancelled, the simulation stops, and the key is
// left clean for the next request.
func TestClientDisconnectCancelsAbandonedFlight(t *testing.T) {
	srv, ts := startServer(t, Config{Parallelism: 1})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/units/fig7", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	// Give the flight a moment to start, then walk away.
	deadline := time.Now().Add(10 * time.Second)
	for srv.flights.inFlight() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("disconnected request returned a response")
	}

	// The abandoned flight must unwind (not linger computing).
	for time.Now().Before(deadline) && srv.flights.inFlight() != 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.flights.inFlight(); n != 0 {
		t.Fatalf("%d flights still alive after abandonment", n)
	}

	// And the key is not poisoned: a fresh request computes fine.
	code, _, b := get(t, ts.URL+"/v1/units/fig7")
	if code != http.StatusOK {
		t.Fatalf("post-abandon request: %d: %s", code, b)
	}
}

// TestFlightGroupSharesOneRun unit-tests the coalescing primitive:
// concurrent do() calls for one key run fn once; a second round after
// completion runs it again (no stale flights).
func TestFlightGroupSharesOneRun(t *testing.T) {
	g := newFlightGroup(nil)
	var runs int32
	var mu sync.Mutex
	run := func(ctx context.Context) ([]byte, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		return []byte("v"), nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := g.do(context.Background(), "k", run)
			if err != nil || string(v) != "v" {
				t.Errorf("do: %q %v", v, err)
			}
		}()
	}
	wg.Wait()
	if runs != 1 {
		t.Fatalf("16 concurrent do() ran fn %d times", runs)
	}
	if _, _, err := g.do(context.Background(), "k", run); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("post-completion do() reused a dead flight (runs=%d)", runs)
	}
}

// TestFlightGroupAbandonmentCancelsRun unit-tests refcounted
// cancellation: when all waiters leave, fn's context dies.
func TestFlightGroupAbandonmentCancelsRun(t *testing.T) {
	g := newFlightGroup(nil)
	started := make(chan struct{})
	cancelled := make(chan struct{})
	run := func(ctx context.Context) ([]byte, error) {
		close(started)
		select {
		case <-ctx.Done():
			close(cancelled)
			return nil, ctx.Err()
		case <-time.After(30 * time.Second):
			return []byte("too late"), nil
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := g.do(ctx, "k", run)
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("abandoned waiter err = %v", err)
	}
	select {
	case <-cancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("flight context never cancelled after last waiter left")
	}
}

// TestStatsAndMetricsEndpoints pins the observability surface.
func TestStatsAndMetricsEndpoints(t *testing.T) {
	_, ts := startServer(t, Config{})
	get(t, ts.URL+"/v1/units/table3")

	code, _, b := get(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var stats map[string]any
	if err := json.Unmarshal(b, &stats); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"unit_requests", "computes", "renders", "trace_passes", "store_fills",
		"store_evictions", "store_resident_bytes", "store_mem_hit_ratio"} {
		if _, ok := stats[k]; !ok {
			t.Errorf("stats missing %q", k)
		}
	}
	if stats["unit_requests"] != float64(1) || stats["computes"] != float64(1) {
		t.Fatalf("stats counters off: %v", stats)
	}

	code, hdr, mb := get(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("metrics: %d %q", code, hdr.Get("Content-Type"))
	}
	for _, family := range []string{
		"# TYPE reprod_unit_requests_total counter",
		"# TYPE reprod_computes_total counter",
		"# TYPE reprod_in_flight gauge",
		"reprod_unit_requests_total 1",
	} {
		if !strings.Contains(string(mb), family) {
			t.Errorf("metrics missing %q", family)
		}
	}

	code, _, hb := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || string(hb) != "ok\n" {
		t.Fatalf("healthz: %d %q", code, hb)
	}
}

// TestEngineCountersAndMultiGeometryServing pins the sweep cost model
// and its observability: the golden four-associativity scenario,
// served at Quick(), hashes to its committed digest and moves both
// trace_passes and sweep_stackdist_passes by exactly one, and the
// pass reaches /metrics.
func TestEngineCountersAndMultiGeometryServing(t *testing.T) {
	gb, err := os.ReadFile("../experiments/testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(gb, &golden); err != nil {
		t.Fatal(err)
	}
	srv, ts := startServer(t, Config{Opt: experiments.Quick()})
	stats := func() map[string]any {
		t.Helper()
		_, _, b := get(t, ts.URL+"/v1/stats")
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	before := stats()
	spec := `{"name": "multigeo", "workloads": ["H-Grep"], "sizes_kb": [16, 64, 256], "ways_set": [1, 2, 8, 16], "views": ["inst", "data"]}`
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario: %d: %s", resp.StatusCode, b)
	}
	sum := sha256.Sum256(b)
	if got, want := hex.EncodeToString(sum[:]), golden["scenario/multigeo"]; got != want {
		t.Fatalf("served multigeo digest %s, golden %s", got, want)
	}

	after := stats()
	for _, k := range []string{"trace_passes", "sweep_stackdist_passes"} {
		if d := after[k].(float64) - before[k].(float64); d != 1 {
			t.Errorf("%s moved by %v, want 1", k, d)
		}
	}
	if st := srv.Metrics(); st.Int("trace_passes") != 1 {
		t.Errorf("server trace passes %d, want 1", st.Int("trace_passes"))
	}
	_, _, mb := get(t, ts.URL+"/metrics")
	for _, family := range []string{
		"# TYPE reprod_sweep_stackdist_passes_total counter",
		"reprod_sweep_stackdist_passes_total 1",
	} {
		if !strings.Contains(string(mb), family) {
			t.Errorf("metrics missing %q", family)
		}
	}
}

// TestScenarioGeometryBombsRejected pins the untrusted-geometry guard:
// sizes, associativities and line sizes whose sweep would exhaust
// memory or overflow the set arithmetic are refused 400
// invalid_scenario before any allocation, and the daemon keeps
// serving.
func TestScenarioGeometryBombsRejected(t *testing.T) {
	srv, ts := startServer(t, Config{})
	for _, body := range []string{
		`{"workloads": ["H-Grep"], "sizes_kb": [1073741824]}`,
		`{"workloads": ["H-Grep"], "sizes_kb": [16, 1073741824]}`,
		`{"workloads": ["H-Grep"], "ways": 288230376151711744}`,
		`{"workloads": ["H-Grep"], "line_bytes": 4611686018427387904}`,
		`{"workloads": ["H-Grep"], "sizes_kb": [16, 18014398509481984]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", body, resp.StatusCode, b)
			continue
		}
		if e := decodeErr(t, b); e.Code != "invalid_scenario" {
			t.Errorf("%s: envelope %+v, want code invalid_scenario", body, e)
		}
	}
	if code, _, hb := get(t, ts.URL+"/healthz"); code != http.StatusOK || string(hb) != "ok\n" {
		t.Fatalf("healthz after rejected scenarios: %d %q", code, hb)
	}
	if st := srv.Metrics(); st.Int("computes") != 0 {
		t.Errorf("rejected scenarios ran %d computations", st.Int("computes"))
	}
}

// TestServedBytesStableAcrossRestart pins persistence integration: a
// second server over the same disk store serves the first server's
// bytes warm.
func TestServedBytesStableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Server, *httptest.Server) {
		st, err := artifact.NewDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		return startServer(t, Config{Store: st})
	}
	_, ts1 := open()
	code, _, cold := get(t, ts1.URL+"/v1/units/table1")
	if code != http.StatusOK {
		t.Fatalf("cold: %d", code)
	}
	srv2, ts2 := open()
	code, hdr, warm := get(t, ts2.URL+"/v1/units/table1")
	if code != http.StatusOK || hdr.Get("X-Reprod-Source") != "warm" {
		t.Fatalf("restart: %d source %q", code, hdr.Get("X-Reprod-Source"))
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("restarted server served different bytes")
	}
	if st := srv2.Metrics(); st.Int("computes") != 0 {
		t.Fatalf("restarted server recomputed %d times", st.Int("computes"))
	}
}

// TestJobInlineResults pins GET /jobs/{id} carrying rendered bytes:
// the unit result matches what /units serves, the scenario result
// matches what /scenarios serves, and nothing is truncated at real
// render sizes.
func TestJobInlineResults(t *testing.T) {
	_, ts := startServer(t, Config{Parallelism: 2})
	body := `{"units": ["table2"], "scenarios": [{"name": "inline", "workloads": ["H-Grep"], "sizes_kb": [16, 64]}]}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ack, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var idResp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(ack, &idResp); err != nil || idResp.ID == "" {
		t.Fatalf("submit ack %q: %v", ack, err)
	}

	var status JobStatus
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, _, b := get(t, ts.URL+"/v1/jobs/"+idResp.ID)
		if err := json.Unmarshal(b, &status); err != nil {
			t.Fatal(err)
		}
		if status.State == JobDone || status.State == JobFailed || status.State == JobCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", status.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if status.State != JobDone {
		t.Fatalf("job finished %s (%s)", status.State, status.Error)
	}
	if status.ResultsTruncated {
		t.Fatal("small job claims truncated results")
	}
	if len(status.Results) != 2 {
		t.Fatalf("want 2 inline results, got %d: %v", len(status.Results), keysOf(status.Results))
	}

	// The inline unit render is exactly what the synchronous endpoint
	// serves for the same store.
	code, _, unitBytes := get(t, ts.URL+"/v1/units/table2")
	if code != http.StatusOK {
		t.Fatalf("unit fetch: %d", code)
	}
	if status.Results["table2"] != string(unitBytes) {
		t.Fatal("inline unit result differs from /units/table2")
	}
	resp, err = http.Post(ts.URL+"/v1/scenarios", "application/json",
		strings.NewReader(`{"name": "inline", "workloads": ["H-Grep"], "sizes_kb": [16, 64]}`))
	if err != nil {
		t.Fatal(err)
	}
	scenBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if status.Results["scenario:inline"] != string(scenBytes) {
		t.Fatal("inline scenario result differs from /scenarios")
	}

	// Hidden primer units carry timings but no inline render.
	if _, ok := status.Results["dataset-primer"]; ok {
		t.Fatal("hidden primer leaked an inline result")
	}
}

func keysOf(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestServingUnderMemQuota pins eviction byte-invisibility end to end:
// a server squeezed into a far-too-small memory quota evicts
// constantly, yet every re-requested unit and scenario serves exactly
// the bytes the first (fully cold) request served.
func TestServingUnderMemQuota(t *testing.T) {
	srv, ts := startServer(t, Config{
		Parallelism: 2,
		MemQuota:    artifact.MemQuota{MaxBytes: 4 << 10},
	})

	code, _, cold := get(t, ts.URL+"/v1/units/table1")
	if code != http.StatusOK {
		t.Fatalf("cold unit: %d", code)
	}
	spec := `{"workloads": ["H-Grep"], "sizes_kb": [16, 64]}`
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	scenCold, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	// Churn distinct scenarios through the tiny quota to force
	// eviction of everything above.
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"workloads": ["S-Sort"], "sizes_kb": [%d]}`, 16<<i)
		resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	st := srv.Store().Stats()
	if st.Evictions == 0 {
		t.Fatalf("4KB quota never evicted: %+v", st)
	}
	if st.ResidentBytes > 4<<10 {
		t.Fatalf("resident %d exceeds the 4KB quota", st.ResidentBytes)
	}

	code, _, again := get(t, ts.URL+"/v1/units/table1")
	if code != http.StatusOK {
		t.Fatalf("re-request: %d", code)
	}
	if !bytes.Equal(cold, again) {
		t.Fatal("evicted unit re-served different bytes")
	}
	resp, err = http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	scenAgain, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(scenCold, scenAgain) {
		t.Fatal("evicted scenario re-served different bytes")
	}

	// The eviction counters surface in both observability endpoints.
	_, _, sb := get(t, ts.URL+"/v1/stats")
	var stats map[string]any
	if err := json.Unmarshal(sb, &stats); err != nil {
		t.Fatal(err)
	}
	if ev, ok := stats["store_evictions"].(float64); !ok || ev == 0 {
		t.Fatalf("/stats store_evictions = %v", stats["store_evictions"])
	}
	_, _, mb := get(t, ts.URL+"/metrics")
	for _, family := range []string{
		"# TYPE reprod_store_evictions_total counter",
		"# TYPE reprod_store_resident_bytes gauge",
		"# TYPE reprod_store_kind_resident_bytes gauge",
		"reprod_store_kind_evictions_total{kind=",
	} {
		if !strings.Contains(string(mb), family) {
			t.Errorf("metrics missing %q", family)
		}
	}
}
