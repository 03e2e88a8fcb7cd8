package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/serve"
)

// startTestFleet brings up a 2-replica reprod fleet sharing one store
// — the in-process analogue of the CI serving-perf topology.
func startTestFleet(t *testing.T) ([]*serve.Server, []string) {
	t.Helper()
	opt := experiments.Options{Budget: 25_000, SweepBudget: 15_000, RosterBudget: 8_000}
	store := artifact.New()
	const n = 2
	servers := make([]*serve.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		host := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			servers[i].Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(host.Close)
		urls[i] = host.URL
	}
	for i := 0; i < n; i++ {
		srv, err := serve.New(serve.Config{Opt: opt, Store: store, Parallelism: 2, Self: urls[i], Peers: urls})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
	}
	return servers, urls
}

// TestRunnerEndToEnd drives a full suite — warm flood, cold stampede,
// ad-hoc geometries — against a live 2-replica fleet and pins what the
// CI gate relies on: the warm mix never computes, each stampede wave
// computes exactly once fleet-wide, ad-hoc requests compute per
// request, and RSS sampling yields a real number.
func TestRunnerEndToEnd(t *testing.T) {
	servers, urls := startTestFleet(t)
	dir := writeSuite(t, testMachine, map[string]string{
		"1_warm_hit_flood": `{
  "mix": "warm_flood",
  "scenario": {"workloads": ["H-Grep"], "sizes_kb": [16, 64]},
  "ramp": {"start": 2, "end": 4, "step": 2, "requests_per_step": 10},
  "goals": {"min_throughput_rps": 1, "max_error_rate": 0, "max_computes": 0}
}`,
		"2_cold_stampede": `{
  "mix": "cold_stampede",
  "scenario": {"workloads": ["H-Grep"], "sizes_kb": [16]},
  "ramp": {"start": 8, "end": 16, "step": 8},
  "goals": {"max_error_rate": 0, "max_computes": 2}
}`,
		"3_adhoc_geometries": `{
  "mix": "adhoc_geometries",
  "scenario": {"workloads": ["S-Sort"], "sizes_kb": [16, 32]},
  "ramp": {"start": 2, "end": 2, "step": 1, "requests_per_step": 4},
  "goals": {"max_error_rate": 0}
}`,
	})
	suite, err := LoadSuite(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{
		Targets: urls,
		Salt:    "e2e",
		PIDs:    []int{os.Getpid()},
		Logf:    t.Logf,
	}
	report, err := r.Run(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Failures) != 0 {
		t.Fatalf("suite failed: %v", report.Failures)
	}
	if len(report.Cases) != 3 || report.Machine != "test-class" {
		t.Fatalf("report %+v", report)
	}

	warm, cold, adhoc := report.Cases[0], report.Cases[1], report.Cases[2]
	// Warm flood: 2 steps × 10 requests, all warm, zero computes in
	// the measured phase (priming happens before the snapshot).
	if warm.Requests != 20 || warm.Errors != 0 {
		t.Fatalf("warm case: %+v", warm)
	}
	if warm.Computes != 0 || warm.WarmHits != 20 {
		t.Fatalf("warm flood computed %d / warm-hit %d, want 0/20", warm.Computes, warm.WarmHits)
	}
	// Cold stampede: two waves (8-wide, 16-wide), one fresh key each →
	// exactly 2 computes fleet-wide for 24 requests.
	if cold.Requests != 24 || cold.Errors != 0 {
		t.Fatalf("cold case: %+v", cold)
	}
	if cold.Computes != 2 {
		t.Fatalf("cold stampede computed %d times fleet-wide, want exactly 2", cold.Computes)
	}
	// Ad-hoc: every request is a distinct scenario → one compute each.
	if adhoc.Requests != 4 || adhoc.Computes != 4 {
		t.Fatalf("adhoc case: %+v", adhoc)
	}
	// RSS was actually sampled (monitoring this test process).
	for _, c := range report.Cases {
		if c.MaxRSSBytes <= 0 {
			t.Fatalf("case %s sampled no RSS", c.Case)
		}
	}
	// Replica counters agree with the report: the fleet as a whole
	// computed warm-prime 1 + cold 2 + adhoc 4 = 7 times.
	var computes int64
	for _, s := range servers {
		computes += s.Metrics().Int("computes")
	}
	if computes != 7 {
		t.Fatalf("fleet computed %d times total, want 7", computes)
	}

	// Goal regression turns into failures, not errors: rerun the warm
	// case against an impossible throughput floor.
	suite.Cases[0].Goals.MinThroughputRPS = 1e12
	report2, err := r.Run(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(report2.Failures) == 0 {
		t.Fatal("impossible goal passed")
	}
}

// TestRunnerNoTargets pins environmental-failure handling.
func TestRunnerNoTargets(t *testing.T) {
	r := &Runner{}
	if _, err := r.Run(context.Background(), &Suite{Machine: Machine{Name: "x"}}); err == nil {
		t.Fatal("no-target run succeeded")
	}
}
