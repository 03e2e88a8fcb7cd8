package loadgen

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// writeSuite materializes a goal directory for tests.
func writeSuite(t *testing.T, machine string, cases map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "machine.json"), []byte(machine), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, body := range cases {
		caseDir := filepath.Join(dir, "cases", name)
		if err := os.MkdirAll(caseDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(caseDir, "experiment.json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const testMachine = `{
  "name": "test-class",
  "description": "unit-test machine class",
  "limits": {"max_rss_mb": 4096}
}`

// TestLoadSuite pins directory loading: machine class, sorted cases,
// name defaulting from the directory, and validation, including the
// strict decode's rejections.
func TestLoadSuite(t *testing.T) {
	dir := writeSuite(t, testMachine, map[string]string{
		"b_cold": `{
  "mix": "cold_stampede",
  "scenario": {"workloads": ["H-Grep"], "sizes_kb": [16]},
  "ramp": {"start": 8, "end": 16, "step": 8},
  "goals": {"max_computes": 2}
}`,
		"a_warm": `{
  "name": "warm_named",
  "mix": "warm_flood",
  "scenario": {"workloads": ["H-Grep"], "sizes_kb": [16]},
  "ramp": {"start": 2, "end": 4, "step": 2, "requests_per_step": 10}
}`,
	})
	s, err := LoadSuite(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine.Name != "test-class" || s.Machine.Limits.MaxRSSMB != 4096 {
		t.Fatalf("machine %+v", s.Machine)
	}
	if len(s.Cases) != 2 || s.Cases[0].Name != "warm_named" || s.Cases[1].Name != "b_cold" {
		t.Fatalf("cases %+v", s.Cases)
	}
	if got := s.Cases[1].Ramp.steps(); len(got) != 2 || got[0] != 8 || got[1] != 16 {
		t.Fatalf("ramp steps %v", got)
	}

	const scenario = `"scenario": {"workloads": ["H-Grep"]}`
	const ramp = `"ramp": {"start": 1, "end": 1, "step": 1, "requests_per_step": 1}`
	for _, bad := range []struct{ name, doc, want string }{
		{"bad mix", `{"mix": "tsunami", ` + scenario + `, ` + ramp + `}`, "unknown mix"},
		{"no scenario", `{"mix": "warm_flood", ` + ramp + `}`, "no scenario"},
		{"bad ramp", `{"mix": "warm_flood", ` + scenario + `, "ramp": {"start": 4, "end": 2, "step": 1, "requests_per_step": 1}}`, "ramp start/end/step"},
		{"no per-step", `{"mix": "warm_flood", ` + scenario + `, "ramp": {"start": 1, "end": 1, "step": 1}}`, "requests_per_step"},
		{"unknown field", `{"mix": "warm_flood", ` + scenario + `, ` + ramp + `, "budget_goals": {}}`, `unknown field "budget_goals"`},
		{"duplicate key", `{"mix": "warm_flood", ` + scenario + `, ` + ramp + `, "goals": {"max_computes": 0, "max_computes": 9}}`, `duplicate key "max_computes"`},
		{"trailing data", `{"mix": "warm_flood", ` + scenario + `, ` + ramp + `} {}`, "data after the document"},
	} {
		dir := writeSuite(t, testMachine, map[string]string{"c": bad.doc})
		if _, err := LoadSuite(dir); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: got error %v, want one mentioning %q", bad.name, err, bad.want)
		}
	}
	if _, err := LoadSuite(writeSuite(t, testMachine, nil)); err == nil {
		t.Error("empty suite loaded without error")
	}
}

// TestCommittedSuites loads the goal suites CI gates on and pins both
// machine blocks and every case's mix, scenario, ramp and goals, so a
// broken or loosened goal file fails here rather than in the
// serving-perf or chaos job. Descriptions are free text and not pinned.
func TestCommittedSuites(t *testing.T) {
	rate := func(v float64) *float64 { return &v }
	computes := func(v int64) *int64 { return &v }
	scenario := func(workloads []any, sizesKB ...any) map[string]any {
		return map[string]any{"workloads": workloads, "sizes_kb": sizesKB}
	}
	grep, grepSort := []any{"H-Grep"}, []any{"H-Grep", "S-Sort"}
	for _, want := range []struct {
		dir     string
		machine Machine
		cases   []Case
	}{
		{
			dir:     "ci-1core",
			machine: Machine{Name: "ci-1core", Limits: Limits{MaxRSSMB: 2048}},
			cases: []Case{
				{
					Name: "adhoc_geometries", Mix: MixAdhocGeometries,
					Scenario: scenario(grep, 16.0, 64.0),
					Ramp:     Ramp{Start: 2, End: 4, Step: 2, RequestsPerStep: 8},
					Goals:    Goals{MaxErrorRate: rate(0), MaxP99Ms: 30000},
				},
				{
					Name: "cold_stampede", Mix: MixColdStampede,
					Scenario: scenario(grep, 16.0, 64.0),
					Ramp:     Ramp{Start: 8, End: 32, Step: 8},
					Goals:    Goals{MaxErrorRate: rate(0), MaxComputes: computes(4)},
				},
				{
					Name: "warm_hit_flood", Mix: MixWarmFlood,
					Scenario: scenario(grepSort, 16.0, 64.0, 256.0),
					Ramp:     Ramp{Start: 4, End: 16, Step: 4, RequestsPerStep: 150},
					Goals: Goals{
						MinThroughputRPS: 50, MaxP99Ms: 500,
						MaxErrorRate: rate(0), MaxComputes: computes(0),
					},
				},
			},
		},
		{
			dir:     "ci-1core-chaos",
			machine: Machine{Name: "ci-1core-chaos", RequestTimeout: "3m", Limits: Limits{MaxRSSMB: 2048}},
			cases: []Case{
				{
					Name: "chaos_cold_stampede", Mix: MixColdStampede,
					Scenario: scenario(grep, 16.0, 64.0),
					Ramp:     Ramp{Start: 8, End: 32, Step: 8},
					Goals:    Goals{MaxErrorRate: rate(0), MaxComputes: computes(4)},
				},
				{
					Name: "chaos_warm_flood", Mix: MixWarmFlood,
					Scenario: scenario(grepSort, 16.0, 64.0),
					Ramp:     Ramp{Start: 4, End: 8, Step: 4, RequestsPerStep: 100},
					Goals:    Goals{MaxErrorRate: rate(0), MaxComputes: computes(0)},
				},
			},
		},
	} {
		s, err := LoadSuite(filepath.Join("..", "..", "bench", "goals", want.dir))
		if err != nil {
			t.Fatal(err)
		}
		m := s.Machine
		m.Description = ""
		if m != want.machine {
			t.Errorf("%s machine %+v, want %+v", want.dir, m, want.machine)
		}
		if len(s.Cases) != len(want.cases) {
			t.Fatalf("%s has %d cases, want %d", want.dir, len(s.Cases), len(want.cases))
		}
		for i, c := range s.Cases {
			c.Description = ""
			if !reflect.DeepEqual(c, want.cases[i]) {
				got, _ := json.Marshal(c)
				exp, _ := json.Marshal(want.cases[i])
				t.Errorf("%s case %d:\n got %s\nwant %s", want.dir, i, got, exp)
			}
		}
	}
}

// TestMachineRequestTimeout pins the per-suite request bound: parsed
// from machine.json, validated at load time, zero when unset.
func TestMachineRequestTimeout(t *testing.T) {
	okCase := map[string]string{"c": `{
  "mix": "warm_flood",
  "scenario": {"workloads": ["H-Grep"]},
  "ramp": {"start": 1, "end": 1, "step": 1, "requests_per_step": 1}
}`}
	s, err := LoadSuite(writeSuite(t, `{"name": "chaos-class", "request_timeout": "3m"}`, okCase))
	if err != nil {
		t.Fatal(err)
	}
	if d, err := s.Machine.requestTimeout(); err != nil || d != 3*time.Minute {
		t.Fatalf("request_timeout %v %v, want 3m", d, err)
	}
	if d, err := (Machine{}).requestTimeout(); err != nil || d != 0 {
		t.Fatalf("unset request_timeout %v %v, want 0", d, err)
	}
	for _, bad := range []string{"3 parsecs", "-1s", "0s"} {
		if _, err := LoadSuite(writeSuite(t, `{"name": "x", "request_timeout": "`+bad+`"}`, okCase)); err == nil {
			t.Errorf("request_timeout %q accepted", bad)
		}
	}
}

// TestGateCase pins the benchguard-style comparison: each violated
// bound is one failure line, zero-valued goals gate nothing, and
// explicit-zero pointer goals do gate.
func TestGateCase(t *testing.T) {
	zero := int64(0)
	noErrs := 0.0
	m := Machine{Name: "test-class", Limits: Limits{MaxRSSMB: 1}}
	c := Case{
		Name: "warm",
		Goals: Goals{
			MinThroughputRPS: 100,
			MaxP99Ms:         50,
			MaxErrorRate:     &noErrs,
			MaxComputes:      &zero,
		},
	}
	res := &CaseResult{
		Requests: 100, Errors: 3,
		ThroughputRPS: 42, P99Ms: 80,
		Computes:    2,
		MaxRSSBytes: 2 << 20,
	}
	fails := gateCase(m, c, res)
	if len(fails) != 5 {
		t.Fatalf("want 5 failures, got %d: %v", len(fails), fails)
	}
	for _, want := range []string{"throughput", "p99", "error rate", "computed", "RSS"} {
		found := false
		for _, f := range fails {
			if strings.Contains(f, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no failure mentions %q: %v", want, fails)
		}
	}

	// All bounds met → clean. Unset (zero/nil) goals never gate.
	ok := &CaseResult{Requests: 100, ThroughputRPS: 500, P99Ms: 10, MaxRSSBytes: 1 << 10}
	if fails := gateCase(m, c, ok); len(fails) != 0 {
		t.Fatalf("passing result failed: %v", fails)
	}
	if fails := gateCase(Machine{}, Case{}, res); len(fails) != 0 {
		t.Fatalf("goalless case gated: %v", fails)
	}
}

// TestPercentile pins the tail-index arithmetic.
func TestPercentile(t *testing.T) {
	if p := percentile(nil, 99); p != 0 {
		t.Fatalf("empty percentile %v", p)
	}
	lat := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    int
		want float64
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}} {
		if got := percentile(lat, c.p); got != c.want {
			t.Errorf("p%d = %v, want %v", c.p, got, c.want)
		}
	}
}
