package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/telemetry"
)

// jsonSurface lists a stats object's keys with the JSON kind of each
// value, sorted: "computes int", "store_mem_hit_ratio float",
// "peer_states object:string".
func jsonSurface(t *testing.T, body []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var obj map[string]any
	if err := dec.Decode(&obj); err != nil {
		t.Fatalf("stats body %q: %v", body, err)
	}
	var kind func(v any) string
	kind = func(v any) string {
		switch v := v.(type) {
		case json.Number:
			if _, err := strconv.ParseInt(string(v), 10, 64); err == nil {
				return "int"
			}
			return "float"
		case string:
			return "string"
		case bool:
			return "bool"
		case map[string]any:
			kinds := map[string]bool{}
			for _, e := range v {
				kinds[kind(e)] = true
			}
			names := make([]string, 0, len(kinds))
			for k := range kinds {
				names = append(names, k)
			}
			sort.Strings(names)
			return "object:" + strings.Join(names, ",")
		}
		return "other"
	}
	out := make([]string, 0, len(obj))
	for k, v := range obj {
		out = append(out, k+" "+kind(v))
	}
	sort.Strings(out)
	return out
}

// promLabel matches one label name inside a sample's braces.
var promLabel = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)

// promSurface lists the families of a Prometheus text exposition as
// "name type [label,...]" lines, sorted. A family's label names are
// collected from its samples.
func promSurface(t *testing.T, text string) []string {
	t.Helper()
	types := map[string]string{}
	labels := map[string]map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(f, " ")
			if _, dup := types[name]; dup {
				t.Errorf("family %s declared twice", name)
			}
			types[name] = typ
			labels[name] = map[string]bool{}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name, rest = line[:i], line[i:]
			for _, m := range promLabel.FindAllStringSubmatch(rest[:strings.IndexByte(rest, '}')], -1) {
				if labels[name] != nil {
					labels[name][m[1]] = true
				}
			}
		}
		if _, ok := types[name]; !ok {
			t.Errorf("sample %q before its # TYPE line", line)
		}
	}
	out := make([]string, 0, len(types))
	for name, typ := range types {
		ls := make([]string, 0, len(labels[name]))
		for l := range labels[name] {
			ls = append(ls, l)
		}
		sort.Strings(ls)
		out = append(out, strings.TrimSpace(name+" "+typ+" "+strings.Join(ls, ",")))
	}
	sort.Strings(out)
	return out
}

// sameSurface fails t unless got equals want once both are sorted.
func sameSurface(t *testing.T, what string, got, want []string) {
	t.Helper()
	want = append([]string(nil), want...)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s surface changed:\ngot:\n\t%s\nwant:\n\t%s", what,
			strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// busyServer starts a fleet-mode server with one unreachable peer,
// under a memory quota small enough to evict, and drives traffic
// through it so that the conditional families (peer states, per-kind
// store figures) render and the memory hit ratio is fractional. It
// returns the server and its base URL.
func busyServer(t *testing.T) (*Server, string) {
	t.Helper()
	const dead = "http://127.0.0.1:9"
	var srv *Server
	host := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(host.Close)
	var err error
	srv, err = New(Config{
		Opt: tinyOpt(), Parallelism: 2,
		Self: host.URL, Peers: []string{host.URL, dead},
		MemQuota: artifact.MemQuota{MaxBytes: 4 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three self-owned scenarios over distinct workloads overflow the
	// quota; a job re-running the last one finds its render resident (a
	// store memory hit).
	var last string
	for _, w := range []string{"H-Grep", "S-Sort", "H-WordCount"} {
		last, _ = scenarioOwnedByOpt(t, srv.fleet, host.URL, "surface", w, tinyOpt())
		if code, _, b := postScenario(t, host.URL, last); code != http.StatusOK {
			t.Fatalf("scenario %s: %d: %s", w, code, b)
		}
	}
	completeJob(t, host.URL, `{"scenarios": [`+last+`]}`)
	return srv, host.URL
}

// TestMetricSurface pins reprod's observability wire surface: every
// /v1/stats key with its JSON kind, and every /metrics family with its
// type and label names, on a busy server where every family renders.
func TestMetricSurface(t *testing.T) {
	_, base := busyServer(t)
	_, _, sb := get(t, base+"/v1/stats")
	sameSurface(t, "/v1/stats", jsonSurface(t, sb), statsSurface)
	_, _, mb := get(t, base+"/metrics")
	sameSurface(t, "/metrics", promSurface(t, string(mb)), metricsSurface)
}

// TestStatsMatchMetrics checks that the two endpoints agree: every
// numeric /v1/stats value equals the /metrics sample its declaration
// names. The pair is read between two /v1/stats reads that must match,
// so a gauge moving under the test (goroutines) cannot skew it.
func TestStatsMatchMetrics(t *testing.T) {
	srv, base := busyServer(t)
	var stats map[string]any
	var samples map[string]float64
	for try := 0; ; try++ {
		_, _, before := get(t, base+"/v1/stats")
		_, _, mb := get(t, base+"/metrics")
		_, _, after := get(t, base+"/v1/stats")
		if bytes.Equal(before, after) {
			if err := json.Unmarshal(after, &stats); err != nil {
				t.Fatal(err)
			}
			samples = promSamples(t, string(mb))
			break
		}
		if try == 20 {
			t.Fatalf("/v1/stats never settled:\n%s\n%s", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
	declared := map[string]bool{}
	for _, m := range srv.Metrics() {
		declared[m.Key] = true
		want := map[string]any{m.Name: stats[m.Key]}
		switch v := m.Value.(type) {
		case telemetry.Labeled:
			want = map[string]any{}
			obj, _ := stats[m.Key].(map[string]any)
			for k, x := range obj {
				want[fmt.Sprintf("%s{%s=%q}", m.Name, v.Label, k)] = x
			}
		case telemetry.States:
			continue // state names, not numbers
		}
		for name, x := range want {
			f, ok := x.(float64)
			if !ok {
				t.Errorf("/v1/stats %s = %v, not a number", m.Key, x)
				continue
			}
			if got, ok := samples[name]; !ok || got != f {
				t.Errorf("/v1/stats %s = %v, /metrics %s = %v (present %v)", m.Key, f, name, got, ok)
			}
		}
	}
	for k := range stats {
		if !declared[k] {
			t.Errorf("/v1/stats %s has no declaration", k)
		}
	}
}

// promSamples maps each sample's name, labels included, to its value.
func promSamples(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// completeJob submits a job and polls it to a terminal state, failing t
// unless it finishes done.
func completeJob(t *testing.T, base, body string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil || ack.ID == "" {
		t.Fatalf("submit %s: %d: %v", body, resp.StatusCode, err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st JobStatus
		_, _, b := get(t, base+"/v1/jobs/"+ack.ID)
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case JobDone:
			return
		case JobFailed, JobCanceled:
			t.Fatalf("job %s finished %s (%s)", ack.ID, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", ack.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// statsSurface is every /v1/stats key and its JSON kind.
var statsSurface = []string{
	"abandoned int",
	"breaker_probes int",
	"breaker_recoveries int",
	"breaker_trips int",
	"coalesced int",
	"computes int",
	"dataset_generations int",
	"events_dropped int",
	"events_published int",
	"fleet_loop_guarded int",
	"fleet_peer_served int",
	"fleet_peer_unhealthy int",
	"fleet_proxied int",
	"fleet_proxy_fallback int",
	"fleet_proxy_retries int",
	"fleet_rerouted int",
	"fleet_size int",
	"goroutines int",
	"in_flight int",
	"jobs_canceled int",
	"jobs_done int",
	"jobs_failed int",
	"jobs_submitted int",
	"peer_states object:string",
	"profile_runs int",
	"renders int",
	"scenario_requests int",
	"store_backend_discards int",
	"store_backend_hits int",
	"store_degraded int",
	"store_evicted_bytes int",
	"store_evictions int",
	"store_fills int",
	"store_kind_evictions object:int",
	"store_kind_resident_bytes object:int",
	"store_mem_hit_ratio float",
	"store_mem_hits int",
	"store_prefetched int",
	"store_resident_bytes int",
	"store_resident_entries int",
	"store_retries int",
	"store_skipped int",
	"subscribers int",
	"sweep_stackdist_passes int",
	"trace_passes int",
	"unit_requests int",
	"warm_hits int",
}

// metricsSurface is every /metrics family: name, type, label
// names.
var metricsSurface = []string{
	"reprod_abandoned_total counter",
	"reprod_breaker_probes_total counter",
	"reprod_breaker_recoveries_total counter",
	"reprod_breaker_state gauge peer",
	"reprod_breaker_trips_total counter",
	"reprod_coalesced_total counter",
	"reprod_computes_total counter",
	"reprod_event_subscribers gauge",
	"reprod_events_dropped_total counter",
	"reprod_events_published_total counter",
	"reprod_fleet_loop_guarded_total counter",
	"reprod_fleet_peer_served_total counter",
	"reprod_fleet_proxied_total counter",
	"reprod_fleet_proxy_fallback_total counter",
	"reprod_fleet_rerouted_total counter",
	"reprod_fleet_size gauge",
	"reprod_in_flight gauge",
	"reprod_jobs_canceled_total counter",
	"reprod_jobs_done_total counter",
	"reprod_jobs_failed_total counter",
	"reprod_jobs_submitted_total counter",
	"reprod_peer_unhealthy gauge",
	"reprod_profile_runs_total counter",
	"reprod_renders_total counter",
	"reprod_retries_total counter component",
	"reprod_scenario_requests_total counter",
	"reprod_store_backend_hits_total counter",
	"reprod_store_degraded gauge",
	"reprod_store_evicted_bytes_total counter",
	"reprod_store_evictions_total counter",
	"reprod_store_fills_total counter",
	"reprod_store_kind_evictions_total counter kind",
	"reprod_store_kind_resident_bytes gauge kind",
	"reprod_store_mem_hit_ratio gauge",
	"reprod_store_prefetched_total counter",
	"reprod_store_resident_bytes gauge",
	"reprod_store_resident_entries gauge",
	"reprod_sweep_stackdist_passes_total counter",
	"reprod_trace_passes_total counter",
	"reprod_unit_requests_total counter",
	"reprod_warm_hits_total counter",
	"reprod_dataset_generations_total counter",
	"reprod_store_mem_hits_total counter",
	"reprod_store_backend_discards_total counter",
	"reprod_store_skipped_total counter",
	"reprod_goroutines gauge",
}
