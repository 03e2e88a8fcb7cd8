package artifactd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/artifact"
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

// busyServer starts a server and drives every kind of request through
// it: a publish, a hit, a miss, a refused upload and a closure.
func busyServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv, ts := start(t)
	key := artifact.KeyOf("surface", 1)
	put(t, ts.URL+"/artifact/"+key.ID(), encodedEntry(t, key, []byte("x")))
	put(t, ts.URL+"/artifact/"+key.ID(), []byte("not an entry"))
	fetch(t, ts.URL+"/artifact/"+key.ID())
	if resp, err := http.Get(ts.URL + "/artifact/surface-0123456789abcdef"); err == nil {
		resp.Body.Close()
	}
	postClosure(t, ts.URL, []string{key.ID()}, nil)
	return srv, ts.URL
}

// TestMetricSurface pins artifactd's observability wire surface: every
// /stats key with its JSON kind, and every /metrics family with its
// type and label names.
func TestMetricSurface(t *testing.T) {
	_, base := busyServer(t)
	sameSurface(t, "/stats", jsonSurface(t, fetch(t, base+"/stats")), statsSurface)
	sameSurface(t, "/metrics", promSurface(t, string(fetch(t, base+"/metrics"))), metricsSurface)
}

// TestStatsMatchMetrics checks that the two endpoints agree: every
// /stats value equals the /metrics sample its declaration names.
func TestStatsMatchMetrics(t *testing.T) {
	srv, base := busyServer(t)
	var stats map[string]float64
	if err := json.Unmarshal(fetch(t, base+"/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(fetch(t, base+"/metrics")), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			samples[name] = f
		}
	}
	ms := srv.Metrics()
	if len(ms) != len(stats) {
		t.Errorf("%d declared metrics, /stats has %d keys", len(ms), len(stats))
	}
	for _, m := range ms {
		if got, ok := samples[m.Name]; !ok || got != stats[m.Key] {
			t.Errorf("/stats %s = %v, /metrics %s = %v (present %v)", m.Key, stats[m.Key], m.Name, got, ok)
		}
	}
	if stats["puts"] != 1 || stats["rejects"] != 1 || stats["hits"] != 1 || stats["misses"] != 1 {
		t.Errorf("traffic not counted: %v", stats)
	}
	if size := logSize(t, srv.Dir()); stats["entries"] != 1 || stats["bytes"] != float64(size) {
		t.Errorf("gauges entries %v, bytes %v; want 1 entry in a %d-byte log", stats["entries"], stats["bytes"], size)
	}
}

// fetch GETs url and returns its body, failing t on anything but 200.
func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %v", url, resp.StatusCode, err)
	}
	return b
}

// statsSurface is every /stats key and its JSON kind.
var statsSurface = []string{
	"bytes int",
	"closure_requests int",
	"closure_served int",
	"discards int",
	"entries int",
	"gets int",
	"hits int",
	"misses int",
	"put_bytes int",
	"puts int",
	"rejects int",
	"served_bytes int",
	"unauthorized int",
}

// metricsSurface is every /metrics family: name, type, label names.
var metricsSurface = []string{
	"artifactd_bytes gauge",
	"artifactd_closure_requests_total counter",
	"artifactd_closure_served_total counter",
	"artifactd_discards_total counter",
	"artifactd_entries gauge",
	"artifactd_gets_total counter",
	"artifactd_hits_total counter",
	"artifactd_misses_total counter",
	"artifactd_put_bytes_total counter",
	"artifactd_puts_total counter",
	"artifactd_rejects_total counter",
	"artifactd_served_bytes_total counter",
	"artifactd_unauthorized_total counter",
}
