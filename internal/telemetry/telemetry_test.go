package telemetry

import (
	"bytes"
	"net/http/httptest"
	"testing"
)

func sample() List {
	return List{
		Counter("requests", "app_requests_total", "Requests received.", int64(7)),
		Gauge("ratio", "app_ratio", "A fraction.", 0.25),
		Gauge("degraded", "app_degraded", "Whether the backend is down.", true),
		Counter("store_retries", `app_retries_total{component="store"}`, "Extra attempts.", int64(2)),
		Counter("proxy_retries", `app_retries_total{component="proxy"}`, "", int64(3)),
		Gauge("by_kind", "app_kind_bytes", "Bytes by kind.", Labeled{Label: "kind", Values: map[string]int64{"b": 2, "a": 1}}),
		Counter("none", "app_none_total", "An empty family.", Labeled{Label: "kind"}),
		Gauge("peer_states", "app_peer_state", "Peer state (0 up, 1 down).",
			States{Label: "peer", Values: map[string]string{"p2": "down", "p1": "up"}, Names: []string{"up", "down"}}),
	}
}

// TestWriteJSON pins the stats object: sorted keys, integers as
// integers, conditions as 0/1, labelled families as objects, and empty
// families left out.
func TestWriteJSON(t *testing.T) {
	var b bytes.Buffer
	if err := sample().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"by_kind":{"a":1,"b":2},"degraded":1,"peer_states":{"p1":"up","p2":"down"},` +
		`"proxy_retries":3,"ratio":0.25,"requests":7,"store_retries":2}` + "\n"
	if b.String() != want {
		t.Fatalf("JSON:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestWritePrometheus pins the text format: one header per family
// (constant-label samples share one), sorted label values, states as
// their index, and empty families left out.
func TestWritePrometheus(t *testing.T) {
	var b bytes.Buffer
	if err := sample().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_requests_total Requests received.
# TYPE app_requests_total counter
app_requests_total 7
# HELP app_ratio A fraction.
# TYPE app_ratio gauge
app_ratio 0.25
# HELP app_degraded Whether the backend is down.
# TYPE app_degraded gauge
app_degraded 1
# HELP app_retries_total Extra attempts.
# TYPE app_retries_total counter
app_retries_total{component="store"} 2
app_retries_total{component="proxy"} 3
# HELP app_kind_bytes Bytes by kind.
# TYPE app_kind_bytes gauge
app_kind_bytes{kind="a"} 1
app_kind_bytes{kind="b"} 2
# HELP app_peer_state Peer state (0 up, 1 down).
# TYPE app_peer_state gauge
app_peer_state{peer="p1"} 0
app_peer_state{peer="p2"} 1
`
	if b.String() != want {
		t.Fatalf("Prometheus text:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestHandlers pins the content types and that every request renders a
// fresh snapshot.
func TestHandlers(t *testing.T) {
	n := int64(0)
	snap := func() List {
		n++
		return List{Counter("n", "app_n_total", "Snapshots taken.", n)}
	}
	rec := httptest.NewRecorder()
	JSONHandler(snap)(rec, httptest.NewRequest("GET", "/stats", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" || rec.Body.String() != "{\"n\":1}\n" {
		t.Fatalf("JSON handler: %q %q", ct, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	PrometheusHandler(snap)(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" ||
		rec.Body.String() != "# HELP app_n_total Snapshots taken.\n# TYPE app_n_total counter\napp_n_total 2\n" {
		t.Fatalf("Prometheus handler: %q %q", ct, rec.Body.String())
	}
}

// TestLookup pins the by-key reads tests use.
func TestLookup(t *testing.T) {
	l := sample()
	if l.Int("requests") != 7 || l.Int("degraded") != 1 {
		t.Fatalf("Int: requests=%d degraded=%d", l.Int("requests"), l.Int("degraded"))
	}
	if s := l.Value("peer_states").(map[string]string)["p2"]; s != "down" {
		t.Fatalf("peer_states p2 = %q", s)
	}
	for _, bad := range []func(){
		func() { l.Value("missing") },
		func() { l.Int("ratio") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("lookup did not panic")
				}
			}()
			bad()
		}()
	}
}
