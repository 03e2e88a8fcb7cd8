package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/artifact/httpstore"
	"repro/internal/experiments"
	"repro/internal/retry"
)

// scenarioOwnedBy searches scenario names until one's key is owned by
// member, returning the request body and the key.
func scenarioOwnedBy(t *testing.T, f *fleet, member, tag string) (string, artifact.Key) {
	t.Helper()
	return scenarioOwnedByOpt(t, f, member, tag, "H-Grep", tinyOpt())
}

func scenarioOwnedByOpt(t *testing.T, f *fleet, member, tag, workload string, opt experiments.Options) (string, artifact.Key) {
	t.Helper()
	for i := 0; i < 500; i++ {
		spec := Scenario{Name: fmt.Sprintf("%s-%d", tag, i), Workloads: []string{workload}, SizesKB: []int{16}}
		canon, err := spec.Canonical(opt)
		if err != nil {
			t.Fatal(err)
		}
		key := experiments.ScenarioKey(canon)
		if f.owner(key.ID()) == member {
			return fmt.Sprintf(`{"name": %q, "workloads": [%q], "sizes_kb": [16]}`, spec.Name, workload), key
		}
	}
	t.Fatalf("no scenario key owned by %s in 500 tries", member)
	return "", artifact.Key{}
}

func postScenario(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/scenarios", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes()
}

// TestFleetBreakerTripsAndReroutes pins the peer-health contract: a
// dead owner costs PeerFailLimit failed forwards (each falling back to
// local compute), then its breaker trips and further requests for its
// keys are rerouted — re-running rendezvous over the healthy members —
// without dialing it at all.
func TestFleetBreakerTripsAndReroutes(t *testing.T) {
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
		PeerFailLimit: 2, PeerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		body, _ := scenarioOwnedBy(t, srv.fleet, dead, fmt.Sprintf("trip-%d", i))
		code, _, b := postScenario(t, host.URL, body)
		if code != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, code, b)
		}
	}
	st := srv.Metrics()
	if st.Int("fleet_proxy_fallback") != 2 {
		t.Fatalf("proxy fallbacks %d, want 2 (then the breaker takes over)", st.Int("fleet_proxy_fallback"))
	}
	if st.Int("fleet_rerouted") != 1 {
		t.Fatalf("rerouted %d, want 1 (the post-trip request must not dial)", st.Int("fleet_rerouted"))
	}
	if st.Int("computes") != 3 {
		t.Fatalf("computes %d, want 3 (every request answered locally)", st.Int("computes"))
	}
	if st.Int("breaker_trips") != 1 || st.Int("fleet_peer_unhealthy") != 1 {
		t.Fatalf("trips=%d unhealthy=%d, want 1/1", st.Int("breaker_trips"), st.Int("fleet_peer_unhealthy"))
	}
	if got := st.Value("peer_states").(map[string]string)[dead]; got != "open" {
		t.Fatalf("dead peer state %q, want open", got)
	}
}

// TestFleetBreakerHalfOpenRecovery drives the full breaker lifecycle
// through real proxied requests: trip on a down peer, reroute around
// it mid-cooldown even after it heals, then recover it with the single
// half-open probe once the cooldown elapses.
func TestFleetBreakerHalfOpenRecovery(t *testing.T) {
	store := artifact.New()
	var down atomic.Bool
	servers := make([]*Server, 2)
	hosts := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	for i := range hosts {
		i := i
		hosts[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == 1 && down.Load() {
				panic(http.ErrAbortHandler) // the peer is "down": connections reset
			}
			servers[i].Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(hosts[i].Close)
		urls[i] = hosts[i].URL
	}
	for i := range servers {
		srv, err := New(Config{
			Opt: tinyOpt(), Parallelism: 2, Store: store,
			Self: urls[i], Peers: urls,
			PeerFailLimit: 1, PeerCooldown: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
	}
	// The gated replica (index 1) plays the flapping owner; drive
	// everything through replica 0 on a fake clock.
	var nowSec atomic.Int64
	nowSec.Store(1_000_000)
	br := servers[0].fleet.health[urls[1]]
	br.Now = func() time.Time { return time.Unix(nowSec.Load(), 0) }

	// 1. Down owner: the forward fails, the request computes locally,
	// the breaker trips at FailLimit 1.
	down.Store(true)
	body, _ := scenarioOwnedBy(t, servers[0].fleet, urls[1], "flap-a")
	if code, _, b := postScenario(t, urls[0], body); code != http.StatusOK {
		t.Fatalf("owner-down request: %d: %s", code, b)
	}
	if st := servers[0].Metrics(); st.Int("fleet_proxy_fallback") != 1 || st.Int("breaker_trips") != 1 {
		t.Fatalf("after down request: %+v", st)
	}

	// 2. Owner heals mid-cooldown: the open breaker still reroutes —
	// no dial, no proxied request.
	down.Store(false)
	body, _ = scenarioOwnedBy(t, servers[0].fleet, urls[1], "flap-b")
	if code, _, b := postScenario(t, urls[0], body); code != http.StatusOK {
		t.Fatalf("mid-cooldown request: %d: %s", code, b)
	}
	st := servers[0].Metrics()
	if st.Int("fleet_rerouted") != 1 || st.Int("fleet_proxied") != 0 {
		t.Fatalf("mid-cooldown: rerouted=%d proxied=%d, want 1/0", st.Int("fleet_rerouted"), st.Int("fleet_proxied"))
	}
	if st.Value("peer_states").(map[string]string)[urls[1]] != "open" {
		t.Fatalf("mid-cooldown state %q, want open", st.Value("peer_states").(map[string]string)[urls[1]])
	}

	// 3. Cooldown elapses: the next request is the half-open probe; it
	// succeeds and closes the breaker.
	nowSec.Add(11)
	body, _ = scenarioOwnedBy(t, servers[0].fleet, urls[1], "flap-c")
	if code, _, b := postScenario(t, urls[0], body); code != http.StatusOK {
		t.Fatalf("probe request: %d: %s", code, b)
	}
	st = servers[0].Metrics()
	if st.Int("fleet_proxied") != 1 {
		t.Fatalf("probe was not proxied: %+v", st)
	}
	if st.Int("breaker_probes") != 1 || st.Int("breaker_recoveries") != 1 {
		t.Fatalf("probes=%d recoveries=%d, want 1/1", st.Int("breaker_probes"), st.Int("breaker_recoveries"))
	}
	if st.Int("fleet_peer_unhealthy") != 0 || st.Value("peer_states").(map[string]string)[urls[1]] != "closed" {
		t.Fatalf("recovered peer still sidelined: %+v", st)
	}
}

// TestProxyPassesErrorEnvelopesByteIdentical pins the pass-through
// contract: an owner's HTTP response — success or error envelope —
// reaches the client byte-identical, with status and content headers
// intact, and counts for the peer's health (a served error proves the
// peer alive; only transport failures feed the breaker).
func TestProxyPassesErrorEnvelopesByteIdentical(t *testing.T) {
	type canned struct {
		status      int
		contentType string
		body        string
	}
	var mu sync.Mutex
	var current canned
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		c := current
		mu.Unlock()
		w.Header().Set("Content-Type", c.contentType)
		w.Header().Set("X-Reprod-Key", "stub-key")
		w.WriteHeader(c.status)
		fmt.Fprint(w, c.body)
	}))
	t.Cleanup(stub.Close)

	var srv *Server
	host := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(host.Close)
	var err error
	srv, err = New(Config{Opt: tinyOpt(), Parallelism: 2, Self: host.URL, Peers: []string{host.URL, stub.URL}})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		resp canned
	}{
		{"compute_failed", canned{
			status:      http.StatusInternalServerError,
			contentType: "application/json",
			body:        `{"error":{"code":"compute_failed","message":"engine exploded","key":"unit-deadbeef"}}` + "\n",
		}},
		{"draining", canned{
			status:      http.StatusServiceUnavailable,
			contentType: "application/json",
			body:        `{"error":{"code":"draining","message":"server is draining; submit to another replica"}}` + "\n",
		}},
		{"ok", canned{
			status:      http.StatusOK,
			contentType: "text/plain; charset=utf-8",
			body:        "rendered unit bytes\n",
		}},
	}
	for i, tc := range cases {
		mu.Lock()
		current = tc.resp
		mu.Unlock()
		body, _ := scenarioOwnedBy(t, srv.fleet, stub.URL, fmt.Sprintf("env-%d", i))
		code, hdr, got := postScenario(t, host.URL, body)
		if code != tc.resp.status {
			t.Fatalf("%s: status %d, want %d", tc.name, code, tc.resp.status)
		}
		if string(got) != tc.resp.body {
			t.Fatalf("%s: body %q, want byte-identical %q", tc.name, got, tc.resp.body)
		}
		if ct := hdr.Get("Content-Type"); ct != tc.resp.contentType {
			t.Fatalf("%s: content-type %q, want %q", tc.name, ct, tc.resp.contentType)
		}
		if hdr.Get("X-Reprod-Key") != "stub-key" || hdr.Get(fleetOwnerHeader) != stub.URL {
			t.Fatalf("%s: provenance headers lost: %v", tc.name, hdr)
		}
	}
	st := srv.Metrics()
	if st.Int("fleet_proxied") != int64(len(cases)) || st.Int("fleet_proxy_fallback") != 0 {
		t.Fatalf("proxied=%d fallback=%d, want %d/0", st.Int("fleet_proxied"), st.Int("fleet_proxy_fallback"), len(cases))
	}
	// Served errors are NOT peer failures: the breaker must stay closed.
	if st.Int("fleet_peer_unhealthy") != 0 || st.Int("breaker_trips") != 0 {
		t.Fatalf("error envelopes tripped the breaker: %+v", st)
	}
}

// TestCancellationThroughProxyHop pins last-waiter-leaves fleet-wide:
// a client abandoning a proxied request cancels the flight on the
// OWNER replica (the hop propagates the disconnect), the computation
// unwinds, the artefact is not published — and the abandoned forward
// does not count against the peer's health.
func TestCancellationThroughProxyHop(t *testing.T) {
	// A deliberately slow computation: the disconnect must win the race
	// against compute completion, crossing two HTTP hops on the way.
	slow := experiments.Options{Budget: 20_000_000, SweepBudget: 20_000_000, RosterBudget: 8_000}
	servers, hosts := startFleet(t, 2, Config{Parallelism: 1, Opt: slow})
	body, key := scenarioOwnedByOpt(t, servers[0].fleet, servers[1].fleet.self, "cancel", "H-Grep", slow)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		hosts[0].URL+"/v1/scenarios", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("abandoned request got a %d response", resp.StatusCode)
		}
		errc <- err
	}()

	// Wait until the flight is running on the OWNER — proof the hop
	// happened — then walk away.
	deadline := time.Now().Add(10 * time.Second)
	for servers[1].flights.inFlight() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if servers[1].flights.inFlight() == 0 {
		t.Fatal("flight never started on the owner replica")
	}
	cancel()
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error %v, want context cancellation", err)
	}

	// The owner's flight unwinds and accounts for the abandonment.
	for time.Now().Before(deadline) && servers[1].flights.inFlight() != 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if n := servers[1].flights.inFlight(); n != 0 {
		t.Fatalf("%d flights still alive on the owner after abandonment", n)
	}
	for servers[1].Metrics().Int("abandoned") == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := servers[1].Metrics(); st.Int("abandoned") != 1 {
		t.Fatalf("owner abandoned=%d, want 1", st.Int("abandoned"))
	}
	// Nothing half-computed was published.
	if _, ok := artifact.Peek[[]byte](servers[0].Store(), key, nil); ok {
		t.Fatal("abandoned computation published an artefact")
	}
	// A cancelled forward is the client's doing, not the peer's: the
	// owner's breaker must not have moved.
	if st := servers[0].Metrics(); st.Int("fleet_peer_unhealthy") != 0 || st.Int("breaker_trips") != 0 {
		t.Fatalf("cancellation fed the peer breaker: %+v", st)
	}
}

// TestReadyzSplitsLivenessFromReadiness pins the probe contract:
// /healthz answers "ok" for a live process no matter what; /readyz
// flips to 503 while draining and while the store backend is degraded.
func TestReadyzSplitsLivenessFromReadiness(t *testing.T) {
	srv, ts := startServer(t, Config{Parallelism: 2})
	if code, _, b := get(t, ts.URL+"/readyz"); code != http.StatusOK || string(b) != "ready\n" {
		t.Fatalf("fresh readyz: %d %q", code, b)
	}
	srv.BeginShutdown()
	if code, _, b := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || string(b) != "draining\n" {
		t.Fatalf("draining readyz: %d %q", code, b)
	}
	if code, _, b := get(t, ts.URL+"/healthz"); code != http.StatusOK || string(b) != "ok\n" {
		t.Fatalf("draining healthz: %d %q", code, b)
	}
}

func TestReadyzReportsDegradedStore(t *testing.T) {
	// A store whose HTTP backend is a dead address with a hair-trigger
	// breaker: the first cold computation degrades it.
	c, err := httpstore.New("http://127.0.0.1:9")
	if err != nil {
		t.Fatal(err)
	}
	c.Retry = retry.Policy{MaxAttempts: 1}
	c.Breaker = &retry.Breaker{FailLimit: 1, Cooldown: time.Hour}
	_, ts := startServer(t, Config{Parallelism: 2, Store: artifact.NewWithBackend(c)})

	if code, _, b := get(t, ts.URL+"/readyz"); code != http.StatusOK || string(b) != "ready\n" {
		t.Fatalf("pre-traffic readyz: %d %q", code, b)
	}
	// The request still succeeds — degraded means local compute, not
	// failure — but readiness flips.
	if code, _, b := get(t, ts.URL+"/v1/units/fig6"); code != http.StatusOK {
		t.Fatalf("degraded unit request: %d: %s", code, b)
	}
	if code, _, b := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || string(b) != "degraded\n" {
		t.Fatalf("degraded readyz: %d %q", code, b)
	}
	if code, _, b := get(t, ts.URL+"/healthz"); code != http.StatusOK || string(b) != "ok\n" {
		t.Fatalf("degraded healthz: %d %q", code, b)
	}
}
