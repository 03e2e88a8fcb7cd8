package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/experiments"
)

// mustFleet builds a fleet or fails the test.
func mustFleet(t *testing.T, self string, peers []string) *fleet {
	t.Helper()
	f, err := newFleet(self, peers, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f == nil {
		t.Fatalf("fleet(%s, %v) disabled", self, peers)
	}
	return f
}

// TestRendezvousStability pins HRW's minimal-disruption contract
// exactly: removing a member moves only the keys it owned, adding one
// moves only the keys it wins (~1/N of the space), and every other key
// keeps its owner — the property that keeps a fleet's warm set warm
// through membership changes.
func TestRendezvousStability(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	f4 := mustFleet(t, members[0], members)
	const nKeys = 2000
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("artifact-key-%04d", i)
	}

	// Owners are balanced: no member holds a wildly disproportionate
	// share (expected 500 each; FNV spreads well over this key shape).
	byOwner := map[string]int{}
	for _, k := range keys {
		byOwner[f4.owner(k)] = byOwner[f4.owner(k)] + 1
	}
	for _, m := range members {
		if n := byOwner[m]; n < nKeys/8 || n > nKeys/2 {
			t.Fatalf("member %s owns %d of %d keys (want ~%d)", m, n, nKeys, nKeys/4)
		}
	}

	// Remove d: every key d owned moves, every other key stays put.
	f3 := mustFleet(t, members[0], members[:3])
	for _, k := range keys {
		before, after := f4.owner(k), f3.owner(k)
		if before == "http://d:1" {
			if after == before {
				t.Fatalf("key %s still owned by removed member", k)
			}
			continue
		}
		if after != before {
			t.Fatalf("key %s moved %s -> %s though its owner never left", k, before, after)
		}
	}

	// Add e: keys either keep their owner or move to e — never between
	// incumbents — and roughly 1/5 of the space moves.
	f5 := mustFleet(t, members[0], append(append([]string{}, members...), "http://e:1"))
	moved := 0
	for _, k := range keys {
		before, after := f4.owner(k), f5.owner(k)
		if after == before {
			continue
		}
		if after != "http://e:1" {
			t.Fatalf("key %s moved %s -> %s on an add that should only feed the newcomer", k, before, after)
		}
		moved++
	}
	if moved < nKeys*12/100 || moved > nKeys*28/100 {
		t.Fatalf("adding a 5th member moved %d of %d keys, want ~1/5", moved, nKeys)
	}
}

// TestFleetConfigValidation pins newFleet's error and disable rules.
func TestFleetConfigValidation(t *testing.T) {
	if _, err := newFleet("", []string{"http://b:1"}, 0, 0); err == nil {
		t.Fatal("peers without a self URL accepted")
	}
	if _, err := newFleet("http://a:1", []string{"b:1"}, 0, 0); err == nil {
		t.Fatal("relative member URL accepted")
	}
	if f, err := newFleet("", nil, 0, 0); err != nil || f != nil {
		t.Fatalf("no fleet config: %v %v", f, err)
	}
	// Self-only membership (including repeated spellings) disables
	// fleet mode rather than proxying to itself.
	if f, err := newFleet("http://a:1", []string{"http://a:1/", " http://a:1 "}, 0, 0); err != nil || f != nil {
		t.Fatalf("fleet of one: %v %v", f, err)
	}
	f := mustFleet(t, "http://a:1/", []string{"http://b:1"})
	if f.size() != 2 || f.self != "http://a:1" {
		t.Fatalf("normalized fleet: size %d self %q", f.size(), f.self)
	}
}

// startFleet brings up n replicas sharing one in-process store, each
// knowing every member's URL — the httptest analogue of N reprod
// processes pointed at one artifactd.
func startFleet(t *testing.T, n int, cfg Config) ([]*Server, []*httptest.Server) {
	t.Helper()
	if cfg.Opt == (experiments.Options{}) {
		cfg.Opt = tinyOpt()
	}
	if cfg.Store == nil {
		cfg.Store = artifact.New()
	}
	servers := make([]*Server, n)
	hosts := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range hosts {
		i := i
		// Late binding: the handler closure lets the httptest server
		// allocate its URL before the Server that needs it exists.
		hosts[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			servers[i].Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(hosts[i].Close)
		urls[i] = hosts[i].URL
	}
	for i := range servers {
		c := cfg
		c.Self = urls[i]
		c.Peers = urls
		srv, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
	}
	return servers, hosts
}

// fleetIndexes splits a 2-replica fleet by ownership of keyID.
func fleetIndexes(t *testing.T, servers []*Server, keyID string) (ownerIdx, otherIdx int) {
	t.Helper()
	owner := servers[0].fleet.owner(keyID)
	for i, s := range servers {
		if s.fleet.self == owner {
			return i, 1 - i
		}
	}
	t.Fatalf("no replica advertises owner %s", owner)
	return 0, 0
}

// TestFleetProxyColdToOwner pins rule 2 of the routing contract: a
// cold request landing on a non-home replica is forwarded to the key's
// home, computed there, and answered through — with the provenance and
// owner headers intact, and every fleet counter accounting for the hop.
func TestFleetProxyColdToOwner(t *testing.T) {
	servers, hosts := startFleet(t, 2, Config{Parallelism: 2})
	keyID := experiments.UnitRenderKey(tinyOpt(), "fig6").ID()
	ownerIdx, otherIdx := fleetIndexes(t, servers, keyID)

	code, hdr, body := get(t, hosts[otherIdx].URL+"/v1/units/fig6")
	if code != http.StatusOK {
		t.Fatalf("proxied unit: %d: %s", code, body)
	}
	if got := hdr.Get(fleetOwnerHeader); got != servers[ownerIdx].fleet.self {
		t.Fatalf("owner header %q, want %q", got, servers[ownerIdx].fleet.self)
	}
	if src := hdr.Get("X-Reprod-Source"); src != "computed" {
		t.Fatalf("proxied cold source %q, want computed", src)
	}
	if hdr.Get("X-Reprod-Key") == "" {
		t.Fatal("proxied response lost the artifact key header")
	}
	ownerSt, otherSt := servers[ownerIdx].Metrics(), servers[otherIdx].Metrics()
	if ownerSt.Int("computes") != 1 || otherSt.Int("computes") != 0 {
		t.Fatalf("computes owner=%d other=%d, want 1/0", ownerSt.Int("computes"), otherSt.Int("computes"))
	}
	if otherSt.Int("fleet_proxied") != 1 || ownerSt.Int("fleet_peer_served") != 1 || ownerSt.Int("fleet_loop_guarded") != 0 {
		t.Fatalf("fleet counters: %+v / %+v", ownerSt, otherSt)
	}

	// The shared store makes the same request warm on BOTH replicas
	// now — rule 1: routing never touches a warm request.
	code, hdr, warm := get(t, hosts[otherIdx].URL+"/v1/units/fig6")
	if code != http.StatusOK || hdr.Get("X-Reprod-Source") != "warm" {
		t.Fatalf("re-request: %d source %q", code, hdr.Get("X-Reprod-Source"))
	}
	if hdr.Get(fleetOwnerHeader) != "" {
		t.Fatal("warm request was proxied")
	}
	if !bytes.Equal(body, warm) {
		t.Fatal("warm bytes differ from proxied cold bytes")
	}
	if st := servers[otherIdx].Metrics(); st.Int("fleet_proxied") != 1 {
		t.Fatalf("warm request proxied again: %+v", st)
	}
}

// TestFleetLoopGuard pins the one-hop rule: a request already carrying
// the hop header is computed locally even by a replica that would
// route it elsewhere — membership disagreement costs one misplaced
// computation, never a forwarding loop.
func TestFleetLoopGuard(t *testing.T) {
	servers, hosts := startFleet(t, 2, Config{Parallelism: 2})
	keyID := experiments.UnitRenderKey(tinyOpt(), "fig7").ID()
	_, otherIdx := fleetIndexes(t, servers, keyID)

	// Hand-deliver a forwarded-looking request to the WRONG replica.
	req, err := http.NewRequest(http.MethodGet, hosts[otherIdx].URL+"/v1/units/fig7", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(fleetHopHeader, "http://some-peer:9555")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("loop-guarded request: %d: %s", resp.StatusCode, b)
	}
	if src := resp.Header.Get("X-Reprod-Source"); src != "computed" {
		t.Fatalf("loop-guarded source %q, want computed (locally)", src)
	}
	st := servers[otherIdx].Metrics()
	if st.Int("computes") != 1 || st.Int("fleet_proxied") != 0 {
		t.Fatalf("loop-guarded request forwarded on: %+v", st)
	}
	if st.Int("fleet_peer_served") != 1 || st.Int("fleet_loop_guarded") != 1 {
		t.Fatalf("loop-guard counters: peerServed=%d loopGuarded=%d, want 1/1", st.Int("fleet_peer_served"), st.Int("fleet_loop_guarded"))
	}
}

// TestFleetOwnerDownFallback pins rule 3: an unreachable home replica
// degrades the request to a local computation — availability over
// strict single-compute.
func TestFleetOwnerDownFallback(t *testing.T) {
	// A 2-member fleet whose peer is a dead address (nothing listens on
	// discard); find a scenario the dead member owns.
	const dead = "http://127.0.0.1:9"
	var srv *Server
	host := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(host.Close)
	var err error
	srv, err = New(Config{Opt: tinyOpt(), Parallelism: 2, Self: host.URL, Peers: []string{host.URL, dead}})
	if err != nil {
		t.Fatal(err)
	}

	var spec Scenario
	for i := 0; ; i++ {
		spec = Scenario{Name: fmt.Sprintf("down-%d", i), Workloads: []string{"H-Grep"}, SizesKB: []int{16}}
		canon, err := spec.Canonical(tinyOpt())
		if err != nil {
			t.Fatal(err)
		}
		if srv.fleet.owner(experiments.ScenarioKey(canon).ID()) == dead {
			break
		}
		if i > 100 {
			t.Fatal("no scenario key hashed to the dead peer in 100 tries")
		}
	}
	body := fmt.Sprintf(`{"name": %q, "workloads": ["H-Grep"], "sizes_kb": [16]}`, spec.Name)
	resp, err := http.Post(host.URL+"/v1/scenarios", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner-down scenario: %d: %s", resp.StatusCode, b)
	}
	st := srv.Metrics()
	if st.Int("fleet_proxy_fallback") != 1 || st.Int("computes") != 1 || st.Int("fleet_proxied") != 0 {
		t.Fatalf("fallback counters: %+v", st)
	}
}

// TestFleetCoalescingOneComputeFleetWide is the fleet acceptance
// criterion: 32 concurrent cold requests for ONE scenario key, split
// across a 2-replica fleet sharing a store, run exactly one computation
// fleet-wide — counter-asserted by summing computes over both replicas.
func TestFleetCoalescingOneComputeFleetWide(t *testing.T) {
	servers, hosts := startFleet(t, 2, Config{Parallelism: 2})
	spec := `{"name": "fleetcoal", "workloads": ["H-Grep"], "sizes_kb": [16, 64]}`

	const n = 32
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(hosts[i%2].URL+"/v1/scenarios", "application/json", strings.NewReader(spec))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %d: %s", i, resp.StatusCode, b)
				return
			}
			bodies[i] = b
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
	var computes, renders int64
	for _, s := range servers {
		st := s.Metrics()
		computes += st.Int("computes")
		renders += st.Int("renders")
	}
	if computes != 1 {
		t.Fatalf("32 cold requests across the fleet ran %d computations, want exactly 1", computes)
	}
	if renders != 1 {
		t.Fatalf("fleet rendered %d times, want exactly 1", renders)
	}
}
