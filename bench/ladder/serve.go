package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/artifact/artifactd"
	"repro/internal/artifact/httpstore"
	"repro/internal/conc"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// httpServer is an http.Server on a loopback port.
type httpServer struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serveOn(ln net.Listener, h http.Handler) *httpServer {
	s := &httpServer{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s
}

// stop closes the server and its connections and waits for Serve to
// return.
func (s *httpServer) stop() {
	s.srv.Close()
	<-s.done
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// servedKey is one request the load generators send, a paper unit
// (GET) or a scenario (POST), with the bytes it must return.
type servedKey struct {
	unit string // GET /v1/units/<unit> when set
	spec experiments.Scenario
	body []byte // POST /v1/scenarios otherwise
	want []byte
}

func unitKeys() []*servedKey {
	var keys []*servedKey
	for _, u := range experiments.VisibleUnitNames() {
		keys = append(keys, &servedKey{unit: u})
	}
	return keys
}

func scenarioKey(spec experiments.Scenario) *servedKey {
	body, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a Scenario is plain data
	}
	return &servedKey{spec: spec, body: body}
}

func (k *servedKey) String() string {
	if k.unit != "" {
		return "unit " + k.unit
	}
	return "scenario " + k.spec.Name
}

// fetch sends k's request to base and returns the body, read into buf,
// and the store key the server answered under. The body is valid until
// buf is reused.
func (k *servedKey) fetch(cl *http.Client, base string, buf *bytes.Buffer) ([]byte, string, error) {
	var resp *http.Response
	var err error
	if k.unit != "" {
		resp, err = cl.Get(base + "/v1/units/" + k.unit)
	} else {
		resp, err = cl.Post(base+"/v1/scenarios", "application/json", bytes.NewReader(k.body))
	}
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("%s: status %d: %s", k, resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes(), resp.Header.Get("X-Reprod-Key"), nil
}

// newClient returns a client holding one connection per host, so each
// load-generator worker is one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func rosterIDs() []string {
	var ids []string
	for _, w := range workloads.Roster77() {
		ids = append(ids, w.ID)
	}
	return ids
}

// warmScenarios are the 16 scenarios both serving workloads prime, at
// the serving budget. Each has the shape of the scenario the committed
// warm_hit_flood case primes (bench/goals/ci-1core): two roster
// workloads swept at 16, 64 and 256 KB. The seed picks the two.
func warmScenarios(seed uint64) []*servedKey {
	r := xrand.New(xrand.Hash64(seed))
	ids := rosterIDs()
	var keys []*servedKey
	for i := 0; i < 16; i++ {
		keys = append(keys, scenarioKey(experiments.Scenario{
			Name:      fmt.Sprintf("warm-%d", i),
			Workloads: choose(r, ids, 2),
			SizesKB:   []int{16, 64, 256},
		}))
	}
	return keys
}

// prime requests every key from base on every processor. The first
// answer becomes the key's expected bytes; a later prime through
// another replica must return the same.
func prime(base string, keys []*servedKey) error {
	errs := make([]error, len(keys))
	conc.ForEach(0, len(keys), func(i int) {
		var buf bytes.Buffer
		b, _, err := keys[i].fetch(http.DefaultClient, base, &buf)
		switch {
		case err != nil:
			errs[i] = err
		case keys[i].want == nil:
			keys[i].want = b
		case !bytes.Equal(b, keys[i].want):
			errs[i] = fmt.Errorf("%s: replicas disagree", keys[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("priming: %w", err)
		}
	}
	return nil
}

// recompute renders every scenario key again in a fresh session and
// store, and fails r for any key whose served bytes differ.
func recompute(r *childResult, opt experiments.Options, keys []*servedKey) {
	sess := experiments.NewSession(opt)
	for _, k := range keys {
		b, err := experiments.RunScenario(sess, k.spec)
		if err != nil {
			r.fail("%s: recompute: %v", k, err)
		} else if !bytes.Equal(b, k.want) {
			r.fail("%s: served bytes differ from a fresh computation", k)
		}
	}
}

// cycle hands out the primed keys in turn, each equally often, from a
// seeded first key. This is the committed warm_flood mix (every request
// a warm hit on a primed key) spread evenly over all primed keys, with
// no popularity skew the repository has no data for.
type cycle struct {
	keys []*servedKey
	next int
}

func newCycle(keys []*servedKey, r *xrand.Rand) *cycle {
	return &cycle{keys: keys, next: r.Intn(len(keys))}
}

func (c *cycle) pick() *servedKey {
	k := c.keys[c.next]
	c.next = (c.next + 1) % len(c.keys)
	return k
}

// answer is one request's outcome: when it completed and how long it
// took.
type answer struct {
	done time.Time
	lat  time.Duration
}

// phase is what the load generators saw in one measured phase.
type phase struct {
	answers []answer
	sent    int64
	errs    int64
	bad     int64 // bodies that differ from the expected bytes
}

// record counts one answer of k, sent at start.
func (ph *phase) record(k *servedKey, b []byte, err error, start time.Time) {
	done := time.Now()
	ph.sent++
	switch {
	case err != nil:
		ph.errs++
	case !bytes.Equal(b, k.want):
		ph.bad++
	default:
		ph.answers = append(ph.answers, answer{done, done.Sub(start)})
	}
}

func lats(ph phase) []time.Duration {
	out := make([]time.Duration, len(ph.answers))
	for i, a := range ph.answers {
		out[i] = a.lat
	}
	return out
}

func (ph *phase) add(o phase) {
	ph.answers = append(ph.answers, o.answers...)
	ph.sent += o.sent
	ph.errs += o.errs
	ph.bad += o.bad
}

// meter cuts a load phase into windows of equal length and records the
// process CPU time at every boundary. Each end-to-end metric is the
// median over the complete windows of its value inside each window, so
// a few seconds of interference from other tenants of the host move it
// little.
type meter struct {
	start      time.Time
	window     time.Duration
	cpu        []float64 // process CPU time at each boundary, the start's first
	stop, done chan struct{}
}

func startMeter(window time.Duration) *meter {
	m := &meter{start: time.Now(), window: window, cpu: []float64{cpuSeconds()},
		stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(window)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.cpu = append(m.cpu, cpuSeconds())
			}
		}
	}()
	return m
}

// finish stops the meter and records the median over its windows of
// each window's p50 and q-quantile latency, answers per second and CPU
// time per answer.
func (m *meter) finish(r *childResult, answers []answer, q float64) {
	close(m.stop)
	<-m.done
	per := make([][]time.Duration, len(m.cpu)-1)
	for _, a := range answers {
		if i := int(a.done.Sub(m.start) / m.window); i < len(per) {
			per[i] = append(per[i], a.lat)
		}
	}
	var p50, tail, ops, cpu []float64
	n := 0
	for i, lat := range per {
		if len(lat) == 0 {
			continue
		}
		n += len(lat)
		p50 = append(p50, pct(lat, 0.5))
		tail = append(tail, pct(lat, q))
		ops = append(ops, float64(len(lat))/m.window.Seconds())
		cpu = append(cpu, (m.cpu[i+1]-m.cpu[i])*1000/float64(len(lat)))
	}
	for name, v := range map[string][]float64{"p50_ms": p50, "tail_ms": tail, "ops_per_s": ops, "cpu_ms_per_op": cpu} {
		sort.Float64s(v)
		if len(v) > 0 {
			r.Metrics[name] = median(v)
		}
		r.Samples[name] = n
	}
	r.note("tail_ms.percentile", fmt.Sprintf("p%g", 100*q), "")
	r.note("windows", len(p50), fmt.Sprintf("of %v", m.window))
}

// closedLoop keeps every client's connection busy for d: each worker
// sends its next request as soon as the last one is answered, cycling
// through keys from its own seeded first key.
func closedLoop(base string, clients []*http.Client, keys []*servedKey, d time.Duration, seed uint64) phase {
	parts := make([]phase, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := newCycle(keys, xrand.New(xrand.Hash64(seed+uint64(i))))
			var buf bytes.Buffer
			for time.Since(start) < d {
				k := next.pick()
				t0 := time.Now()
				b, _, err := k.fetch(cl, base, &buf)
				parts[i].record(k, b, err, t0)
			}
		}()
	}
	wg.Wait()
	var ph phase
	for _, part := range parts {
		ph.add(part)
	}
	return ph
}

// runServeWarm primes one replica at the serving fidelity with the 15
// paper units and 16 seeded scenarios, then keeps one connection per
// processor busy with warm reads of them for the measured time.
func runServeWarm(c *childRun) (*childResult, error) {
	opt := c.size.serve
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	rep, err := serve.New(serve.Config{Opt: opt})
	if err != nil {
		return nil, err
	}
	hs := serveOn(ln, rep.Handler())
	defer hs.stop()
	units, scens := unitKeys(), warmScenarios(c.seed)
	keys := append(append([]*servedKey(nil), units...), scens...)
	if err := prime(hs.url, keys); err != nil {
		return nil, err
	}
	c.ready()
	if c.setupOnly {
		return nil, nil
	}
	r := newResult()
	for _, k := range units {
		c.check(r, "quick/"+k.unit, k.want)
	}
	var watch *eventWatch
	if c.tr != nil {
		if watch, err = watchEvents(hs.url); err != nil {
			return nil, err
		}
	}
	before, err := fetchStats(hs.url)
	if err != nil {
		return nil, err
	}
	clients := make([]*http.Client, runtime.NumCPU())
	for i := range clients {
		clients[i] = newClient()
	}
	// The phase runs on one processor. On two, the load generator's and
	// the server's goroutines fell into one of two schedules whose median
	// latencies differ by a third, and the schedule a run fell into set
	// its numbers; on one, the replica serves the connections in turn.
	procs := runtime.GOMAXPROCS(1)
	mem0, cpu0 := readMem(), cpuSeconds()
	// One-second windows; shorter phases (the smoke test's) still get
	// about four complete ones.
	m := startMeter(min(time.Second, c.seconds/4))
	ph := closedLoop(hs.url, clients, keys, c.seconds, c.seed)
	m.finish(r, ph.answers, 0.99)
	runtime.GOMAXPROCS(procs)
	r.ScopeCPU = cpuSeconds() - cpu0
	r.goMetrics(mem0, readMem())
	c.tr.add(0, "serve-warm", m.start, time.Now(), map[string]int64{"sent": ph.sent})
	r.Attempted, r.Failed = ph.sent, ph.errs+ph.bad
	if ph.bad > 0 {
		r.fail("serve-warm: %d warm answers differ from the primed bytes", ph.bad)
	}
	if watch != nil {
		watch.stop()
		r.Metrics["serve.cold.compute_busy_s"] = watch.busy.Seconds()
	}
	after, err := fetchStats(hs.url)
	if err != nil {
		return nil, err
	}
	serveMetrics(r, []map[string]float64{before}, []map[string]float64{after})
	recompute(r, opt, scens)
	return r, nil
}

// fetchStats reads a replica's numeric /v1/stats counters.
func fetchStats(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// serveMetrics records the replicas' counter deltas over the measured
// phase. Warm answers come from store.Peek, which the store's own hit
// counter does not see: a memory hit is a warm answer the backend did
// not supply.
func serveMetrics(r *childResult, before, after []map[string]float64) {
	sum := func(name string) float64 {
		t := 0.0
		for i := range after {
			t += after[i][name] - before[i][name]
		}
		return t
	}
	hits := max(sum("warm_hits")-sum("store_backend_hits"), 0)
	fills := sum("store_fills")
	r.Metrics["store.mem.hits"] = hits
	r.Metrics["store.mem.fills"] = fills
	r.Metrics["store.mem.evictions"] = sum("store_evictions")
	resident := 0.0
	for _, st := range after {
		resident += st["store_resident_bytes"]
	}
	r.note("store.mem.resident_mb", resident/(1<<20), "MB")
	if total := hits + fills + sum("store_backend_hits"); total > 0 {
		r.Metrics["store.mem.hit_ratio"] = hits / total
	}
	r.Metrics["serve.computes"] = sum("computes")
	r.Metrics["fleet.proxied"] = sum("fleet_proxied")
	r.Metrics["fleet.proxy_fallback"] = sum("fleet_proxy_fallback")
	// Dataset contents are process-wide, shared by every replica.
	r.Metrics["datagen.generations"] = after[0]["dataset_generations"] - before[0]["dataset_generations"]
}

// eventWatch follows one replica's flight events over GET /v1/events:
// when each computation started and how long computations took.
type eventWatch struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	starts map[string]time.Time
	busy   time.Duration
}

func watchEvents(base string) (*eventWatch, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events?topics=flight", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	w := &eventWatch{cancel: cancel, done: make(chan struct{}), starts: map[string]time.Time{}}
	go func() {
		defer close(w.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var ev struct {
				Type string
				Time time.Time
				Data map[string]any
			}
			if json.Unmarshal([]byte(data), &ev) != nil {
				continue
			}
			key, _ := ev.Data["key"].(string)
			w.mu.Lock()
			switch ev.Type {
			case "compute_start":
				if _, seen := w.starts[key]; !seen {
					w.starts[key] = ev.Time
				}
			case "compute_finish":
				ms, _ := ev.Data["ms"].(float64)
				w.busy += time.Duration(ms * float64(time.Millisecond))
			}
			w.mu.Unlock()
		}
	}()
	// The replica subscribes after it has sent the stream's headers:
	// wait until it has, so no computation goes unseen.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := fetchStats(base)
		if err == nil && st["subscribers"] >= 1 {
			return w, nil
		}
		if time.Now().After(deadline) {
			w.stop()
			return nil, fmt.Errorf("event stream of %s never subscribed", base)
		}
	}
}

// stop ends the stream and waits for its reader to exit.
func (w *eventWatch) stop() {
	w.cancel()
	<-w.done
}

// started returns when the computation of key started, if it did.
func (w *eventWatch) started(key string) (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	t, ok := w.starts[key]
	return t, ok
}

// coldReq is one cold scenario serve-mixed sent.
type coldReq struct {
	key  *servedKey
	id   string // the store key it was answered under
	sent time.Time
}

// mixedPart is what one serve-mixed client saw.
type mixedPart struct {
	warm, cold phase
	colds      []coldReq
}

// adhocWaysSets are the associativity sets the committed
// adhoc_geometries mix rotates through (internal/loadgen).
var adhocWaysSets = [][]int{{1, 8}, {2, 16}, {4}, {1, 2, 8}}

// coldSpec is client's n-th cold scenario: the committed
// adhoc_geometries request (H-Grep swept at 16 and 64 KB under a
// rotating associativity set, with a name of its own) at a budget no
// other request uses, so that it costs a trace pass, not only a
// rendering, besides a store fill and an artifactd upload.
func coldSpec(seed uint64, client, n int, budget int64) experiments.Scenario {
	return experiments.Scenario{
		Name:      fmt.Sprintf("adhoc-%d-%d-%d", seed, client, n),
		Workloads: []string{"H-Grep"},
		SizesKB:   []int{16, 64},
		WaysSet:   adhocWaysSets[n%len(adhocWaysSets)],
		Budget:    budget + int64(1+2*n+client),
	}
}

// mixedLoop is one closed-loop client bound to one replica. Each of its
// rounds reads every primed key once, in turn from a seeded first key,
// then sends one new cold scenario.
func (c *childRun) mixedLoop(client int, base string, keys []*servedKey, rounds int, parent int64) mixedPart {
	cl := newClient()
	next := newCycle(keys, xrand.New(xrand.Hash64(c.seed<<8+uint64(client))))
	var part mixedPart
	var buf bytes.Buffer
	for n := 0; n < rounds; n++ {
		for range keys {
			k := next.pick()
			t0 := time.Now()
			b, _, err := k.fetch(cl, base, &buf)
			part.warm.record(k, b, err, t0)
		}
		k := scenarioKey(coldSpec(c.seed, client, n, c.size.serve.SweepBudget))
		t0 := time.Now()
		b, id, err := k.fetch(cl, base, &buf)
		if err == nil {
			k.want = bytes.Clone(b)
			part.colds = append(part.colds, coldReq{key: k, id: id, sent: t0})
			c.tr.add(parent, "cold:"+k.spec.Name, t0, time.Now(), map[string]int64{"bytes": int64(len(b))})
		}
		part.cold.record(k, b, err, t0)
	}
	return part
}

// mixedRounds is how many rounds each serve-mixed client makes per
// measured second; the phase then takes about the measured time on two
// processors. A fixed count, not a deadline, makes the cold work, and so
// every count the trace reports, the same on every run.
const mixedRounds = 40

// runServeMixed runs two fleet replicas sharing one in-process
// artifactd, each with a 1 MiB memory quota, under one closed-loop
// client per replica. The quota is small enough that evictions start
// within the first seconds: primed keys then come back from the HTTP
// tier.
func runServeMixed(c *childRun) (*childResult, error) {
	opt := c.size.serve
	ad, err := artifactd.New(filepath.Join(c.work, "artifactd"))
	if err != nil {
		return nil, err
	}
	adLn, err := listen()
	if err != nil {
		return nil, err
	}
	adSrv := serveOn(adLn, ad.Handler())
	defer adSrv.stop()

	var lns []net.Listener
	var urls []string
	for i := 0; i < 2; i++ {
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	var clients []*httpstore.Client
	var remotes []*timedRemote
	for i, ln := range lns {
		client, err := httpstore.New(adSrv.url)
		if err != nil {
			return nil, err
		}
		clients = append(clients, client)
		var b artifact.Backend = client
		if c.tr != nil {
			tr := newTimedRemote(client, c.tr)
			remotes = append(remotes, tr)
			b = tr
		}
		rep, err := serve.New(serve.Config{
			Opt:      opt,
			Store:    artifact.NewWithBackend(b),
			MemQuota: artifact.MemQuota{MaxBytes: 1 << 20},
			Self:     urls[i],
			Peers:    urls,
		})
		if err != nil {
			return nil, err
		}
		hs := serveOn(ln, rep.Handler())
		defer hs.stop()
	}
	units, scens := unitKeys(), warmScenarios(c.seed)
	keys := append(append([]*servedKey(nil), units...), scens...)
	for _, u := range urls {
		if err := prime(u, keys); err != nil {
			return nil, err
		}
	}
	c.ready()
	if c.setupOnly {
		return nil, nil
	}
	r := newResult()
	var watches []*eventWatch
	if c.tr != nil {
		for _, u := range urls {
			w, err := watchEvents(u)
			if err != nil {
				return nil, err
			}
			watches = append(watches, w)
		}
	}
	var before []map[string]float64
	for _, u := range urls {
		st, err := fetchStats(u)
		if err != nil {
			return nil, err
		}
		before = append(before, st)
	}
	retries0 := 0.0
	for _, cl := range clients {
		retries0 += float64(cl.Stats().Retries)
	}
	for _, t := range remotes {
		t.reset() // count the measured phase, not the priming
	}
	mem0, cpu0 := readMem(), cpuSeconds()
	rounds := max(int(mixedRounds*c.seconds.Seconds()), 1)
	t0 := time.Now()
	root := c.tr.add(0, "serve-mixed", t0, t0, nil)
	parts := make([]mixedPart, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = c.mixedLoop(i, u, keys, rounds, root)
		}()
	}
	wg.Wait()
	wall, cpu := time.Since(t0), cpuSeconds()-cpu0
	r.goMetrics(mem0, readMem())
	c.tr.finish(root, t0.Add(wall), nil)

	var all, warm, cold phase
	var colds []coldReq
	for _, part := range parts {
		warm.add(part.warm)
		cold.add(part.cold)
		colds = append(colds, part.colds...)
	}
	all.add(warm)
	all.add(cold)
	r.latency(lats(all), wall, cpu)
	r.ScopeCPU = cpu
	r.Attempted, r.Failed = all.sent, all.errs+all.bad
	if all.bad > 0 {
		r.fail("serve-mixed: %d warm answers differ from the first bytes served", all.bad)
	}
	for _, n := range []struct {
		name string
		ph   phase
	}{{"warm", warm}, {"cold", cold}} {
		lat := lats(n.ph)
		p50, tail, which := summarize(lat)
		r.note(n.name+".p50_ms", p50, fmt.Sprintf("ms n=%d", len(lat)))
		r.note(n.name+"."+which+"_ms", tail, fmt.Sprintf("ms n=%d", len(lat)))
	}

	var after []map[string]float64
	for _, u := range urls {
		st, err := fetchStats(u)
		if err != nil {
			return nil, err
		}
		after = append(after, st)
	}
	serveMetrics(r, before, after)
	if c.tr != nil {
		var busy time.Duration
		var waits []time.Duration
		for _, w := range watches {
			w.stop()
			busy += w.busy
		}
		for _, cr := range colds {
			for _, w := range watches {
				if at, ok := w.started(cr.id); ok {
					waits = append(waits, at.Sub(cr.sent))
					break
				}
			}
		}
		r.Metrics["serve.cold.compute_busy_s"] = busy.Seconds()
		r.Metrics["serve.queue.wait_p50_ms"] = pct(waits, 0.5)
		r.Samples["serve.queue.wait_p50_ms"] = len(waits)
		var gets, puts, getNs, putNs int64
		for _, t := range remotes {
			gets += t.gets.Load()
			puts += t.puts.Load()
			getNs += t.getNs.Load()
			putNs += t.putNs.Load()
		}
		retries := -retries0
		for _, cl := range clients {
			retries += float64(cl.Stats().Retries)
		}
		r.Metrics["store.http.gets"] = float64(gets)
		r.Metrics["store.http.puts"] = float64(puts)
		r.Metrics["store.http.get_busy_s"] = time.Duration(getNs).Seconds()
		r.Metrics["store.http.put_busy_s"] = time.Duration(putNs).Seconds()
		r.Metrics["store.http.retries"] = retries
	}

	// Eight seeded cold keys, computed again in a fresh session.
	var check []*servedKey
	for _, part := range parts {
		for i := 0; i < len(part.colds) && i < 4; i++ {
			check = append(check, part.colds[i].key)
		}
	}
	recompute(r, opt, check)

	if c.tr != nil {
		var jobs []replayJob
		for _, cr := range colds {
			cs, err := cr.key.spec.Canonical(opt)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, sweepJobs(cs)...)
		}
		passes := int64(0)
		for i := range after {
			passes += int64(after[i]["sweep_stackdist_passes"] - before[i]["sweep_stackdist_passes"])
		}
		c.replay(r, jobs, 0, passes, nil)
	}
	return r, nil
}
