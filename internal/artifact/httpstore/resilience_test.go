package httpstore

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/faultinject"
	"repro/internal/retry"
)

// fastRetry is a test policy with no real sleeping.
func fastRetry(attempts int) retry.Policy {
	return retry.Policy{
		MaxAttempts: attempts,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
}

// flakyHandler fails the first n requests with status, then delegates.
func flakyHandler(n int64, status int, next http.Handler) (http.Handler, *atomic.Int64) {
	var served atomic.Int64
	var failed atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		if failed.Add(1) <= n {
			http.Error(w, "transient", status)
			return
		}
		next.ServeHTTP(w, r)
	})
	return h, &served
}

func fillEntry(t *testing.T, b artifact.Backend, key artifact.Key, val string) {
	t.Helper()
	if _, err := artifact.Get(artifact.NewWithBackend(b), key, func() (string, error) {
		return val, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGetRetries5xx(t *testing.T) {
	srv, ts := startServer(t)
	key := artifact.KeyOf("retry-get", cfg{N: 1})
	fillEntry(t, client(t, ts.URL), key, "v")

	flaky, served := flakyHandler(2, http.StatusServiceUnavailable, srv.Handler())
	fts := httptest.NewServer(flaky)
	defer fts.Close()

	c := client(t, fts.URL)
	c.Retry = fastRetry(3)
	if _, ok := c.Get(key.ID()); !ok {
		t.Fatal("Get failed despite retry budget covering the 503s")
	}
	if got := served.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (two 503s + success)", got)
	}
	st := c.Stats()
	if st.Retries != 2 || st.Errors != 0 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 2 retries, 0 errors, 1 hit", st)
	}
}

func TestGetDoesNotRetry404(t *testing.T) {
	srv, _ := startServer(t)
	var served atomic.Int64
	counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		srv.Handler().ServeHTTP(w, r)
	})
	fts := httptest.NewServer(counting)
	defer fts.Close()

	c := client(t, fts.URL)
	c.Retry = fastRetry(3)
	if _, ok := c.Get(artifact.KeyOf("absent", cfg{N: 9}).ID()); ok {
		t.Fatal("miss reported as hit")
	}
	if served.Load() != 1 {
		t.Fatalf("404 retried: server saw %d requests", served.Load())
	}
	if st := c.Stats(); st.Errors != 0 || st.Retries != 0 {
		t.Fatalf("stats %+v, want clean miss", st)
	}
}

func TestPutRetriesTransportFaults(t *testing.T) {
	srv, ts := startServer(t)
	key := artifact.KeyOf("retry-put", cfg{N: 2})
	entry := encodeFor(t, key, "payload")

	// A server that fails every request, by a severed connection or an
	// injected 503.
	inj := faultinject.New(faultinject.Spec{Seed: 1, ErrProb: 1})
	fts := httptest.NewServer(inj.Handler(srv.Handler()))
	defer fts.Close()
	c := client(t, fts.URL)
	c.Retry = fastRetry(5)
	c.Put(key.ID(), entry)
	if st := c.Stats(); st.Puts != 0 || st.Errors != 1 || st.Retries != 4 {
		t.Fatalf("stats %+v, want 0 puts / 1 error / 4 retries against a 100%%-faulty server", st)
	}

	// Clean transport: the same publish lands.
	c2 := client(t, ts.URL)
	c2.Retry = fastRetry(3)
	c2.Put(key.ID(), entry)
	if st := c2.Stats(); st.Puts != 1 || st.Errors != 0 {
		t.Fatalf("stats %+v, want clean put", st)
	}
	if ss := srv.Metrics(); ss.Int("puts") != 1 {
		t.Fatalf("server puts=%d, want 1", ss.Int("puts"))
	}
}

func encodeFor(t *testing.T, key artifact.Key, payload string) []byte {
	t.Helper()
	// Route through a scratch store so the envelope matches what a
	// real fill would publish.
	scratch := &capturingBackend{}
	fillEntry(t, scratch, key, payload)
	if scratch.data == nil {
		t.Fatal("no entry captured")
	}
	return scratch.data
}

type capturingBackend struct{ data []byte }

func (b *capturingBackend) Get(string) ([]byte, bool) { return nil, false }
func (b *capturingBackend) Put(_ string, data []byte) { b.data = data }

func TestBreakerTripsAndShortCircuits(t *testing.T) {
	// Point at a dead address: every op is a transport failure.
	c, err := New("http://127.0.0.1:9")
	if err != nil {
		t.Fatal(err)
	}
	c.Retry = fastRetry(1)
	now := time.Unix(1000, 0)
	c.Breaker = &retry.Breaker{FailLimit: 3, Cooldown: 5 * time.Second, Now: func() time.Time { return now }}

	for i := 0; i < 3; i++ {
		if c.Degraded() {
			t.Fatalf("degraded after only %d failures", i)
		}
		c.Get("kind-0000000000000000")
	}
	if !c.Degraded() {
		t.Fatal("3 consecutive transport failures did not trip the breaker")
	}
	before := c.Stats()
	c.Get("kind-0000000000000000")
	c.Put("kind-0000000000000000", []byte("x"))
	c.FetchAll([]string{"kind-0000000000000000"})
	after := c.Stats()
	if after.Skipped-before.Skipped != 3 {
		t.Fatalf("skipped delta %d, want 3 (ops must not dial while open)", after.Skipped-before.Skipped)
	}
	if after.Errors != before.Errors {
		t.Fatalf("skipped ops counted as errors: %d → %d", before.Errors, after.Errors)
	}
	h := c.Health()
	if !h.Degraded || h.BreakerTrips != 1 || h.Skipped != 3 {
		t.Fatalf("health %+v, want degraded with 1 trip and 3 skipped", h)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	srv, ts := startServer(t)
	key := artifact.KeyOf("recover", cfg{N: 3})
	fillEntry(t, client(t, ts.URL), key, "v")

	// A handler that can be switched between dead and healthy.
	var down atomic.Bool
	gate := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			panic(http.ErrAbortHandler)
		}
		srv.Handler().ServeHTTP(w, r)
	})
	gts := httptest.NewServer(gate)
	defer gts.Close()

	now := time.Unix(1000, 0)
	c := client(t, gts.URL)
	c.Retry = fastRetry(1)
	c.Breaker = &retry.Breaker{FailLimit: 2, Cooldown: time.Second, Now: func() time.Time { return now }}

	down.Store(true)
	c.Get(key.ID())
	c.Get(key.ID())
	if !c.Degraded() {
		t.Fatal("breaker did not trip")
	}

	// Server heals; before the cooldown the client must not notice.
	down.Store(false)
	if _, ok := c.Get(key.ID()); ok {
		t.Fatal("open breaker let a request through mid-cooldown")
	}

	// After the cooldown one probe goes through, succeeds, and closes
	// the breaker.
	now = now.Add(time.Second)
	if _, ok := c.Get(key.ID()); !ok {
		t.Fatal("half-open probe did not recover the entry")
	}
	if c.Degraded() {
		t.Fatal("successful probe left the client degraded")
	}
	h := c.Health()
	if h.BreakerTrips != 1 || h.BreakerProbes != 1 || h.BreakerRecoveries != 1 {
		t.Fatalf("health %+v, want 1 trip / 1 probe / 1 recovery", h)
	}
}

func TestStoreHealthAggregatesChain(t *testing.T) {
	dir := t.TempDir()
	disk, err := artifact.NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New("http://127.0.0.1:9")
	if err != nil {
		t.Fatal(err)
	}
	c.Retry = fastRetry(1)
	c.Breaker = &retry.Breaker{FailLimit: 1}
	st := artifact.NewWithBackend(artifact.Chain(disk, c))
	if st.Health().Degraded {
		t.Fatal("fresh chain degraded")
	}
	c.Get("kind-0000000000000000")
	h := st.Health()
	if !h.Degraded || h.BreakerTrips != 1 {
		t.Fatalf("chain health %+v, want degraded after the HTTP tier tripped", h)
	}
}

// TestDegradedStoreStillServesMemoryAndComputes is the degraded-mode
// acceptance shape at store level: with the backend breaker open, a
// fill computes locally (no buffering, no dial) and warm re-reads
// come from the memory tier.
func TestDegradedStoreStillServesMemoryAndComputes(t *testing.T) {
	c, err := New("http://127.0.0.1:9")
	if err != nil {
		t.Fatal(err)
	}
	c.Retry = fastRetry(1)
	c.Breaker = &retry.Breaker{FailLimit: 1, Cooldown: time.Hour}
	st := artifact.NewWithBackend(c)

	key := artifact.KeyOf("degraded", cfg{N: 1})
	computes := 0
	got, err := artifact.Get(st, key, func() (string, error) { computes++; return "local", nil })
	if err != nil || got != "local" {
		t.Fatalf("degraded fill: %q err=%v", got, err)
	}
	if !st.Health().Degraded {
		t.Fatal("store not degraded after backend failure")
	}
	// Warm re-read: memory tier, no recompute, no backend traffic.
	gets := c.Stats().Gets
	got, err = artifact.Get(st, key, func() (string, error) { computes++; return "local", nil })
	if err != nil || got != "local" || computes != 1 {
		t.Fatalf("warm degraded read recomputed: computes=%d err=%v", computes, err)
	}
	if c.Stats().Gets != gets {
		t.Fatal("warm read touched the degraded backend")
	}
}

func TestSharedTransportPerPhaseTimeouts(t *testing.T) {
	tr := SharedTransport()
	if tr.ResponseHeaderTimeout != ResponseHeaderTimeout {
		t.Fatalf("ResponseHeaderTimeout=%v, want %v", tr.ResponseHeaderTimeout, ResponseHeaderTimeout)
	}
	c, err := New("http://example.invalid")
	if err != nil {
		t.Fatal(err)
	}
	if c.HTTP.Timeout != 0 {
		t.Fatalf("whole-request timeout %v still set; per-phase timeouts replace it", c.HTTP.Timeout)
	}
}
