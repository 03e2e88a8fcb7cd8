package faultinject

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	good := []struct {
		raw  string
		want Spec
	}{
		{"", Spec{Seed: 1}},
		{"seed=7,err=0.3", Spec{Seed: 7, ErrProb: 0.3}},
		{"latency=25ms", Spec{Seed: 1, Latency: 25 * time.Millisecond, LatencyProb: 1}},
		{"latency=25ms,latency_p=0.5", Spec{Seed: 1, Latency: 25 * time.Millisecond, LatencyProb: 0.5}},
		{"truncate=0.1", Spec{Seed: 1, TruncProb: 0.1}},
		{"up=6s,down=4s", Spec{Seed: 1, Up: 6 * time.Second, Down: 4 * time.Second}},
		{"down=4s", Spec{Seed: 1, Down: 4 * time.Second}},
		{" seed=2 , err=1 ", Spec{Seed: 2, ErrProb: 1}},
	}
	for _, tc := range good {
		got, err := ParseSpec(tc.raw)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.raw, err)
		}
		if got != tc.want {
			t.Fatalf("ParseSpec(%q)=%+v, want %+v", tc.raw, got, tc.want)
		}
	}
	bad := []string{"bogus", "err=2", "err=-0.1", "latency=xyz", "up=6s", "frob=1", "seed=abc",
		"err=NaN", "truncate=nan", "latency=5ms,latency_p=NaN"}
	for _, raw := range bad {
		if _, err := ParseSpec(raw); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", raw)
		}
	}
}

func TestSpecEnabledAndString(t *testing.T) {
	if (Spec{Seed: 9}).Enabled() {
		t.Fatal("seed-only spec reports enabled")
	}
	for _, s := range []Spec{
		{Seed: 7, ErrProb: 0.3, Down: 4 * time.Second, Up: 6 * time.Second},
		{Seed: 0, ErrProb: 0.3},
	} {
		if !s.Enabled() {
			t.Fatalf("faulty spec %+v reports disabled", s)
		}
		back, err := ParseSpec(s.String())
		if err != nil || back != s {
			t.Fatalf("round trip %q → %+v (%v), want %+v", s.String(), back, err, s)
		}
	}
}

// FuzzParseSpec feeds arbitrary -fault-spec strings to ParseSpec, as
// reprod and artifactd do: it must never panic, an accepted spec has
// every probability in [0,1] and no negative duration, and the spec's
// String form parses back to the same String. The committed seeds
// include CI's two chaos specs and the inputs that once slipped
// through (a NaN probability, seed=0).
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		s, err := ParseSpec(raw)
		if err != nil {
			return
		}
		for _, p := range []float64{s.ErrProb, s.LatencyProb, s.TruncProb} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseSpec(%q) accepted probability %v", raw, p)
			}
		}
		if s.Latency < 0 || s.Up < 0 || s.Down < 0 {
			t.Fatalf("ParseSpec(%q) accepted a negative duration: %+v", raw, s)
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) rejects its own String %q: %v", raw, s.String(), err)
		}
		if back.String() != s.String() {
			t.Fatalf("ParseSpec(%q): String %q parses back as %q", raw, s.String(), back.String())
		}
	})
}

func TestDeterministicDraws(t *testing.T) {
	a, b := New(Spec{Seed: 42}), New(Spec{Seed: 42})
	for i := 0; i < 100; i++ {
		if a.float64() != b.float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(Spec{Seed: 43})
	same := 0
	for i := 0; i < 100; i++ {
		if a.float64() == c.float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds nearly identical (%d/100 equal draws)", same)
	}
}

func TestFlappingSchedule(t *testing.T) {
	in := New(Spec{Seed: 1, Up: 6 * time.Second, Down: 4 * time.Second})
	base := in.start
	at := func(d time.Duration) bool {
		in.now = func() time.Time { return base.Add(d) }
		return in.downNow()
	}
	for _, tc := range []struct {
		at   time.Duration
		down bool
	}{
		{0, false}, {5 * time.Second, false}, {6 * time.Second, true},
		{9 * time.Second, true}, {10 * time.Second, false}, {16 * time.Second, true},
	} {
		if got := at(tc.at); got != tc.down {
			t.Fatalf("downNow at %v = %v, want %v (up-first schedule)", tc.at, got, tc.down)
		}
	}
	forever := New(Spec{Seed: 1, Down: time.Second})
	forever.now = func() time.Time { return forever.start.Add(time.Hour) }
	if !forever.downNow() {
		t.Fatal("down-only spec recovered")
	}
	if New(Spec{Seed: 1}).downNow() {
		t.Fatal("spec without windows reports down")
	}
}

func TestHandlerAbortsAndErrors(t *testing.T) {
	in := New(Spec{Seed: 11, ErrProb: 1})
	srv := httptest.NewServer(in.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("should not arrive"))
	})))
	defer srv.Close()

	transportErrs, injected := 0, 0
	for i := 0; i < 40; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			transportErrs++
			continue
		}
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(Header) != "1" {
			t.Fatalf("unexpected response %d", resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		injected++
	}
	if transportErrs == 0 || injected == 0 {
		t.Fatalf("want both aborted and 503 responses, got %d/%d", transportErrs, injected)
	}
	// Every request the handler saw drew a 503 or a reset. The client
	// retries a GET reset on a reused connection, so the handler may
	// count more resets than the client saw transport errors.
	if st := in.Stats(); st.Errors-st.Resets != int64(injected) || st.Resets < int64(transportErrs) {
		t.Fatalf("stats %+v inconsistent with %d 503s and %d transport errors", st, injected, transportErrs)
	}
}

func TestHandlerDownWindowAborts(t *testing.T) {
	serve := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("up"))
	})
	// Down-only schedule: every request is severed. A separate injector
	// per schedule — the aborted handler goroutine may still be
	// unwinding when the next phase starts, so mutating one injector's
	// schedule in place would race with it.
	downInj := New(Spec{Seed: 1, Down: time.Second})
	down := httptest.NewServer(downInj.Handler(serve))
	defer down.Close()
	if _, err := http.Get(down.URL); err == nil {
		t.Fatal("down window served a response")
	}
	if n := downInj.Stats().DownRejects; n != 1 {
		t.Fatalf("downRejects=%d, want 1", n)
	}
	// Up-first schedule inside its window: requests pass through clean.
	up := httptest.NewServer(New(Spec{Seed: 1, Up: time.Hour, Down: time.Second}).Handler(serve))
	defer up.Close()
	resp, err := http.Get(up.URL)
	if err != nil {
		t.Fatalf("up window failed: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(b) != "up" {
		t.Fatalf("body %q, want up", b)
	}
}

func TestHandlerTruncation(t *testing.T) {
	payload := strings.Repeat("y", 8192)
	in := New(Spec{Seed: 2, TruncProb: 1})
	srv := httptest.NewServer(in.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(payload))
	})))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err) // headers + first half arrive before the abort
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && len(b) >= len(payload) {
		t.Fatalf("response not truncated: %d bytes, err=%v", len(b), err)
	}
	if n := in.Stats().Truncations; n != 1 {
		t.Fatalf("truncations=%d, want 1", n)
	}
}
