// Package faultinject is the deterministic chaos layer: a seeded,
// schedule-driven injector that wraps an http.Handler (the server side
// of an exchange) and injects latency, 5xx/connection-reset errors,
// truncated bodies, and flapping down-for-N-seconds windows.
//
// It exists to prove the resilience machinery (internal/retry, fleet
// peer breakers, degraded-mode serving) actually works: unit tests
// wrap an httptest server's handler, and reprod/artifactd expose a
// testing-only -fault-spec flag that wraps their serving surface so
// the chaos CI job can run a flapping replica against a faulty
// backend.
//
// A spec is a comma-separated key=value string:
//
//	seed=7,err=0.3,latency=25ms,latency_p=0.5,truncate=0.1,up=6s,down=4s
//
//	seed=N       rng seed (default 1); same seed → same fault sequence
//	err=P        probability an operation fails (503 or connection reset)
//	latency=D    injected delay duration
//	latency_p=P  probability of injecting the delay (default 1 if
//	             latency is set)
//	truncate=P   probability a response body is cut off mid-stream
//	up=D/down=D  flapping schedule: up for D_up, then down for D_down,
//	             repeating from injector start (up phase first). down
//	             without up = down forever. While down every operation
//	             fails with a connection reset.
//
// All randomness comes from one seeded splitmix64 stream, so a given
// (spec, operation sequence) reproduces the same faults.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spec is a parsed fault specification. The zero Spec injects
// nothing.
type Spec struct {
	Seed        uint64
	ErrProb     float64       // probability an operation fails outright
	Latency     time.Duration // injected delay
	LatencyProb float64       // probability of the delay
	TruncProb   float64       // probability of body truncation
	Up          time.Duration // flapping: healthy window (0 with Down>0 = never up)
	Down        time.Duration // flapping: dead window
}

// Enabled reports whether the spec injects any fault at all.
func (s Spec) Enabled() bool {
	return s.ErrProb > 0 || (s.Latency > 0 && s.LatencyProb > 0) || s.TruncProb > 0 || s.Down > 0
}

// String renders the spec back in parseable form (stable key order).
func (s Spec) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	// Always written: ParseSpec defaults an absent seed to 1, so
	// dropping seed=0 would not parse back to this spec.
	add("seed", strconv.FormatUint(s.Seed, 10))
	if s.ErrProb > 0 {
		add("err", strconv.FormatFloat(s.ErrProb, 'g', -1, 64))
	}
	if s.Latency > 0 {
		add("latency", s.Latency.String())
		add("latency_p", strconv.FormatFloat(s.LatencyProb, 'g', -1, 64))
	}
	if s.TruncProb > 0 {
		add("truncate", strconv.FormatFloat(s.TruncProb, 'g', -1, 64))
	}
	if s.Up > 0 {
		add("up", s.Up.String())
	}
	if s.Down > 0 {
		add("down", s.Down.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// ParseSpec parses the key=value spec grammar documented on the
// package. The empty string parses to the zero (disabled) Spec.
func ParseSpec(raw string) (Spec, error) {
	s := Spec{Seed: 1, LatencyProb: -1}
	raw = strings.TrimSpace(raw)
	if raw == "" {
		s.LatencyProb = 0
		return s, nil
	}
	for _, field := range strings.Split(raw, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faultinject: %q is not key=value", field)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		var err error
		switch k {
		case "seed":
			s.Seed, err = strconv.ParseUint(v, 10, 64)
		case "err":
			s.ErrProb, err = parseProb(v)
		case "latency":
			s.Latency, err = time.ParseDuration(v)
		case "latency_p":
			s.LatencyProb, err = parseProb(v)
		case "truncate":
			s.TruncProb, err = parseProb(v)
		case "up":
			s.Up, err = time.ParseDuration(v)
		case "down":
			s.Down, err = time.ParseDuration(v)
		default:
			return Spec{}, fmt.Errorf("faultinject: unknown key %q (want seed, err, latency, latency_p, truncate, up, down)", k)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("faultinject: %s: %w", k, err)
		}
	}
	if s.LatencyProb < 0 {
		if s.Latency > 0 {
			s.LatencyProb = 1
		} else {
			s.LatencyProb = 0
		}
	}
	if s.Latency < 0 || s.Up < 0 || s.Down < 0 {
		return Spec{}, fmt.Errorf("faultinject: durations must be non-negative")
	}
	if s.Up > 0 && s.Down == 0 {
		return Spec{}, fmt.Errorf("faultinject: up=%v without a down window does nothing", s.Up)
	}
	return s, nil
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // also rejects NaN, which would silently disable the fault
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}

// Stats counts the faults an injector has actually dealt out.
type Stats struct {
	Errors      int64 // injected 503s and connection resets
	Resets      int64 // of Errors, the connection-reset flavor
	Latencies   int64 // injected delays
	Truncations int64 // bodies cut off mid-stream
	DownRejects int64 // operations refused inside a down window
}

// Injector deals faults according to one Spec. Create with New; the
// zero Injector injects nothing.
type Injector struct {
	spec  Spec
	start time.Time
	now   func() time.Time // injectable clock (tests)

	mu  sync.Mutex
	rng uint64

	errors      atomic.Int64
	resets      atomic.Int64
	latencies   atomic.Int64
	truncations atomic.Int64
	downRejects atomic.Int64
}

// New builds an injector for spec, with the flapping schedule
// anchored at the current time (up phase first).
func New(spec Spec) *Injector {
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{
		spec:  spec,
		start: time.Now(),
		now:   time.Now,
		rng:   seed,
	}
}

// Spec returns the injector's spec.
func (in *Injector) Spec() Spec { return in.spec }

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Errors:      in.errors.Load(),
		Resets:      in.resets.Load(),
		Latencies:   in.latencies.Load(),
		Truncations: in.truncations.Load(),
		DownRejects: in.downRejects.Load(),
	}
}

// float64 draws the next uniform [0,1) variate from the seeded
// splitmix64 stream.
func (in *Injector) float64() float64 {
	in.mu.Lock()
	in.rng += 0x9e3779b97f4a7c15
	z := in.rng
	in.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// draw reports true with probability p.
func (in *Injector) draw(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return in.float64() < p
}

// downNow reports whether the flapping schedule currently has the
// wrapped component dead.
func (in *Injector) downNow() bool {
	if in == nil || in.spec.Down <= 0 {
		return false
	}
	if in.spec.Up <= 0 {
		return true // down forever
	}
	cycle := in.spec.Up + in.spec.Down
	phase := in.now().Sub(in.start) % cycle
	return phase >= in.spec.Up
}
