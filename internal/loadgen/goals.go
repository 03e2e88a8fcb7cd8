// Package loadgen is reprobench's engine: it ramps concurrent
// scenario mixes against a reprod fleet, records throughput, tail
// latency, fleet-wide compute counters and RSS, and gates the numbers
// against committed goal files — the serving-layer analogue of
// BENCH_baseline.json's benchguard gate, modeled on SMP-style machine
// classes (a machine.json of resource limits plus one experiment.json
// per case).
//
// A goal directory looks like:
//
//	bench/goals/ci-1core/
//	  machine.json                      # machine class + resource limits
//	  cases/
//	    warm_hit_flood/experiment.json  # one load case + its goals
//	    cold_stampede/experiment.json
//
// Goal files are JSON decoded strictly: an unknown field, a repeated
// key or data after the document is an error, because each would
// otherwise let a typo or a stale line silently change what is gated.
//
// Cases come in three mixes:
//
//   - warm_flood: one scenario, primed before measurement — every
//     measured request must be a warm store hit. Gates throughput,
//     tail latency, and (max_computes: 0) that the warm path never
//     recomputes.
//   - cold_stampede: each ramp step fires exactly its concurrency in
//     simultaneous requests for ONE fresh (salted) scenario key — the
//     coalescing acceptance shape. Gates that computes stay at one per
//     wave (max_computes = number of steps) no matter the concurrency.
//   - adhoc_geometries: every request is a distinct salted scenario
//     (rotating ways_set geometries), so each one is a genuine
//     computation. Gates sustained compute throughput and error rate.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Mix names the load shape of one case.
type Mix string

// The supported load mixes.
const (
	MixWarmFlood       Mix = "warm_flood"
	MixColdStampede    Mix = "cold_stampede"
	MixAdhocGeometries Mix = "adhoc_geometries"
)

// Limits are a machine class's resource bounds, applied to every case
// run on that class.
type Limits struct {
	// MaxRSSMB bounds the peak summed resident set of the monitored
	// processes (reprobench -pids) during any case. 0 = not gated.
	MaxRSSMB int64 `json:"max_rss_mb,omitempty"`
}

// Machine describes the machine class a goal directory is calibrated
// for — goals are meaningless without naming the hardware they were
// set on.
type Machine struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Limits      Limits `json:"limits,omitempty"`
	// RequestTimeout bounds each individual request when the runner is
	// not given its own client (a Go duration string, e.g. "3m"). Chaos
	// suites, whose requests ride out injected latency and retries, set
	// this explicitly; empty = the runner's 2-minute default.
	RequestTimeout string `json:"request_timeout,omitempty"`
}

// requestTimeout parses the configured bound (0 = unset).
func (m Machine) requestTimeout() (time.Duration, error) {
	if m.RequestTimeout == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(m.RequestTimeout)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("request_timeout %q is not a positive duration", m.RequestTimeout)
	}
	return d, nil
}

// Ramp shapes one case's concurrency schedule: steps at Start,
// Start+Step, ... up to End inclusive.
type Ramp struct {
	Start int `json:"start"`
	End   int `json:"end"`
	Step  int `json:"step"`
	// RequestsPerStep is the request count issued at each concurrency
	// level (warm_flood and adhoc_geometries; cold_stampede waves are
	// sized by the concurrency itself and ignore it).
	RequestsPerStep int `json:"requests_per_step,omitempty"`
}

// steps expands the schedule.
func (r Ramp) steps() []int {
	var out []int
	for c := r.Start; c <= r.End; c += r.Step {
		out = append(out, c)
	}
	return out
}

// Goals are one case's pass/fail thresholds. Zero-valued fields are
// not gated; MaxErrorRate and MaxComputes use pointers because zero is
// their most useful bound.
type Goals struct {
	// MinThroughputRPS bounds measured requests/second from below.
	MinThroughputRPS float64 `json:"min_throughput_rps,omitempty"`
	// MaxP99Ms bounds the 99th-percentile request latency.
	MaxP99Ms float64 `json:"max_p99_ms,omitempty"`
	// MaxErrorRate bounds failed requests / total (nil = not gated;
	// explicit 0 = no errors tolerated).
	MaxErrorRate *float64 `json:"max_error_rate,omitempty"`
	// MaxComputes bounds the fleet-wide computes delta during the
	// measured phase (nil = not gated; 0 = pure warm serving, N = one
	// per cold wave).
	MaxComputes *int64 `json:"max_computes,omitempty"`
}

// Case is one committed load case: a scenario template, a ramp, and
// the goals the measured numbers must meet.
type Case struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Mix         Mix    `json:"mix"`
	// Scenario is the POST /v1/scenarios body template. Cold mixes
	// salt its "name" field per run/request so keys are genuinely
	// cold; warm_flood sends it verbatim.
	Scenario map[string]any `json:"scenario"`
	Ramp     Ramp           `json:"ramp"`
	Goals    Goals          `json:"goals,omitempty"`
}

// Suite is one loaded goal directory.
type Suite struct {
	Machine Machine
	Cases   []Case
	Dir     string
}

// LoadSuite reads dir (machine.json + cases/*/experiment.json, cases
// sorted by directory name) and validates every case.
func LoadSuite(dir string) (*Suite, error) {
	s := &Suite{Dir: dir}
	machine := filepath.Join(dir, "machine.json")
	if err := decodeFile(machine, &s.Machine); err != nil {
		return nil, err
	}
	if s.Machine.Name == "" {
		return nil, fmt.Errorf("loadgen: %s names no machine class", machine)
	}
	if _, err := s.Machine.requestTimeout(); err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", machine, err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "cases", "*", "experiment.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	for _, path := range paths {
		var c Case
		if err := decodeFile(path, &c); err != nil {
			return nil, err
		}
		if c.Name == "" {
			c.Name = filepath.Base(filepath.Dir(path))
		}
		if err := c.validate(); err != nil {
			return nil, fmt.Errorf("loadgen: %s: %w", path, err)
		}
		s.Cases = append(s.Cases, c)
	}
	if len(s.Cases) == 0 {
		return nil, fmt.Errorf("loadgen: %s has no cases/*/experiment.json", dir)
	}
	return s, nil
}

// decodeFile decodes the goal file at path into v. A json.Decoder
// stops after the first document and keeps the last of two equal keys,
// which could silently loosen a goal, so one pass over the tokens
// rejects both before the strict decode.
func decodeFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	toks := json.NewDecoder(bytes.NewReader(b))
	if err := uniqueKeys(toks); err != nil {
		return fmt.Errorf("loadgen: %s: %w", path, err)
	}
	if _, err := toks.Token(); err != io.EOF {
		return fmt.Errorf("loadgen: %s: data after the document", path)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("loadgen: %s: %w", path, err)
	}
	return nil
}

// uniqueKeys consumes one JSON value from d and fails on any object
// that repeats a key.
func uniqueKeys(d *json.Decoder) error {
	t, err := d.Token()
	if err != nil {
		return err
	}
	if t != json.Delim('{') && t != json.Delim('[') {
		return nil
	}
	seen := map[json.Token]bool{}
	for d.More() {
		if t == json.Delim('{') {
			key, err := d.Token()
			if err != nil {
				return err
			}
			if seen[key] {
				return fmt.Errorf("duplicate key %q", key)
			}
			seen[key] = true
		}
		if err := uniqueKeys(d); err != nil {
			return err
		}
	}
	_, err = d.Token() // the closing delimiter
	return err
}

func (c *Case) validate() error {
	switch c.Mix {
	case MixWarmFlood, MixColdStampede, MixAdhocGeometries:
	default:
		return fmt.Errorf("case %s: unknown mix %q (want warm_flood, cold_stampede or adhoc_geometries)", c.Name, c.Mix)
	}
	if len(c.Scenario) == 0 {
		return fmt.Errorf("case %s: no scenario template", c.Name)
	}
	r := c.Ramp
	if r.Start <= 0 || r.End < r.Start || r.Step <= 0 {
		return fmt.Errorf("case %s: ramp start/end/step %d/%d/%d invalid", c.Name, r.Start, r.End, r.Step)
	}
	if c.Mix != MixColdStampede && r.RequestsPerStep <= 0 {
		return fmt.Errorf("case %s: mix %s needs ramp.requests_per_step", c.Name, c.Mix)
	}
	return nil
}
