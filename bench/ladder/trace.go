package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/artifact/httpstore"
	"repro/internal/sim/isa"
	"repro/internal/sim/trace"
)

// span is one traced interval at a layer boundary. An aggregated span
// (a simulator's time inside one run, summed over its blocks) starts
// with its parent and lasts as long as the summed busy time.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(parent int64, name string, start, end time.Time, counts map[string]int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Counts: counts,
	})
	return id
}

// finish sets the end and counts of a span recorded by add before its
// children, which need its id.
func (t *tracer) finish(id int64, end time.Time, counts map[string]int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
	t.spans[id-1].Counts = counts
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// simProbe is a simulator the trace generator feeds in blocks: a
// machine model or a stack-distance sweep.
type simProbe interface {
	trace.Probe
	trace.BlockProbe
}

// timedProbe sums the wall time spent inside a simulator, so the rest
// of workloads.RunBlock's time is trace generation.
type timedProbe struct {
	p    simProbe
	busy time.Duration
}

func (t *timedProbe) Inst(i *isa.Inst) {
	s := time.Now()
	t.p.Inst(i)
	t.busy += time.Since(s)
}

func (t *timedProbe) InstBlock(b []isa.Inst) {
	s := time.Now()
	t.p.InstBlock(b)
	t.busy += time.Since(s)
}

// timedBackend times every Get and Put of a store's persistence tier.
type timedBackend struct {
	b      artifact.Backend
	tr     *tracer
	name   string // span name prefix: store.disk or store.http
	parent int64

	gets, puts, putBytes atomic.Int64
	getNs, putNs         atomic.Int64
}

// reset zeroes the counters.
func (t *timedBackend) reset() {
	for _, n := range []*atomic.Int64{&t.gets, &t.puts, &t.putBytes, &t.getNs, &t.putNs} {
		n.Store(0)
	}
}

func (t *timedBackend) Get(id string) ([]byte, bool) {
	s := time.Now()
	b, ok := t.b.Get(id)
	e := time.Now()
	t.gets.Add(1)
	t.getNs.Add(int64(e.Sub(s)))
	t.tr.add(t.parent, t.name+".get", s, e, nil)
	return b, ok
}

func (t *timedBackend) Put(id string, data []byte) {
	s := time.Now()
	t.b.Put(id, data)
	e := time.Now()
	t.puts.Add(1)
	t.putBytes.Add(int64(len(data)))
	t.putNs.Add(int64(e.Sub(s)))
	t.tr.add(t.parent, t.name+".put", s, e, map[string]int64{"bytes": int64(len(data))})
}

// timedRemote is timedBackend over an artifactd client, forwarding the
// bulk download and health sides the store looks for on that tier.
// Bulk downloads count as gets.
type timedRemote struct {
	*timedBackend
	c *httpstore.Client
}

func newTimedRemote(c *httpstore.Client, tr *tracer) *timedRemote {
	return &timedRemote{timedBackend: &timedBackend{b: c, tr: tr, name: "store.http"}, c: c}
}

func (t *timedRemote) FetchAll(ids []string) map[string][]byte {
	s := time.Now()
	got := t.c.FetchAll(ids)
	e := time.Now()
	t.gets.Add(1)
	t.getNs.Add(int64(e.Sub(s)))
	t.tr.add(t.parent, t.name+".fetch_all", s, e, map[string]int64{"ids": int64(len(ids)), "got": int64(len(got))})
	return got
}

func (t *timedRemote) Health() artifact.Health { return t.c.Health() }

// unitSink is an experiments.EventSink timing every engine unit:
// hidden primers and visible (rendering) units separately.
type unitSink struct {
	tr     *tracer
	parent int64

	mu      sync.Mutex
	started map[string]time.Time
	primers time.Duration
	visible time.Duration
}

func newUnitSink(tr *tracer, parent int64) *unitSink {
	return &unitSink{tr: tr, parent: parent, started: map[string]time.Time{}}
}

func (u *unitSink) Active() bool { return true }

func (u *unitSink) Event(typ string, data map[string]any) {
	name, _ := data["unit"].(string)
	now := time.Now()
	u.mu.Lock()
	defer u.mu.Unlock()
	switch typ {
	case "unit_start":
		u.started[name] = now
	case "unit_finish":
		start, ok := u.started[name]
		if !ok {
			return
		}
		d := now.Sub(start)
		layer := "render"
		if data["status"] == "primer" {
			layer = "engine.primer"
			u.primers += d
		} else {
			u.visible += d
		}
		u.tr.add(u.parent, fmt.Sprintf("%s:%s", layer, name), start, now, nil)
	}
}
