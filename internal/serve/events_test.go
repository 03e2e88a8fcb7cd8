package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
)

// sseMsg is one parsed text/event-stream message.
type sseMsg struct {
	typ  string
	id   string
	data string
}

// unit extracts data.unit from the message's JSON payload ("" if absent).
func (m sseMsg) unit() string {
	var ev struct {
		Data map[string]any `json:"data"`
	}
	json.Unmarshal([]byte(m.data), &ev)
	u, _ := ev.Data["unit"].(string)
	return u
}

// seq extracts the per-topic sequence from the id field ("topic/seq").
func (m sseMsg) seq() uint64 {
	i := strings.LastIndex(m.id, "/")
	n, _ := strconv.ParseUint(m.id[i+1:], 10, 64)
	return n
}

func parseSSE(r io.Reader) []sseMsg {
	var out []sseMsg
	var cur sseMsg
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.typ != "" || cur.data != "" {
				out = append(out, cur)
			}
			cur = sseMsg{}
		case strings.HasPrefix(line, "event: "):
			cur.typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	if cur.typ != "" || cur.data != "" {
		out = append(out, cur)
	}
	return out
}

// streamSSEInto reads one live SSE response into a channel of messages.
func streamSSEInto(body io.Reader, out chan<- sseMsg) {
	defer close(out)
	var cur sseMsg
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.typ != "" || cur.data != "" {
				out <- cur
			}
			cur = sseMsg{}
		case strings.HasPrefix(line, "event: "):
			cur.typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// openFirehose connects one live SSE subscriber to /v1/events.
func openFirehose(t *testing.T, ctx context.Context, base, query string) <-chan sseMsg {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("firehose status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("firehose Content-Type = %q", ct)
	}
	ch := make(chan sseMsg, 1024)
	go func() {
		defer resp.Body.Close()
		streamSSEInto(resp.Body, ch)
	}()
	return ch
}

// TestFirehoseSSEDuringColdCompute watches the flight/engine topics
// over real SSE while a cold unit computes: the coalescing layer and
// the engine both narrate, with exactly one compute for one flight,
// and the bus gauges land in /v1/stats.
func TestFirehoseSSEDuringColdCompute(t *testing.T) {
	_, ts := startServer(t, Config{Parallelism: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := openFirehose(t, ctx, ts.URL, "?topics=flight,engine")

	if code, _, b := get(t, ts.URL+"/v1/units/table2"); code != http.StatusOK {
		t.Fatalf("cold unit: status %d: %s", code, b)
	}

	seen := map[string]int{}
	deadline := time.After(60 * time.Second)
	for seen["flight_finish"] == 0 || seen["compute_finish"] == 0 {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream ended early; saw %v", seen)
			}
			seen[ev.typ]++
		case <-deadline:
			t.Fatalf("timed out waiting for flight_finish+compute_finish; saw %v", seen)
		}
	}
	for _, want := range []string{"flight_start", "compute_start", "unit_scheduled", "unit_start", "unit_finish"} {
		if seen[want] == 0 {
			t.Errorf("no %s event on the firehose; saw %v", want, seen)
		}
	}
	if seen["compute_start"] != 1 {
		t.Errorf("compute_start seen %d times, want exactly 1 for one cold flight", seen["compute_start"])
	}

	_, _, sb := get(t, ts.URL+"/v1/stats")
	var stats map[string]any
	if err := json.Unmarshal(sb, &stats); err != nil {
		t.Fatal(err)
	}
	if pub, _ := stats["events_published"].(float64); pub == 0 {
		t.Error("stats events_published == 0 after a narrated compute")
	}
	if subs, _ := stats["subscribers"].(float64); subs < 1 {
		t.Errorf("stats subscribers = %v with a live SSE stream", subs)
	}
	if _, ok := stats["events_dropped"]; !ok {
		t.Error("stats missing events_dropped")
	}
}

// TestJobEventStreamReplaysFullLifecycle is the acceptance sequence:
// GET /v1/jobs/{id}/events on a completed job replays the entire
// lifecycle — queued, started, then scheduled→start→finish for every
// unit of the job (hidden primers included), ending with the terminal
// done event — and the per-topic sequence numbers are strictly
// increasing.
func TestJobEventStreamReplaysFullLifecycle(t *testing.T) {
	_, ts := startServer(t, Config{Parallelism: 2})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"units":["table2"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct{ ID string }
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if sub.ID == "" {
		t.Fatal("no job id")
	}
	waitJobState(t, ts.URL, sub.ID, JobDone)

	code, hdr, body := get(t, ts.URL+"/v1/jobs/"+sub.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events status %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	msgs := parseSSE(strings.NewReader(string(body)))
	if len(msgs) == 0 {
		t.Fatal("no events replayed")
	}
	if msgs[0].typ != "queued" {
		t.Errorf("first event %q, want queued", msgs[0].typ)
	}
	if last := msgs[len(msgs)-1]; last.typ != "done" {
		t.Errorf("last event %q, want terminal done", last.typ)
	}
	pos := func(typ, unit string) int {
		for i, m := range msgs {
			if m.typ == typ && (unit == "" || m.unit() == unit) {
				return i
			}
		}
		return -1
	}
	// table2 pulls in its warm-reps primer: both must narrate the full
	// scheduled → start → finish arc, in order.
	for _, unit := range []string{"warm-reps", "table2"} {
		sched, start, finish := pos("unit_scheduled", unit), pos("unit_start", unit), pos("unit_finish", unit)
		if sched < 0 || start < 0 || finish < 0 {
			t.Fatalf("unit %s: incomplete arc (scheduled=%d start=%d finish=%d)", unit, sched, start, finish)
		}
		if !(pos("started", "") < sched && sched < start && start < finish) {
			t.Errorf("unit %s: out-of-order arc (scheduled=%d start=%d finish=%d)", unit, sched, start, finish)
		}
	}
	var lastSeq uint64
	for _, m := range msgs {
		if s := m.seq(); s <= lastSeq {
			t.Fatalf("sequence not strictly increasing: %d after %d (%s)", s, lastSeq, m.typ)
		} else {
			lastSeq = s
		}
	}
}

func waitJobState(t *testing.T, base, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		_, _, b := get(t, base+"/v1/jobs/"+id)
		var st JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State == JobFailed || st.State == JobCanceled {
			t.Fatalf("job reached %s (want %s): %s", st.State, want, st.Error)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

// Test32SSESubscribersColdCompute is the acceptance load shape: 32
// concurrent SSE subscribers on the full firehose while one cold unit
// computes. The publish path never blocks the engine (the compute
// completes, exactly once), and every subscriber observes the
// compute_finish event.
func Test32SSESubscribersColdCompute(t *testing.T) {
	srv, ts := startServer(t, Config{Parallelism: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 32
	streams := make([]<-chan sseMsg, n)
	for i := range streams {
		streams[i] = openFirehose(t, ctx, ts.URL, "")
	}
	// Every handler must be attached before the compute starts, or a
	// late subscriber misses the early events.
	for deadline := time.Now().Add(10 * time.Second); srv.Bus().Stats().Subscribers < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d subscribers attached", srv.Bus().Stats().Subscribers, n)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if code, _, b := get(t, ts.URL+"/v1/units/table2"); code != http.StatusOK {
		t.Fatalf("cold unit: status %d: %s", code, b)
	}
	if c := srv.Metrics().Int("computes"); c != 1 {
		t.Fatalf("computes = %d with 32 subscribers attached, want 1", c)
	}

	for i, ch := range streams {
		deadline := time.After(60 * time.Second)
	drain:
		for {
			select {
			case ev, ok := <-ch:
				if !ok {
					t.Fatalf("subscriber %d: stream ended before compute_finish", i)
				}
				if ev.typ == "compute_finish" {
					break drain
				}
			case <-deadline:
				t.Fatalf("subscriber %d never saw compute_finish", i)
			}
		}
	}
}

// TestJobBacklogReplayBoundary pins the bounded-backlog contract: a
// job that outgrows jobBacklogCap sheds its oldest events, the
// snapshot holds exactly the newest cap events, and the SSE replay
// leads with a lag event counting the shed prefix before ending at
// the terminal event.
func TestJobBacklogReplayBoundary(t *testing.T) {
	srv, ts := startServer(t, Config{})
	j := srv.jobs.add(JobRequest{Units: []string{"table1"}})
	defer srv.jobs.wg.Done()
	const extra = 41
	for i := 0; i < jobBacklogCap+extra-1; i++ {
		srv.emitJob(j, "tick", map[string]any{"i": i})
	}
	srv.emitJob(j, "done", nil)

	snapshot, dropped := j.eventSnapshot()
	if len(snapshot) != jobBacklogCap {
		t.Fatalf("backlog holds %d events, want cap %d", len(snapshot), jobBacklogCap)
	}
	if dropped != extra {
		t.Fatalf("backlog dropped %d, want %d", dropped, extra)
	}
	if last := snapshot[len(snapshot)-1]; last.Type != "done" {
		t.Fatalf("newest retained event %q, want the terminal done", last.Type)
	}

	code, _, body := get(t, ts.URL+"/v1/jobs/"+j.id+"/events")
	if code != http.StatusOK {
		t.Fatalf("events status %d", code)
	}
	msgs := parseSSE(strings.NewReader(string(body)))
	if len(msgs) != jobBacklogCap+1 {
		t.Fatalf("replayed %d messages, want %d (lag + retained backlog)", len(msgs), jobBacklogCap+1)
	}
	if msgs[0].typ != "lag" || msgs[0].data != fmt.Sprintf(`{"dropped":%d}`, extra) {
		t.Fatalf("first message = %s %s, want lag {\"dropped\":%d}", msgs[0].typ, msgs[0].data, extra)
	}
	if last := msgs[len(msgs)-1]; last.typ != "done" {
		t.Fatalf("replay ended with %q, want done", last.typ)
	}
	var lastSeq uint64
	for _, m := range msgs[1:] {
		if s := m.seq(); s <= lastSeq {
			t.Fatalf("replay sequence not strictly increasing: %d after %d", s, lastSeq)
		} else {
			lastSeq = s
		}
	}
}

// TestJobStatusRecomputesEvictedResults pins the one result path: a
// job keeps no rendered bytes, so GET /v1/jobs/{id} reads each recorded
// result from the store (moving neither warm_hits nor computes) and
// recomputes one the store has evicted, byte-identical and clearing
// results_truncated, for a done job and a canceled one alike.
func TestJobStatusRecomputesEvictedResults(t *testing.T) {
	srv, ts := startServer(t, Config{Parallelism: 2})
	submit := func(body string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sub struct{ ID string }
		json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if sub.ID == "" {
			t.Fatalf("submit %s: no job id", body)
		}
		return sub.ID
	}
	status := func(id string) JobStatus {
		t.Helper()
		_, _, b := get(t, ts.URL+"/v1/jobs/"+id)
		var st JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	id := submit(`{"units":["table2"]}`)
	waitJobState(t, ts.URL, id, JobDone)

	// The render is still in the store: the read copies it out, and is
	// neither a warm hit nor a compute.
	before := srv.Metrics()
	st := status(id)
	want, ok := st.Results["table2"]
	if !ok || want == "" || st.ResultsTruncated {
		t.Fatalf("store-backed read failed: truncated=%v results=%v", st.ResultsTruncated, keysOf(st.Results))
	}
	after := srv.Metrics()
	for _, m := range []string{"warm_hits", "computes"} {
		if after.Int(m) != before.Int(m) {
			t.Errorf("job status read moved %s %d -> %d", m, before.Int(m), after.Int(m))
		}
	}

	// Evict everything: a tiny quota clears the memory tier, and there
	// is no persistence backend, so jobStatus must recompute the render.
	srv.Store().SetMemQuota(artifact.MemQuota{MaxBytes: 1})
	st = status(id)
	if st.ResultsTruncated {
		t.Fatal("results_truncated still set after recompute")
	}
	if got := st.Results["table2"]; got != want {
		t.Fatalf("recomputed result differs from original (%d vs %d bytes)", len(got), len(want))
	}

	// A job canceled after its first scenario finished records that
	// result, and the store (still under the tiny quota) has already
	// evicted it: the read recomputes it too.
	const light = `{"name": "light", "workloads": ["H-Grep"], "sizes_kb": [16, 64]}`
	id = submit(`{"scenarios": [` + light + `, {"name": "heavy", "workloads": ["S-Sort"], "sizes_kb": [16], "budget": 500000000}]}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	msgs := make(chan sseMsg, 64)
	go streamSSEInto(resp.Body, msgs)
	for m := range msgs {
		if m.typ == "scenario_finish" && strings.Contains(m.data, `"scenario":"light"`) {
			break
		}
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	for range msgs {
		// The stream ends at the job's terminal event.
	}
	resp.Body.Close()
	waitJobState(t, ts.URL, id, JobCanceled)

	computes := srv.Metrics().Int("computes")
	st = status(id)
	if st.ResultsTruncated || len(st.Results) != 1 {
		t.Fatalf("canceled job: truncated=%v results=%v, want the light result only", st.ResultsTruncated, keysOf(st.Results))
	}
	if got := srv.Metrics().Int("computes"); got != computes+1 {
		t.Fatalf("canceled job's status read: computes %d -> %d, want one recompute", computes, got)
	}
	code, _, scen := postScenario(t, ts.URL, light)
	if code != http.StatusOK {
		t.Fatalf("scenario: %d: %s", code, scen)
	}
	if st.Results["scenario:light"] != string(scen) {
		t.Fatal("canceled job's recomputed result differs from /v1/scenarios")
	}
}
