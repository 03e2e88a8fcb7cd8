// The SSE surface over the event bus: GET /v1/events streams the
// global firehose (optionally filtered by ?topics=), and
// GET /v1/jobs/{id}/events streams one job's lifecycle — a bounded
// backlog replayed first, then live events, ending at the terminal
// done/failed/canceled event.
//
// Wire format is standard text/event-stream: every bus event becomes
// one SSE message with `event:` carrying the bus event type, `id:`
// carrying topic/seq, and `data:` the JSON-encoded event. Streams
// interleave `: keepalive` comments while idle, and a subscriber that
// fell behind (drop-oldest ring) receives a synthetic `lag` event
// counting what it missed before the stream continues.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/eventbus"
)

// jobSink adapts a job into an experiments.EventSink: engine events of
// a job land on its job/<id> topic and in its replayable backlog.
// Active is unconditionally true — the backlog must record the
// lifecycle even with no subscriber attached, so a client connecting
// after the job finished still replays the full sequence.
type jobSink struct {
	s *Server
	j *job
}

func (k jobSink) Active() bool                          { return true }
func (k jobSink) Event(typ string, data map[string]any) { k.s.emitJob(k.j, typ, data) }

// jobBacklogCap bounds one job's retained event backlog. Overflow
// sheds the oldest events (counted, surfaced as a lag event at replay
// time) — the same drop-oldest contract as live subscribers.
const jobBacklogCap = 1024

// emitJob materializes one event on the job's topic and appends it to
// the replay backlog. Emission and append happen under the job's event
// lock so backlog order always equals sequence order; Emit (not
// Publish) because the backlog records regardless of subscribers.
func (s *Server) emitJob(j *job, typ string, data map[string]any) {
	j.evMu.Lock()
	ev := s.bus.Emit("job/"+j.id, typ, data)
	if len(j.events) < jobBacklogCap {
		j.events = append(j.events, ev)
	} else {
		copy(j.events, j.events[1:])
		j.events[len(j.events)-1] = ev
		j.eventsDropped++
	}
	j.evMu.Unlock()
}

// terminalJobEvent reports whether typ ends a job's event stream.
func terminalJobEvent(typ string) bool {
	return typ == "done" || typ == "failed" || typ == "canceled"
}

// sseKeepalive is the idle-stream comment interval.
const sseKeepalive = 15 * time.Second

// writeSSEEvent frames one bus event as an SSE message.
func writeSSEEvent(w io.Writer, ev eventbus.Event) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\nid: %s/%d\ndata: %s\n\n", ev.Type, ev.Topic, ev.Seq, b)
	return err
}

// writeSSELag frames a synthetic lag notice: n events were shed
// between the previous message and the next one.
func writeSSELag(w io.Writer, n int64) error {
	_, err := fmt.Fprintf(w, "event: lag\ndata: {\"dropped\":%d}\n\n", n)
	return err
}

// startSSE negotiates the stream: rejects non-GET and non-flushable
// writers, sets the event-stream headers, and returns the flusher.
func startSSE(w http.ResponseWriter, r *http.Request) (http.Flusher, bool) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "event streams are fetched with GET", "")
		return nil, false
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming_unsupported", "response writer cannot stream", "")
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return fl, true
}

// streamSSE pumps sub to the client until ctx dies, the subscriber
// closes, a write fails (client gone), or — when terminal is non-nil —
// a terminal event has been written. Events with Seq <= dedupBelow are
// skipped: the per-job stream passes the last replayed backlog
// sequence so events living in both the backlog snapshot and the live
// ring are delivered once (valid because that stream has one topic).
func streamSSE(ctx context.Context, w io.Writer, fl http.Flusher, sub *eventbus.Subscriber, dedupBelow uint64, terminal func(eventbus.Event) bool) {
	var lagged uint64
	keep := time.NewTicker(sseKeepalive)
	defer keep.Stop()
	for {
		if d := sub.Dropped(); d > lagged {
			if writeSSELag(w, int64(d-lagged)) != nil {
				return
			}
			lagged = d
		}
		ev, ok := sub.Next()
		if !ok {
			if sub.Closed() {
				return
			}
			fl.Flush()
			select {
			case <-sub.Wait():
			case <-keep.C:
				if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
					return
				}
				fl.Flush()
			case <-ctx.Done():
				return
			}
			continue
		}
		if ev.Seq <= dedupBelow {
			continue
		}
		if writeSSEEvent(w, ev) != nil {
			return
		}
		if terminal != nil && terminal(ev) {
			fl.Flush()
			return
		}
	}
}

// handleEvents answers GET /v1/events: the global firehose, optionally
// filtered to ?topics= (comma-separated names; a trailing * matches a
// prefix, e.g. topics=flight,engine or topics=job/*). The stream runs
// until the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	var topics []string
	for _, t := range strings.Split(r.URL.Query().Get("topics"), ",") {
		if t = strings.TrimSpace(t); t != "" {
			topics = append(topics, t)
		}
	}
	// Subscribe before startSSE sends the headers: a client may act as
	// soon as it sees them, and an event published before the
	// subscription would never reach it.
	sub := s.bus.Subscribe(eventbus.DefaultBuffer, topics...)
	defer sub.Close()
	fl, ok := startSSE(w, r)
	if !ok {
		return
	}
	streamSSE(r.Context(), w, fl, sub, 0, nil)
}

// handleJobEvents answers GET /v1/jobs/{id}/events: replay the job's
// retained backlog, then go live, ending at the terminal
// done/failed/canceled event. Subscribing before snapshotting the
// backlog closes the gap — an event emitted between the two appears in
// the live ring, and replayed duplicates are dropped by sequence.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, j *job) {
	fl, ok := startSSE(w, r)
	if !ok {
		return
	}
	sub := s.bus.Subscribe(eventbus.DefaultBuffer, "job/"+j.id)
	defer sub.Close()
	backlog, dropped := j.eventSnapshot()
	if dropped > 0 {
		if writeSSELag(w, dropped) != nil {
			return
		}
	}
	var last uint64
	for _, ev := range backlog {
		if writeSSEEvent(w, ev) != nil {
			return
		}
		last = ev.Seq
		if terminalJobEvent(ev.Type) {
			fl.Flush()
			return
		}
	}
	fl.Flush()
	streamSSE(r.Context(), w, fl, sub, last, func(ev eventbus.Event) bool { return terminalJobEvent(ev.Type) })
}
