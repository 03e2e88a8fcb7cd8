package faultinject

import (
	"net/http"
	"strconv"
	"time"
)

func timerAfter(d time.Duration) *time.Timer { return time.NewTimer(d) }

// Header set on every synthesized fault response so tests and humans
// can tell injected failures from real ones.
const Header = "X-Fault-Injected"

// sleepCtx sleeps the injected latency but wakes early if the request
// context dies.
func (in *Injector) sleepCtx(req *http.Request) {
	t := timerAfter(in.spec.Latency)
	select {
	case <-t.C:
	case <-req.Context().Done():
		t.Stop()
	}
}

// Handler wraps next with the injector's server-side faults. Down
// windows and injected resets abort the connection outright via
// http.ErrAbortHandler — the client sees a transport error, never an
// HTTP response — so a fleet proxy's failure classification stays
// honest: any response it does receive is a real upstream answer.
// Injected errors otherwise surface as 503s marked with the
// X-Fault-Injected header; truncation cuts the response body off
// mid-stream and then aborts.
func (in *Injector) Handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if in.downNow() {
			in.downRejects.Add(1)
			panic(http.ErrAbortHandler)
		}
		if in.spec.Latency > 0 && in.draw(in.spec.LatencyProb) {
			in.latencies.Add(1)
			in.sleepCtx(r)
		}
		if in.draw(in.spec.ErrProb) {
			in.errors.Add(1)
			if in.draw(0.5) {
				in.resets.Add(1)
				panic(http.ErrAbortHandler)
			}
			w.Header().Set(Header, "1")
			http.Error(w, "injected fault", http.StatusServiceUnavailable)
			return
		}
		if in.draw(in.spec.TruncProb) {
			in.truncations.Add(1)
			tw := &truncWriter{rw: w}
			next.ServeHTTP(tw, r)
			if tw.tripped {
				panic(http.ErrAbortHandler)
			}
			return
		}
		next.ServeHTTP(w, r)
	})
}

// truncWriter forwards roughly half of a response (judged by its
// Content-Length, or a fixed cap when unknown) and then swallows the
// rest; the Handler aborts the connection afterwards so the client
// sees a short body, not a clean EOF.
type truncWriter struct {
	rw      http.ResponseWriter
	limit   int64
	written int64
	tripped bool
	wrote   bool
}

func (t *truncWriter) Header() http.Header { return t.rw.Header() }

func (t *truncWriter) WriteHeader(code int) {
	t.arm()
	t.rw.WriteHeader(code)
}

func (t *truncWriter) arm() {
	if t.wrote {
		return
	}
	t.wrote = true
	t.limit = 64
	if cl, err := strconv.ParseInt(t.rw.Header().Get("Content-Length"), 10, 64); err == nil && cl > 1 {
		t.limit = cl / 2
	}
}

func (t *truncWriter) Write(p []byte) (int, error) {
	t.arm()
	if t.tripped {
		return len(p), nil
	}
	room := t.limit - t.written
	if room <= 0 {
		t.tripped = true
		return len(p), nil
	}
	send := p
	if int64(len(send)) > room {
		send = send[:room]
		t.tripped = true
	}
	n, err := t.rw.Write(send)
	t.written += int64(n)
	if t.tripped {
		// Push the partial body onto the wire before the handler
		// aborts, so clients observe a short read, not a clean error.
		if f, ok := t.rw.(http.Flusher); ok {
			f.Flush()
		}
	}
	if err != nil {
		return n, err
	}
	return len(p), nil
}
