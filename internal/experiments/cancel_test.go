package experiments

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/sim/machine"
)

// TestRunContextPreCancelled pins the cheap path: a context cancelled
// before the run starts executes nothing and returns ctx.Err().
func TestRunContextPreCancelled(t *testing.T) {
	s := NewSession(tinyOptions())
	s.Parallelism = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := &Engine{Session: s}
	results, err := e.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v, want context.Canceled", err)
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("unit %s err = %v, want context.Canceled", r.Unit.Name, r.Err)
		}
	}
	if s.TracePasses() != 0 || s.ProfileRuns() != 0 || s.Renders() != 0 {
		t.Fatalf("pre-cancelled run still simulated: passes=%d runs=%d renders=%d",
			s.TracePasses(), s.ProfileRuns(), s.Renders())
	}
}

// TestRunContextCancelMidRun cancels while simulation is in flight and
// checks three things the serving daemon depends on: the run returns
// ctx.Err() promptly, the store is left uncorrupted (a follow-up run
// over the same store completes and matches an untouched reference
// byte for byte), and no fill was published half-done.
func TestRunContextCancelMidRun(t *testing.T) {
	store := artifact.New()
	s := NewSession(tinyOptions())
	s.Store = store
	s.Parallelism = 2

	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{Session: s, Select: []string{"fig6"}}

	done := make(chan error, 1)
	go func() {
		_, err := e.RunContext(ctx)
		done <- err
	}()
	// Cancel as soon as real work has started.
	for i := 0; i < 10_000 && s.TracePasses() == 0; i++ {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return")
	}

	// The shared store must still converge to the reference output.
	ref := NewSession(tinyOptions())
	refResults, err := (&Engine{Session: ref, Select: []string{"fig6"}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewSession(tinyOptions())
	resumed.Store = store
	resResults, err := (&Engine{Session: resumed, Select: []string{"fig6"}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	refResults[len(refResults)-1].Artifact.Render(&want)
	resResults[len(resResults)-1].Artifact.Render(&got)
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("store corrupted by cancellation: resumed output differs from reference")
	}
}

// TestCancelledFillNotPoisoned pins the store interaction directly: a
// sweep fill aborted by cancellation must not cache the error against
// the key — the next caller recomputes and succeeds.
func TestCancelledFillNotPoisoned(t *testing.T) {
	store := artifact.New()
	w := hadoopGroup()[0]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s1 := NewSession(tinyOptions())
	s1.Store = store
	s1.Ctx = ctx
	err := func() (err error) {
		defer RecoverCanceled(&err)
		s1.SweepCurvesMulti(w, s1.Opt.SweepBudget, machine.DefaultSweepSizesKB, []int{0}, 0)
		return nil
	}()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SweepCurvesMulti err = %v, want context.Canceled", err)
	}
	if s1.TracePasses() != 0 {
		t.Fatal("cancelled sweep counted a trace pass")
	}

	s2 := NewSession(tinyOptions())
	s2.Store = store
	curves := s2.SweepCurvesMulti(w, s2.Opt.SweepBudget, machine.DefaultSweepSizesKB, []int{0}, 0)[0]
	if len(curves.Inst) == 0 {
		t.Fatal("retry after cancellation produced no curves")
	}
	if s2.TracePasses() != 1 {
		t.Fatalf("retry executed %d trace passes, want 1", s2.TracePasses())
	}
}

// TestRunContextNoGoroutineLeak hammers cancel-while-running and then
// checks the goroutine count settles back — the engine's workers, the
// fan-out pools and the flight of emitters must all unwind.
func TestRunContextNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		s := NewSession(tinyOptions())
		s.Parallelism = 2
		ctx, cancel := context.WithCancel(context.Background())
		e := &Engine{Session: s, Select: []string{"fig6"}}
		go func() {
			time.Sleep(time.Duration(i) * 2 * time.Millisecond)
			cancel()
		}()
		e.RunContext(ctx)
		cancel()
	}
	// Allow unwinding goroutines to exit.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		// The process-wide replay pool is persistent; everything else
		// must return to (near) the starting count.
		if runtime.NumGoroutine() <= before+int(runtime.NumCPU())+4 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after cancellation hammering", before, runtime.NumGoroutine())
}
