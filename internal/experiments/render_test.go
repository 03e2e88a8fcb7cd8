package experiments

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/artifact"
)

// TestRenderMemoizedAcrossSessions pins the render-artefact layer: a
// second session over a shared store replays every visible unit's
// bytes without rendering (Renders() == 0) — and without even walking
// the tables — while staying byte-identical.
func TestRenderMemoizedAcrossSessions(t *testing.T) {
	shared := artifact.New()
	sel := []string{"table1", "table2", "fig2"}

	s1 := NewSession(tinyOptions())
	s1.Store = shared
	res1, err := (&Engine{Session: s1, Select: sel}).Run()
	if err != nil {
		t.Fatal(err)
	}
	out1 := renderUnits(t, res1)
	if got := s1.Renders(); got != int64(len(sel)) {
		t.Fatalf("first session rendered %d units, want %d", got, len(sel))
	}

	s2 := NewSession(tinyOptions())
	s2.Store = shared
	res2, err := (&Engine{Session: s2, Select: sel}).Run()
	if err != nil {
		t.Fatal(err)
	}
	out2 := renderUnits(t, res2)
	if got := s2.Renders(); got != 0 {
		t.Fatalf("second session rendered %d units, want 0", got)
	}
	if len(out2) != len(out1) {
		t.Fatalf("second session rendered %d units, first %d", len(out2), len(out1))
	}
	for name, want := range out1 {
		if !bytes.Equal(out2[name], want) {
			t.Errorf("unit %s: memoized render differs from original", name)
		}
	}
}

// TestRenderKeysSeparateOptions guards the render key: sessions at
// different budgets over one store must not alias each other's
// rendered units — the second session re-renders under its own key
// instead of replaying the first session's bytes.
func TestRenderKeysSeparateOptions(t *testing.T) {
	shared := artifact.New()
	render := func(opt Options) int64 {
		s := NewSession(opt)
		s.Store = shared
		res, err := (&Engine{Session: s, Select: []string{"fig2"}}).Run()
		if err != nil {
			t.Fatal(err)
		}
		renderUnits(t, res)
		return s.Renders()
	}
	if got := render(tinyOptions()); got != 1 {
		t.Fatalf("first session rendered %d units, want 1", got)
	}
	bigger := tinyOptions()
	bigger.Budget *= 2
	if got := render(bigger); got != 1 {
		t.Fatalf("different-budget session rendered %d units, want 1 (render keys are aliasing options)", got)
	}
}

// TestRenderErrorPropagates pins error handling through the memoized
// path: a failing unit reports its error, not a cached artifact.
func TestRenderErrorPropagates(t *testing.T) {
	// The paper set has no failing units, so drive runUnit directly
	// with a synthetic visible unit.
	s := NewSession(tinyOptions())
	e := &Engine{Session: s}
	boom := fmt.Errorf("boom")
	u := Unit{Name: "synthetic-failure", Run: func(*Session) (Artifact, error) { return nil, boom }}
	if _, _, err := e.runUnit(context.Background(), u); err != boom {
		t.Fatalf("runUnit error = %v, want %v", err, boom)
	}
	if s.Renders() != 0 {
		t.Errorf("failed unit counted a render")
	}
}
