package main

import (
	"strings"
	"testing"

	"repro/internal/sim/machine"
)

func TestSelectRun(t *testing.T) {
	xeon, atom := machine.XeonE5645().Name, machine.AtomD510().Name
	for _, c := range []struct {
		set, mach string
		ids       []string
		machine   string   // selected model; "" when an error is wanted
		want      []string // selected ids in set order, or the ids the error names
		n         int      // selected count, checked when want is nil
	}{
		{set: "reps", mach: "xeon", machine: xeon, n: 17},
		{set: "all", mach: "atom", machine: atom, n: 23},
		{set: "roster", mach: "xeon", machine: xeon, n: 77},
		{set: "mpi", mach: "xeon", ids: []string{"m-SORT", "M-Bayes"}, machine: xeon, want: []string{"M-Bayes", "M-Sort"}},
		{set: "mpi", mach: "atomm"},
		{set: "mpis", mach: "xeon"},
		{set: "mpi", mach: "xeon", ids: []string{"M-Bayess"}, want: []string{"M-Bayess"}},
		{set: "reps", mach: "xeon", ids: []string{"H-Grep", "M-Grep", "nope"}, want: []string{"M-Grep", "nope"}},
	} {
		cfg, list, err := selectRun(c.set, c.mach, c.ids)
		if c.machine == "" {
			if err == nil {
				t.Errorf("selectRun(%q, %q, %q) accepted", c.set, c.mach, c.ids)
			} else if c.want != nil && !strings.HasSuffix(err.Error(), " matches "+strings.Join(c.want, " ")) {
				t.Errorf("selectRun(%q, %q, %q): error %q does not name exactly %q", c.set, c.mach, c.ids, err, c.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("selectRun(%q, %q, %q): %v", c.set, c.mach, c.ids, err)
			continue
		}
		var got []string
		for _, w := range list {
			got = append(got, w.ID)
		}
		if cfg.Name != c.machine {
			t.Errorf("selectRun(%q, %q, %q) machine %q, want %q", c.set, c.mach, c.ids, cfg.Name, c.machine)
		}
		if c.want != nil && strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("selectRun(%q, %q, %q) = %v, want %v", c.set, c.mach, c.ids, got, c.want)
		}
		if c.want == nil && len(got) != c.n {
			t.Errorf("selectRun(%q, %q, %q) selected %d workloads, want %d", c.set, c.mach, c.ids, len(got), c.n)
		}
	}
}
