package experiments

import (
	"strings"
	"testing"
)

// quickSession is shared across the experiment tests (profiled runs are
// cached inside).
var quickSession = NewSession(Quick())

func TestTable1SevenDatasets(t *testing.T) {
	rows := Table1()
	if len(rows) != 7 {
		t.Fatalf("%d datasets, want 7 (Table 1)", len(rows))
	}
	for _, r := range rows {
		if r.SimRecords <= 0 || r.SimBytes <= 0 {
			t.Fatalf("dataset %s not materialized", r.Name)
		}
	}
	var sb strings.Builder
	RenderTable1(&sb, rows)
	if !strings.Contains(sb.String(), "Wikipedia") {
		t.Fatal("render missing Wikipedia row")
	}
}

func TestFig2IntegerBreakdown(t *testing.T) {
	f := Fig2(quickSession)
	sum := f.IntAddr + f.FPAddr + f.Other
	if sum < 0.98 || sum > 1.02 {
		t.Fatalf("integer breakdown sums to %v", sum)
	}
	claimsHold(t, "int-addr", "fp-addr")
}

// TestFig6CurvesMonotone checks the LRU stack property: a larger cache
// never misses more (tolerating sliver noise from set-count changes).
func TestFig6CurvesMonotone(t *testing.T) {
	r := Fig6(quickSession)
	for _, name := range r.Order {
		c := r.Curves[name]
		for i := 1; i < len(c); i++ {
			if c[i] > c[i-1]*1.05+1e-9 {
				t.Errorf("%s curve not monotone at %d KB", name, r.SizesKB[i])
			}
		}
	}
}

func TestReduction77To17(t *testing.T) {
	r, err := Reduction(quickSession)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Profiles) != 77 {
		t.Fatalf("profiled %d workloads, want 77", len(r.Profiles))
	}
	if r.Reduction.K != 17 || len(r.Reduction.Clusters) != 17 {
		t.Fatalf("reduced to %d clusters, want 17", r.Reduction.K)
	}
	total := 0
	stacks := map[string]bool{}
	for _, c := range r.Reduction.Clusters {
		total += len(c.Members)
		rep := r.Profiles[c.Representative].Workload
		stacks[rep.Stack.Name] = true
	}
	if total != 77 {
		t.Fatalf("cluster members sum to %d, want 77", total)
	}
	// The representatives must span several distinct software stacks,
	// as Table 2's subset does.
	if len(stacks) < 4 {
		t.Errorf("representatives cover only %d stacks: %v", len(stacks), stacks)
	}
	if r.Reduction.Explained < 0.9 {
		t.Errorf("PCA variance %.2f below target", r.Reduction.Explained)
	}
}

func TestFig1MixSumsToOne(t *testing.T) {
	f := Fig1(quickSession)
	for _, r := range f.Rows {
		sum := r.Load + r.Store + r.Branch + r.Int + r.FP
		if sum < 0.97 || sum > 1.03 {
			t.Errorf("%s: mix sums to %.3f", r.Name, sum)
		}
	}
}
