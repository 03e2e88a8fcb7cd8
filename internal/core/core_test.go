package core

import (
	"testing"

	"repro/internal/conc"
	"repro/internal/metrics"
	"repro/internal/sim/branch"
	"repro/internal/sim/machine"
	"repro/internal/workloads"
)

func profileSome(t *testing.T, list []workloads.Workload, budget int64) []Profile {
	t.Helper()
	return profileList(machine.XeonE5645(), list, budget)
}

// profileList runs one Profiler.Profile per workload on a bounded
// worker pool and returns the profiles in input order.
func profileList(cfg machine.Config, list []workloads.Workload, budget int64) []Profile {
	p := &Profiler{Machine: cfg, Budget: budget}
	out := make([]Profile, len(list))
	conc.ForEach(0, len(list), func(i int) { out[i] = p.Profile(list[i]) })
	return out
}

func TestProfilerDeterministic(t *testing.T) {
	list := workloads.MPI6()[:2]
	a := profileSome(t, list, 40_000)
	b := profileSome(t, list, 40_000)
	for i := range a {
		if a[i].Vector != b[i].Vector {
			t.Fatalf("%s: repeated profiling differs", a[i].Workload.ID)
		}
	}
}

func TestProfileRecordMatches(t *testing.T) {
	w := workloads.MPI6()[0]
	var v metrics.Vector
	v[metrics.MixBranch] = 0.2
	tally := branch.Stats{Branches: 10, Mispredicts: 3, MisCond: 2, MisRet: 1}
	for _, c := range []struct {
		name string
		rec  ProfileRecord
		want bool
	}{
		{"complete", ProfileRecord{ID: w.ID, Vector: v, Branch: tally}, true},
		{"other workload", ProfileRecord{ID: "M-Other", Vector: v, Branch: tally}, false},
		{"no branches, no tally", ProfileRecord{ID: w.ID}, true},
	} {
		if got := c.rec.Matches(w); got != c.want {
			t.Errorf("%s: Matches = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestReduceBasics(t *testing.T) {
	profiles := profileSome(t, append(workloads.MPI6(), workloads.Representative17()[:6]...), 40_000)
	a := &Analyzer{Seed: 1}
	red, err := a.Reduce(profiles, 4)
	if err != nil {
		t.Fatal(err)
	}
	if red.K != 4 || len(red.Clusters) != 4 {
		t.Fatalf("reduction produced %d clusters, want 4", len(red.Clusters))
	}
	total := 0
	for _, c := range red.Clusters {
		total += len(c.Members)
		found := false
		for _, m := range c.Members {
			if m == c.Representative {
				found = true
			}
		}
		if !found {
			t.Fatal("representative not a member of its own cluster")
		}
	}
	if total != len(profiles) {
		t.Fatalf("cluster members sum to %d, want %d", total, len(profiles))
	}
	// Clusters ordered by descending size.
	for i := 1; i < len(red.Clusters); i++ {
		if len(red.Clusters[i].Members) > len(red.Clusters[i-1].Members) {
			t.Fatal("clusters not ordered by size")
		}
	}
	if red.Explained < 0.9 {
		t.Fatalf("PCA kept %.2f variance, target 0.9", red.Explained)
	}
	if red.Dimensions <= 0 || red.Dimensions > metrics.NumMetrics {
		t.Fatalf("PCA dimensions = %d", red.Dimensions)
	}
}

func TestReduceGroupsStackmates(t *testing.T) {
	// Two very different behaviours x two instances each: clustering
	// with k=2 should split by behaviour, not arbitrarily.
	list := []workloads.Workload{
		workloads.MPI6()[1],             // M-Kmeans
		workloads.MPI6()[1],             // duplicate behaviour
		workloads.Representative17()[0], // H-Read (service)
		workloads.Representative17()[0],
	}
	list[1].ID = "M-Kmeans-b"
	list[3].ID = "H-Read-b"
	profiles := profileSome(t, list, 60_000)
	a := &Analyzer{Seed: 3}
	red, err := a.Reduce(profiles, 2)
	if err != nil {
		t.Fatal(err)
	}
	find := func(name string) int {
		for ci, c := range red.Clusters {
			for _, m := range c.Members {
				if red.Names[m] == name {
					return ci
				}
			}
		}
		return -1
	}
	if find("M-Kmeans") != find("M-Kmeans-b") {
		t.Fatal("identical workloads landed in different clusters")
	}
	if find("H-Read") != find("H-Read-b") {
		t.Fatal("identical service workloads landed in different clusters")
	}
	if find("M-Kmeans") == find("H-Read") {
		t.Fatal("compute kernel and service workload merged into one cluster")
	}
}

func TestReduceErrors(t *testing.T) {
	a := &Analyzer{}
	if _, err := a.Reduce(nil, 3); err == nil {
		t.Fatal("empty profile set accepted")
	}
	profiles := profileSome(t, workloads.MPI6()[:3], 30_000)
	if _, err := a.Reduce(profiles, 99); err == nil {
		t.Fatal("k > n accepted")
	}
}

func TestRepresentativesAndSimilarity(t *testing.T) {
	profiles := profileSome(t, workloads.MPI6(), 40_000)
	a := &Analyzer{Seed: 2}
	red, err := a.Reduce(profiles, 3)
	if err != nil {
		t.Fatal(err)
	}
	reps := red.Representatives()
	if len(reps) != 3 {
		t.Fatalf("%d representatives, want 3", len(reps))
	}
	sum := 0
	for _, r := range reps {
		sum += r.Count
	}
	if sum != len(profiles) {
		t.Fatalf("representative counts sum to %d, want %d", sum, len(profiles))
	}
	sim := red.Similarity()
	n := len(profiles)
	if sim.Rows != n || sim.Cols != n {
		t.Fatal("similarity matrix shape wrong")
	}
	for i := 0; i < n; i++ {
		if sim.At(i, i) != 0 {
			t.Fatal("self-distance nonzero")
		}
		for j := 0; j < n; j++ {
			if sim.At(i, j) != sim.At(j, i) {
				t.Fatal("similarity not symmetric")
			}
		}
	}
}
