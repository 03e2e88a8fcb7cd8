package repro

import (
	"testing"

	"repro/internal/metrics"
)

func TestFacadeRun(t *testing.T) {
	w := Representative17()[14] // H-WordCount
	v := Run(w, XeonE5645(), 100_000)
	if v[metrics.IPC] <= 0 {
		t.Fatal("façade Run produced no IPC")
	}
	if v[metrics.MixBranch] <= 0.05 || v[metrics.MixBranch] > 0.4 {
		t.Fatalf("branch ratio %v implausible", v[metrics.MixBranch])
	}
}

func TestFacadeRosters(t *testing.T) {
	if len(Representative17()) != 17 || len(MPI6()) != 6 || len(Roster77()) != 77 {
		t.Fatal("roster sizes wrong")
	}
}

func TestFacadeCharacterizeAndReduce(t *testing.T) {
	profiles := Characterize(MPI6(), XeonE5645(), 50_000)
	if len(profiles) != 6 {
		t.Fatalf("%d profiles", len(profiles))
	}
	red, err := Reduce(profiles, 3)
	if err != nil {
		t.Fatal(err)
	}
	if red.K != 3 {
		t.Fatalf("k = %d", red.K)
	}
}

func TestFacadeMachines(t *testing.T) {
	// Only the Xeon's core count is read (Table 3, the system model,
	// Fig. 1), so the Atom preset leaves its own zero.
	if XeonE5645().Cores != 6 || AtomD510().FreqHz != 1.66e9 || AtomD510().Cores != 0 {
		t.Fatal("machine presets wrong")
	}
}
