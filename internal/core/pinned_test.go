package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/sim/machine"
	"repro/internal/suites"
	"repro/internal/workloads"
)

// pinnedBudget is the per-run instruction budget of the pinned set.
const pinnedBudget = 300_000

// TestProfileVectorsPinned pins the machine model's output bit for
// bit: the SHA-256 over the float64 bit patterns of every 45-metric
// vector of the 17 representatives on both presets, the six MPI
// workloads and every comparator-suite workload on the Xeon. The
// rendered goldens round to four decimals, which can hide a one-event
// drift in a counter; this digest cannot. A pure speed-up of the
// simulator must leave testdata/profile_vectors.sha256 unchanged.
func TestProfileVectorsPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/profile_vectors.sha256")
	if err != nil {
		t.Fatal(err)
	}
	xeon, atom := machine.XeonE5645(), machine.AtomD510()
	type run struct {
		cfg  machine.Config
		list []workloads.Workload
	}
	runs := []run{
		{xeon, workloads.Representative17()},
		{atom, workloads.Representative17()},
		{xeon, workloads.MPI6()},
	}
	all := suites.All()
	for _, name := range suites.Names() {
		runs = append(runs, run{xeon, all[name]})
	}
	h := sha256.New()
	n := 0
	var buf [8]byte
	for _, r := range runs {
		for _, prof := range profileList(r.cfg, r.list, pinnedBudget) {
			h.Write([]byte(r.cfg.Name + "/" + prof.Workload.ID + "\n"))
			for _, v := range prof.Vector {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
			n++
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != strings.TrimSpace(string(want)) {
		t.Fatalf("profile vectors of %d runs hash to %s, pinned %s", n, got, strings.TrimSpace(string(want)))
	}
}
