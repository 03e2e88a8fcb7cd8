package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// goldenScenarios are the ad-hoc scenarios pinned beside the paper
// units: the default geometry over a group and a workload, four
// associativities in one ways_set, and non-power-of-two set counts
// (24-192 KB at ways 1, 3 and 6) in every view.
var goldenScenarios = map[string]Scenario{
	"ci": {Name: "ci", Groups: []string{"hadoop"}, Workloads: []string{"S-Sort"},
		SizesKB: []int{16, 64, 256, 1024}, Views: []string{"inst", "data"}},
	"multigeo": {Name: "multigeo", Workloads: []string{"H-Grep"},
		SizesKB: []int{16, 64, 256}, WaysSet: []int{1, 2, 8, 16}, Views: []string{"inst", "data"}},
	"refine3": {Name: "refine3", Workloads: []string{"H-Grep", "S-Sort"},
		SizesKB: []int{24, 48, 96, 192}, WaysSet: []int{1, 3, 6}, Views: []string{"inst", "data", "unified"}},
}

// goldenDigests reads testdata/golden.json: the SHA-256 of every
// visible unit ("unit/NAME") of a cold Quick() engine run and of every
// golden scenario ("scenario/NAME") run at Quick().
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]string{}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenOutput pins the paper's output itself rather than the
// agreement of two code paths: the bytes of every visible unit of a
// cold Quick() run through the production Engine, and of the golden
// scenarios, must hash to the committed digests. A deliberate model
// change updates testdata/golden.json from the map this test prints.
func TestGoldenOutput(t *testing.T) {
	want := goldenDigests(t)
	got := map[string]string{}

	results, err := (&Engine{Session: NewSession(Quick())}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Unit.Name, r.Err)
		}
		if r.Unit.Hidden || r.Artifact == nil {
			continue
		}
		var buf bytes.Buffer
		r.Artifact.Render(&buf)
		got["unit/"+r.Unit.Name] = sha256Hex(buf.Bytes())
	}
	s := NewSession(Quick())
	for name, spec := range goldenScenarios {
		b, err := RunScenario(s, spec)
		if err != nil {
			t.Fatalf("scenario %s: %v", name, err)
		}
		got["scenario/"+name] = sha256Hex(b)
	}

	var diff []string
	for k := range want {
		if got[k] != want[k] {
			diff = append(diff, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diff = append(diff, k)
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		all, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("output differs from testdata/golden.json at %v; digests of this run:\n%s", diff, all)
	}
}
