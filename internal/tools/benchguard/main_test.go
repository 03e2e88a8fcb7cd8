package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// ciRatios are the -ratio terms of CI's bench regression guard.
const ciRatios = "BenchmarkSweepFiguresBlocked<=0.5*BenchmarkSweepFiguresSerial," +
	"BenchmarkSweepMultiGeometry/geoms-4<=2.0*BenchmarkSweepMultiGeometry/geoms-1," +
	"BenchmarkSweepMultiGeometry/geoms-6<=2.0*BenchmarkSweepMultiGeometry/geoms-1"

// sweepRun is a BenchmarkSweep run as go test names it at GOMAXPROCS
// procs: the suffix is "" at 1 and "-N" otherwise.
func sweepRun(t *testing.T, suffix string) string {
	t.Helper()
	ns := map[string]float64{
		"BenchmarkSweepFiguresSerial":         1300e6,
		"BenchmarkSweepFiguresBlocked":        290e6,
		"BenchmarkSweepPassSerial":            94e6,
		"BenchmarkSweepPassBlocked":           91e6,
		"BenchmarkSweepStackDist":             76e6,
		"BenchmarkSweepMultiGeometry/geoms-1": 73e6,
		"BenchmarkSweepMultiGeometry/geoms-4": 93e6,
		"BenchmarkSweepMultiGeometry/geoms-6": 114e6,
	}
	var env envelope
	for name, v := range ns {
		env.Benchmarks = append(env.Benchmarks, result{Name: name + suffix, Iterations: 3, NsPerOp: v})
	}
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadNames(t *testing.T) {
	for _, suffix := range []string{"", "-2"} {
		got, err := load(sweepRun(t, suffix))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		want := "BenchmarkSweepFiguresBlocked BenchmarkSweepFiguresSerial " +
			"BenchmarkSweepMultiGeometry/geoms-1 BenchmarkSweepMultiGeometry/geoms-4 BenchmarkSweepMultiGeometry/geoms-6 " +
			"BenchmarkSweepPassBlocked BenchmarkSweepPassSerial BenchmarkSweepStackDist"
		if strings.Join(names, " ") != want {
			t.Errorf("suffix %q: loaded %v", suffix, names)
		}
	}
}

func TestCIRatioTermsResolve(t *testing.T) {
	for _, suffix := range []string{"", "-2"} {
		current, err := load(sweepRun(t, suffix))
		if err != nil {
			t.Fatal(err)
		}
		for _, term := range strings.Split(ciRatios, ",") {
			if !checkRatio(term, current) {
				t.Errorf("suffix %q: ratio %s did not hold", suffix, term)
			}
		}
	}
}
