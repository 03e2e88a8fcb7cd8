package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/conc"
	"repro/internal/metrics"
	"repro/internal/sim/machine"
	"repro/internal/suites"
	"repro/internal/workloads"
)

// readOutsideModel names the numeric Xeon preset fields the machine
// model does not read, with the code that does. That code reads no
// other preset's.
var readOutsideModel = map[string]string{
	"Cores":             "Table 3 and sysmodel.DefaultCluster",
	"PeakFlopsPerCycle": "Fig. 1's peak GFLOPS",
}

// presetLeaf is one settable value of a machine.Config: a path of
// field and array indices from the Config down to a scalar.
type presetLeaf struct {
	name string
	path []int
}

func (l presetLeaf) of(cfg *machine.Config) reflect.Value {
	v := reflect.ValueOf(cfg).Elem()
	for _, i := range l.path {
		if v.Kind() == reflect.Array {
			v = v.Index(i)
		} else {
			v = v.Field(i)
		}
	}
	return v
}

// presetLeaves lists every scalar under v, counting each array element
// as its own value.
func presetLeaves(t *testing.T, v reflect.Value, name string, path []int) []presetLeaf {
	path = path[:len(path):len(path)] // appends below must not share
	switch v.Kind() {
	case reflect.Struct:
		var out []presetLeaf
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i).Name
			if name != "" {
				f = name + "." + f
			}
			out = append(out, presetLeaves(t, v.Field(i), f, append(path, i))...)
		}
		return out
	case reflect.Array:
		var out []presetLeaf
		for i := 0; i < v.Len(); i++ {
			out = append(out, presetLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", name, i), append(path, i))...)
		}
		return out
	case reflect.String, reflect.Bool, reflect.Int, reflect.Float64:
		return []presetLeaf{{name: name, path: path}}
	}
	t.Fatalf("%s: no perturbation for a %s", name, v.Kind())
	return nil
}

// perturb changes v in a way a short run can see: it flips a bool,
// shrinks a cache capacity 64x, adds 1 to a number below 2 and halves
// any other.
func perturb(v reflect.Value, name string) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Float64:
		v.SetFloat(v.Float() / 2)
	case reflect.Int:
		switch n := v.Int(); {
		case strings.HasSuffix(name, ".Size"):
			v.SetInt(n / 64)
		case n < 2:
			v.SetInt(n + 1)
		default:
			v.SetInt(n / 2)
		}
	}
}

// TestEveryPresetFieldMovesAProfile keeps the presets to parameters
// that mean what they say. It perturbs each value of XeonE5645 and
// AtomD510 in turn and requires the perturbation to change at least
// one probe workload's 45-metric vector, so a value the model never
// reads fails it. Exempt are string labels, zero values, and, on the
// Xeon only, the fields in readOutsideModel. The L3's ways are
// compared at a 64x smaller capacity on both sides: a short run fills
// too little of a 12 MB L3 for its associativity to matter.
func TestEveryPresetFieldMovesAProfile(t *testing.T) {
	probes := []workloads.Workload{suites.PARSEC()[0], suites.HPCC()[0]}
	for _, w := range workloads.Representative17() {
		if w.ID == "H-Read" {
			probes = append(probes, w)
		}
	}
	if len(probes) != 3 {
		t.Fatal("H-Read is not among the representatives")
	}

	// Each pair names a perturbation and indexes its two configs.
	type pair struct {
		name        string
		base, moved int
	}
	var configs []machine.Config
	var pairs []pair
	for _, p := range []struct {
		preset machine.Config
		exempt map[string]string
	}{{machine.XeonE5645(), readOutsideModel}, {machine.AtomD510(), nil}} {
		preset := p.preset
		base := len(configs)
		configs = append(configs, preset)
		for _, leaf := range presetLeaves(t, reflect.ValueOf(preset), "", nil) {
			v := leaf.of(&preset)
			if _, ok := p.exempt[leaf.name]; ok || v.Kind() == reflect.String || v.IsZero() {
				continue
			}
			b, moved := base, preset
			if leaf.name == "L3.Ways" {
				moved.L3.Size /= 64
				b = len(configs)
				configs = append(configs, moved)
			}
			perturb(leaf.of(&moved), leaf.name)
			pairs = append(pairs, pair{preset.Name + ": " + leaf.name, b, len(configs)})
			configs = append(configs, moved)
		}
	}

	vecs := make([]metrics.Vector, len(configs)*len(probes))
	conc.ForEach(0, len(vecs), func(i int) {
		p := &Profiler{Machine: configs[i/len(probes)], Budget: 150_000}
		vecs[i] = p.Profile(probes[i%len(probes)]).Vector
	})
	for _, p := range pairs {
		moved := false
		for k := range probes {
			a, b := vecs[p.base*len(probes)+k], vecs[p.moved*len(probes)+k]
			for m := range a {
				moved = moved || math.Float64bits(a[m]) != math.Float64bits(b[m])
			}
		}
		if !moved {
			t.Errorf("%s: the perturbation moves no profile, so the model does not read it", p.name)
		}
	}
}
