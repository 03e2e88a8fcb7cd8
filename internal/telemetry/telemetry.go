// Package telemetry renders one list of metric declarations in the two
// exposition formats the daemons serve: a flat JSON stats object
// (reprod's GET /v1/stats, artifactd's GET /stats) and the Prometheus
// text format, version 0.0.4 (GET /metrics). A daemon declares each
// metric once, in one function that snapshots its sources, and both
// endpoints render that snapshot, so they cannot drift apart.
package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strings"
)

// Value is what a metric holds: an integer, a float, a condition
// (0/1 in both formats), or a labelled family.
type Value interface {
	int64 | float64 | bool | Labeled | States
}

// Labeled is a family of integer samples keyed by one label. Its JSON
// value is the map itself; each entry is one Prometheus sample
// name{label="key"}.
type Labeled struct {
	Label  string
	Values map[string]int64
}

// States is a family of enumerated states keyed by one label. Its JSON
// value maps each label value to its state's name; its Prometheus
// sample is the state's index in Names.
type States struct {
	Label  string
	Values map[string]string
	Names  []string
}

// Metric is one declared value. Build it with Counter or Gauge.
type Metric struct {
	// Key is the metric's key in the JSON stats object.
	Key string
	// Name is the Prometheus sample name. It may carry constant labels
	// (`x_total{component="store"}`): metrics whose names share the
	// family before the brace are samples of one family, must be
	// adjacent in the list, and take the first one's help text.
	Name string
	// Type is the Prometheus type, "counter" or "gauge".
	Type string
	Help string
	// Value is an int64, float64, bool, Labeled or States.
	Value any
}

// Counter declares a monotonic metric.
func Counter[V Value](key, name, help string, v V) Metric {
	return Metric{Key: key, Name: name, Type: "counter", Help: help, Value: v}
}

// Gauge declares a metric that can go down.
func Gauge[V Value](key, name, help string, v V) Metric {
	return Metric{Key: key, Name: name, Type: "gauge", Help: help, Value: v}
}

// jsonValue is m's value as the stats object carries it.
func (m Metric) jsonValue() any {
	switch v := m.Value.(type) {
	case bool:
		if v {
			return int64(1)
		}
		return int64(0)
	case Labeled:
		return v.Values
	case States:
		return v.Values
	}
	return m.Value
}

// empty reports a labelled family with no samples: it is left out of
// both formats.
func (m Metric) empty() bool {
	switch v := m.Value.(type) {
	case Labeled:
		return len(v.Values) == 0
	case States:
		return len(v.Values) == 0
	}
	return false
}

// List is one snapshot of a daemon's metrics, in exposition order.
type List []Metric

// Value returns the JSON value of the metric with the given key. Asking
// for a key the list does not declare is a bug, and panics.
func (l List) Value(key string) any {
	for _, m := range l {
		if m.Key == key {
			return m.jsonValue()
		}
	}
	panic("telemetry: no metric " + key)
}

// Int returns the value of the integer metric with the given key.
func (l List) Int(key string) int64 {
	v, ok := l.Value(key).(int64)
	if !ok {
		panic("telemetry: metric " + key + " is not an integer")
	}
	return v
}

// WriteJSON writes the stats object: one key per metric, in the
// encoder's sorted key order.
func (l List) WriteJSON(w io.Writer) error {
	obj := make(map[string]any, len(l))
	for _, m := range l {
		if !m.empty() {
			obj[m.Key] = m.jsonValue()
		}
	}
	return json.NewEncoder(w).Encode(obj)
}

// WritePrometheus writes the list in the Prometheus text format, one
// HELP and TYPE header per family.
func (l List) WritePrometheus(w io.Writer) error {
	var b bytes.Buffer
	family := ""
	for _, m := range l {
		if m.empty() {
			continue
		}
		if f, _, _ := strings.Cut(m.Name, "{"); f != family {
			family = f
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f, m.Help, f, m.Type)
		}
		switch v := m.Value.(type) {
		case float64:
			fmt.Fprintf(&b, "%s %g\n", m.Name, v)
		case Labeled:
			for _, k := range slices.Sorted(maps.Keys(v.Values)) {
				fmt.Fprintf(&b, "%s{%s=%q} %d\n", m.Name, v.Label, k, v.Values[k])
			}
		case States:
			for _, k := range slices.Sorted(maps.Keys(v.Values)) {
				fmt.Fprintf(&b, "%s{%s=%q} %d\n", m.Name, v.Label, k, slices.Index(v.Names, v.Values[k]))
			}
		default:
			fmt.Fprintf(&b, "%s %d\n", m.Name, m.jsonValue())
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// JSONHandler answers every request with a fresh snapshot's stats
// object.
func JSONHandler(snapshot func() List) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snapshot().WriteJSON(w) // a failed write means the client left
	}
}

// PrometheusHandler answers every request with a fresh snapshot in the
// Prometheus text format.
func PrometheusHandler(snapshot func() List) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snapshot().WritePrometheus(w) // a failed write means the client left
	}
}
