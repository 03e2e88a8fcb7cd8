package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"a", "bee"}}
	tb.Add("x", 1.5)
	tb.Add("longer", 2)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== T ==", "a", "bee", "x", "1.5", "longer", "2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Headers: []string{"a", "b"}}
	tb.Add("x", 1.25)
	var sb strings.Builder
	tb.CSV(&sb)
	if sb.String() != "a,b\nx,1.25\n" {
		t.Fatalf("CSV output %q", sb.String())
	}
}

func TestFloatTrimming(t *testing.T) {
	cases := map[float64]string{
		1.5:    "1.5",
		2:      "2",
		0.1234: "0.1234",
		0:      "0",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
