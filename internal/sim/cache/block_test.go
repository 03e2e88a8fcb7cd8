package cache

import "testing"

// TestTryMergeSemantics pins the record packing: merges accumulate the
// run counter and OR the write flag, refuse line changes, and saturate.
func TestTryMergeSemantics(t *testing.T) {
	r := PackRec(5, false)
	if !TryMerge(&r, 5, true) {
		t.Fatal("same-line merge refused")
	}
	if RecRun(r) != 1 || !RecWrite(r) || RecLine(r) != 5 {
		t.Fatalf("merged record malformed: %#x", r)
	}
	if TryMerge(&r, 6, false) {
		t.Fatal("merged across a line change")
	}
	r = PackRec(7, false)
	for i := 0; i < recCountMax; i++ {
		if !TryMerge(&r, 7, false) {
			t.Fatalf("merge %d refused before saturation", i)
		}
	}
	if TryMerge(&r, 7, false) {
		t.Fatal("merge beyond the run counter's range")
	}
	// A saturated record keeps its full count, line and flag.
	if RecRun(r) != recCountMax || RecLine(r) != 7 || RecWrite(r) {
		t.Fatalf("saturated record malformed: run %d, line %d, write %v", RecRun(r), RecLine(r), RecWrite(r))
	}
}
