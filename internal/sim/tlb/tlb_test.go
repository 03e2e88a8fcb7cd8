package tlb

import (
	"testing"

	"repro/internal/sim/mem"
	"repro/internal/xrand"
)

func TestHitWithinPage(t *testing.T) {
	tl := New(Config{Name: "t", Entries: 64, Ways: 4})
	if !tl.Access(0x1000) {
		t.Fatal("cold translation did not miss")
	}
	if tl.Access(0x1FFF) {
		t.Fatal("same-page translation missed")
	}
	if !tl.Access(0x2000) {
		t.Fatal("next page did not miss")
	}
}

func TestCapacity(t *testing.T) {
	tl := New(Config{Name: "t", Entries: 64, Ways: 4})
	// Touch 64 distinct pages: all fit.
	for p := uint64(0); p < 64; p++ {
		tl.Access(p * mem.PageSize)
	}
	miss := 0
	for p := uint64(0); p < 64; p++ {
		if tl.Access(p * mem.PageSize) {
			miss++
		}
	}
	if miss != 0 {
		t.Fatalf("%d misses re-touching a working set equal to capacity", miss)
	}
}

func TestThrashBeyondCapacity(t *testing.T) {
	tl := New(Config{Name: "t", Entries: 64, Ways: 4})
	r := xrand.New(3)
	for i := 0; i < 10000; i++ {
		tl.Access(r.Uint64n(1<<30) &^ (mem.PageSize - 1))
	}
	if tl.MissRatio() < 0.9 {
		t.Fatalf("random pages over 256K pages should thrash, miss ratio %v", tl.MissRatio())
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid TLB geometry did not panic")
		}
	}()
	New(Config{Name: "bad", Entries: 10, Ways: 3})
}
