package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func smallCache(sizeKB, ways int) *Cache {
	return New(Config{Name: "t", Size: sizeKB << 10, Ways: ways, LineSize: 64})
}

func TestHitAfterMiss(t *testing.T) {
	c := smallCache(4, 4)
	if c.Access(0x1000, false) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000, false) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1038, false) {
		t.Fatal("same-line access missed")
	}
}

func TestAssociativityRetention(t *testing.T) {
	// With 4 ways, 4 distinct lines mapping to the same set must all
	// be retained.
	c := smallCache(4, 4)
	sets := uint64(4 << 10 / (4 * 64))
	for w := uint64(0); w < 4; w++ {
		c.Access(w*sets*64, false)
	}
	for w := uint64(0); w < 4; w++ {
		if !c.Access(w*sets*64, false) {
			t.Fatalf("way %d evicted under 4-way set with 4 lines", w)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(4, 2)
	sets := uint64(4 << 10 / (2 * 64))
	a, b, d := uint64(0), sets*64, 2*sets*64
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is MRU
	c.Access(d, false) // evicts b (LRU)
	if !c.Access(a, false) {
		t.Fatal("MRU line evicted")
	}
	if c.Access(b, false) {
		t.Fatal("LRU line survived eviction")
	}
}

func TestWritebackCounting(t *testing.T) {
	c := smallCache(4, 1)
	sets := uint64(4 << 10 / 64)
	c.Access(0, true)        // dirty
	c.Access(sets*64, false) // evicts dirty line
	if c.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Writebacks)
	}
	c.Access(2*sets*64, false) // evicts clean line
	if c.Writebacks != 1 {
		t.Fatalf("clean eviction counted as writeback")
	}
}

// TestLRUInclusion verifies the stack property of LRU: a larger cache
// with the same associativity-per-set growth never misses more than a
// smaller one on any access sequence.
func TestLRUInclusion(t *testing.T) {
	f := func(seed uint64) bool {
		small := smallCache(4, 4)
		big := smallCache(8, 8) // same set count, more ways
		r := xrand.New(seed)
		var smallMiss, bigMiss uint64
		for i := 0; i < 4000; i++ {
			addr := r.Uint64n(64 << 10)
			if !small.Access(addr, false) {
				smallMiss++
			}
			if !big.Access(addr, false) {
				bigMiss++
			}
		}
		return bigMiss <= smallMiss
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTouchDoesNotCount(t *testing.T) {
	c := smallCache(4, 4)
	c.Touch(0x40, false)
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatalf("Touch affected counters: acc=%d miss=%d", c.Accesses, c.Misses)
	}
	if !c.Access(0x40, false) {
		t.Fatal("Touch did not install the line")
	}
}

func TestMissRatioBounds(t *testing.T) {
	c := smallCache(4, 4)
	r := xrand.New(1)
	for i := 0; i < 10000; i++ {
		c.Access(r.Uint64n(1<<20), false)
	}
	mr := c.MissRatio()
	if mr <= 0 || mr > 1 {
		t.Fatalf("miss ratio %v out of (0,1]", mr)
	}
}

func TestReset(t *testing.T) {
	c := smallCache(4, 4)
	c.Access(0x40, true)
	c.Reset()
	if c.Accesses != 0 || c.Misses != 0 || c.Writebacks != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if c.Access(0x40, false) {
		t.Fatal("Reset did not clear contents")
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "bad", Size: 1000, Ways: 3, LineSize: 64},
		{Name: "17-way", Size: 17 * 64, Ways: 17, LineSize: 64}, // wider than the recency word
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid geometry did not panic", cfg.Name)
				}
			}()
			New(cfg)
		}()
	}
}

// TestValidNoOverflow pins that Valid forms no Ways*LineSize product:
// geometries whose product wraps to zero are invalid, not a divide by
// zero.
func TestValidNoOverflow(t *testing.T) {
	for _, c := range []Config{
		{Size: 16 << 10, Ways: 1 << 58, LineSize: 64},
		{Size: 16 << 10, Ways: 8, LineSize: 1 << 62},
		{Size: 1 << 62, Ways: 1 << 2, LineSize: 1 << 61},
	} {
		if c.Valid() {
			t.Errorf("%+v reported valid", c)
		}
	}
	if !(Config{Size: 1 << 62, Ways: 2, LineSize: 1 << 61}).Valid() {
		t.Error("one set of two 2^61-byte lines reported invalid")
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy(
		Config{Name: "L1I", Size: 4 << 10, Ways: 4, LineSize: 64},
		Config{Name: "L1D", Size: 4 << 10, Ways: 4, LineSize: 64},
		Config{Name: "L2", Size: 32 << 10, Ways: 8, LineSize: 64},
		Config{Name: "L3", Size: 256 << 10, Ways: 16, LineSize: 64})
	if lvl := h.Data(0x100000, false); lvl != LvlMem {
		t.Fatalf("cold access hit level %d, want memory", lvl)
	}
	if lvl := h.Data(0x100000, false); lvl != LvlL1 {
		t.Fatalf("warm access hit level %d, want L1", lvl)
	}
	if h.MemReads != 1 {
		t.Fatalf("MemReads = %d, want 1", h.MemReads)
	}
}

// TestHierarchyPrefetchNextLine pins that both next-line prefetchers
// step by the L1 line size: after a demand miss, the line right after
// it must hit L1, at 64-byte lines and at 32 (where a fixed 64-byte
// step would skip it), with and without an L3.
func TestHierarchyPrefetchNextLine(t *testing.T) {
	for _, c := range []struct {
		line int
		l3   Config
	}{
		{64, Config{}},
		{32, Config{Name: "L3", Size: 256 << 10, Ways: 16, LineSize: 32}},
	} {
		h := NewHierarchy(
			Config{Name: "L1I", Size: 4 << 10, Ways: 4, LineSize: c.line},
			Config{Name: "L1D", Size: 4 << 10, Ways: 4, LineSize: c.line},
			Config{Name: "L2", Size: 32 << 10, Ways: 8, LineSize: c.line},
			c.l3)
		next := uint64(c.line)
		h.Data(0x200000, false) // miss; prefetches the next two lines
		if lvl := h.Data(0x200000+next, false); lvl != LvlL1 {
			t.Errorf("%d-byte lines: next data line not prefetched into L1 (level %d)", c.line, lvl)
		}
		h.Fetch(0x400000) // miss; prefetches the next line
		if lvl := h.Fetch(0x400000 + next); lvl != LvlL1 {
			t.Errorf("%d-byte lines: next code line not prefetched into L1 (level %d)", c.line, lvl)
		}
	}
}

func TestHierarchyNoL3(t *testing.T) {
	h := NewHierarchy(
		Config{Name: "L1I", Size: 4 << 10, Ways: 4, LineSize: 64},
		Config{Name: "L1D", Size: 4 << 10, Ways: 4, LineSize: 64},
		Config{Name: "L2", Size: 32 << 10, Ways: 8, LineSize: 64},
		Config{})
	if h.L3 != nil {
		t.Fatal("zero L3 config still built an L3")
	}
	if lvl := h.Fetch(0x400000); lvl != LvlMem {
		t.Fatalf("cold fetch hit level %d, want memory", lvl)
	}
}

func TestFetchDataSplitCounters(t *testing.T) {
	h := NewHierarchy(
		Config{Name: "L1I", Size: 4 << 10, Ways: 4, LineSize: 64},
		Config{Name: "L1D", Size: 4 << 10, Ways: 4, LineSize: 64},
		Config{Name: "L2", Size: 32 << 10, Ways: 8, LineSize: 64},
		Config{Name: "L3", Size: 256 << 10, Ways: 16, LineSize: 64})
	h.Fetch(0x1000000)
	h.Data(0x2000000, false)
	if h.L2IAcc != 1 || h.L2DAcc != 1 {
		t.Fatalf("L2 I/D access split wrong: I=%d D=%d", h.L2IAcc, h.L2DAcc)
	}
}
