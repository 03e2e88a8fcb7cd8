// Package tlb models instruction and data translation look-aside
// buffers. A TLB is structurally a small set-associative cache keyed by
// page number. The machine model decides what a miss costs: a
// first-level miss goes to the shared second-level TLB, and a miss
// there is a page walk, counted toward the ITLB/DTLB MPKI metrics of
// the paper's Fig. 5.
package tlb

import "repro/internal/sim/mem"

// Config describes a TLB.
type Config struct {
	// Name labels the TLB ("ITLB"/"DTLB").
	Name string
	// Entries is the total entry count.
	Entries int
	// Ways is the associativity.
	Ways int
}

// TLB is a set-associative translation buffer with true-LRU
// replacement. Construct with New.
type TLB struct {
	cfg   Config
	sets  uint64
	tags  []uint64
	stamp []uint64
	clock uint64

	// lastTag/lastIdx remember the immediately preceding translation;
	// the entry is guaranteed resident (only Access evicts, and it
	// rewrites these) and already holds the newest stamp, so a repeat
	// access to the same page skips the way scan and leaves the clock
	// and stamps alone: their order, which is all replacement reads,
	// is the same either way.
	lastTag uint64
	lastIdx uint64

	// Accesses and Misses count translations.
	Accesses, Misses uint64
}

// New constructs a TLB; it panics on an invalid geometry.
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic("tlb: invalid geometry for " + cfg.Name)
	}
	n := cfg.Entries
	return &TLB{
		cfg:   cfg,
		sets:  uint64(cfg.Entries / cfg.Ways),
		tags:  make([]uint64, n),
		stamp: make([]uint64, n),
	}
}

// Access translates addr, returning true on a TLB miss (page walk).
func (t *TLB) Access(addr uint64) bool {
	t.Accesses++
	page := mem.PageOf(addr)
	tag := page + 1
	if tag == t.lastTag {
		return false
	}
	t.clock++
	set := (page % t.sets) * uint64(t.cfg.Ways)
	ways := t.tags[set : set+uint64(t.cfg.Ways)]
	for w := range ways {
		if ways[w] == tag {
			idx := set + uint64(w)
			t.stamp[idx] = t.clock
			t.lastTag, t.lastIdx = tag, idx
			return false
		}
	}
	t.Misses++
	victim := set
	oldest := t.stamp[set]
	for w := uint64(1); w < uint64(t.cfg.Ways); w++ {
		if t.stamp[set+w] < oldest {
			oldest = t.stamp[set+w]
			victim = set + w
		}
	}
	t.tags[victim] = tag
	t.stamp[victim] = t.clock
	t.lastTag, t.lastIdx = tag, victim
	return true
}

// Repeat performs Access(addr) when addr falls in the page of the
// previous translation — a hit — and reports whether it did. It is
// small enough to inline, so a caller checks the common repeat before
// paying for the full call.
func (t *TLB) Repeat(addr uint64) bool {
	if mem.PageOf(addr)+1 != t.lastTag {
		return false
	}
	t.Accesses++
	return true
}

// MissRatio returns Misses/Accesses (0 when never accessed).
func (t *TLB) MissRatio() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}
