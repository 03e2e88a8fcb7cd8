// Package stackdist implements Mattson-style per-set LRU stack-distance
// accounting over the packed access streams the block decoder already
// produces (cache.Rec). One pass over a stream yields a reuse-depth
// histogram per set count, from which the exact miss count of *every*
// associativity up to the tracked depth follows arithmetically:
//
//	Misses(W) = Σ_{d >= W} hist[d]
//
// because a W-way true-LRU set-associative cache hits an access exactly
// when the line is among the W most recently touched distinct lines of
// its set (LRU's inclusion property), i.e. when its per-set stack depth
// is < W. The concrete cache.Cache model satisfies this precisely: each
// set's recency word orders its ways exactly from most to least
// recently used, and an empty set's ways all fill before any victim is
// chosen, so its resident set is always the W most recent distinct
// lines and its integer Accesses/Misses counters — and hence the
// float64 miss ratios — match this accounting bit for bit.
package stackdist

import (
	"fmt"
	"sort"

	"repro/internal/sim/cache"
)

// Stack tracks the LRU stack distance of every access for one set
// count. The depth bounds how far a line's reuse is tracked: a reuse
// deeper than depth lands in the overflow bucket and counts as a miss
// for every associativity ≤ depth, which is exactly what a cache with
// at most depth ways would see. One Stack therefore answers Misses(W)
// for every W in [1, depth].
//
// A Stack is not safe for concurrent use; sweeps give every view its
// own Family of Stacks and fan those out instead.
type Stack struct {
	sets  uint64
	depth int
	pow2  bool
	mask  uint64

	// slab holds the per-set stacks back to back: set s occupies
	// slab[s*depth : (s+1)*depth], most recent first. Entries are
	// line+1 so the zero value means "empty slot"; empty slots only
	// ever trail the valid entries of a set.
	slab []uint64

	// hist[d] counts accesses whose line was found at stack depth d ≥ 1;
	// hist[depth] counts accesses not found within depth (cold or
	// too-deep reuse — a miss for every tracked associativity). hist[0]
	// stays zero: depth-0 hits are the accesses no deeper bucket counts
	// (see Hist), so an access found on top of its set writes nothing.
	hist     []uint64
	accesses uint64
}

// New returns a Stack over the given set count, tracking reuse to the
// given depth (the largest associativity it can answer for).
func New(sets, depth int) *Stack {
	if sets < 1 {
		panic(fmt.Sprintf("stackdist: %d sets", sets))
	}
	if depth < 1 {
		panic(fmt.Sprintf("stackdist: depth %d", depth))
	}
	return &Stack{
		sets:  uint64(sets),
		depth: depth,
		pow2:  sets&(sets-1) == 0,
		mask:  uint64(sets - 1),
		slab:  make([]uint64, sets*depth),
		hist:  make([]uint64, depth+1),
	}
}

// Sets returns the set count. Depth returns the tracked stack depth.
func (s *Stack) Sets() int  { return int(s.sets) }
func (s *Stack) Depth() int { return s.depth }

func (s *Stack) setOf(line uint64) uint64 {
	if s.pow2 {
		return line & s.mask
	}
	return line % s.sets
}

// access moves line to the top of its set's stack, records its reuse
// depth, and reports whether it was already on top (a depth-0 hit).
func (s *Stack) access(line uint64) bool {
	depth := uint64(s.depth)
	base := s.setOf(line) * depth
	st := s.slab[base : base+depth]
	tag := line + 1
	if st[0] == tag {
		return true
	}
	prev := st[0]
	st[0] = tag
	d := s.depth
	for i := 1; i < s.depth; i++ {
		cur := st[i]
		st[i] = prev
		if cur == tag {
			d = i
			break
		}
		if cur == 0 {
			break // trailing empties: the line is cold, d stays depth
		}
		prev = cur
	}
	s.hist[d]++
	return false
}

// Accesses returns the total accesses recorded (merged runs included).
func (s *Stack) Accesses() uint64 { return s.accesses }

// Misses returns the exact miss count a ways-associative true-LRU
// cache with this set count would report over the recorded stream.
// ways must be in [1, Depth()].
func (s *Stack) Misses(ways int) uint64 {
	if ways < 1 || ways > s.depth {
		panic(fmt.Sprintf("stackdist: Misses(%d) outside tracked depth %d", ways, s.depth))
	}
	var m uint64
	for _, h := range s.hist[ways:] {
		m += h
	}
	return m
}

// MissRatio returns Misses(ways)/Accesses as the concrete cache model
// computes it — the same integer counts through the same float64
// division, so the ratios are bit-identical (0 when never accessed).
func (s *Stack) MissRatio(ways int) float64 {
	if s.accesses == 0 {
		return 0
	}
	return float64(s.Misses(ways)) / float64(s.accesses)
}

// Hist returns a copy of the reuse-depth histogram: Hist()[d] counts
// accesses hitting at depth d for d < Depth(); Hist()[Depth()] counts
// accesses not found within the tracked depth.
func (s *Stack) Hist() []uint64 {
	h := append([]uint64(nil), s.hist...)
	h[0] = s.accesses - s.Misses(1)
	return h
}

// Family replays one access stream into a Stack per set count, pruned
// by set refinement (Hill & Smith, "Evaluating Associativity in CPU
// Caches", IEEE TC 1989). A set is line mod S, so when S divides S′
// the lines sharing a set at S′ also share one at S, and a line's LRU
// stack depth at S′ is never larger than at S. A record already on top
// of its set at S is therefore on top at S′ too, where its access would
// change no state and count only as a depth-0 hit — which Stack derives
// from the access total. Each set count replays only the records its
// parent, the largest other set count dividing it, did not find on
// top; set counts without a divisor in the family replay every record.
// The histograms equal those of independent Stacks for any set counts
// and depths.
type Family struct {
	stacks []*Stack // ascending set count: every parent precedes its children
	parent []int    // index into stacks, or -1

	// missed[k] holds this block's records that stacks[k] did not find
	// on top, in stream order: its children's input. Reused across
	// blocks.
	missed [][]cache.Rec
}

// NewFamily returns a Family with one Stack per key of depths, each
// tracking reuse to its value.
func NewFamily(depths map[int]int) *Family {
	sets := make([]int, 0, len(depths))
	for n := range depths {
		sets = append(sets, n)
	}
	sort.Ints(sets)
	f := &Family{parent: make([]int, len(sets)), missed: make([][]cache.Rec, len(sets))}
	for k, n := range sets {
		f.stacks = append(f.stacks, New(n, depths[n]))
		f.parent[k] = -1
		for p := k - 1; p >= 0; p-- {
			if n%sets[p] == 0 {
				f.parent[k] = p
				break
			}
		}
	}
	return f
}

// Stacks returns the family's Stacks in ascending set-count order.
func (f *Family) Stacks() []*Stack { return f.stacks }

// Stack returns the Stack over the given set count, or nil when the
// family does not track it.
func (f *Family) Stack(sets int) *Stack {
	k := sort.Search(len(f.stacks), func(k int) bool { return f.stacks[k].Sets() >= sets })
	if k == len(f.stacks) || f.stacks[k].Sets() != sets {
		return nil
	}
	return f.stacks[k]
}

// AccessBlock replays one block's packed records into every Stack,
// coarsest set count first.
func (f *Family) AccessBlock(recs []cache.Rec) {
	var n uint64
	for _, rec := range recs {
		n += cache.RecRun(rec) + 1
	}
	for k, s := range f.stacks {
		s.accesses += n
		in := recs
		if p := f.parent[k]; p >= 0 {
			in = f.missed[p]
		}
		out := f.missed[k][:0]
		for _, rec := range in {
			if !s.access(cache.RecLine(rec)) {
				out = append(out, rec)
			}
		}
		f.missed[k] = out
	}
}
