package cache

import (
	"testing"

	"repro/internal/xrand"
)

// refLRU is a naive true-LRU cache, independent of the recency word:
// one slice per set, most recently used line first, the last entry
// evicted when a full set misses.
type refLRU struct {
	sets                         [][]refLine
	ways                         int
	accesses, misses, writebacks uint64
}

type refLine struct {
	line  uint64
	dirty bool
}

func newRefLRU(sets, ways int) *refLRU {
	return &refLRU{sets: make([][]refLine, sets), ways: ways}
}

// lookup mirrors Cache.lookup: it counts nothing.
func (r *refLRU) lookup(line uint64, write bool) (hit, dirtyEvict bool) {
	n := line % uint64(len(r.sets))
	set := r.sets[n]
	for k, l := range set {
		if l.line == line {
			l.dirty = l.dirty || write
			copy(set[1:k+1], set[:k])
			set[0] = l
			return true, false
		}
	}
	if len(set) == r.ways {
		dirtyEvict = set[len(set)-1].dirty
		set = set[:len(set)-1]
	}
	r.sets[n] = append([]refLine{{line, write}}, set...)
	return false, dirtyEvict
}

func (r *refLRU) access(line uint64, write bool) bool {
	r.accesses++
	hit, dirty := r.lookup(line, write)
	if !hit {
		r.misses++
		if dirty {
			r.writebacks++
		}
	}
	return hit
}

// TestCacheMatchesReferenceLRU drives the recency-word cache and the
// naive reference with the same seeded streams — demand accesses, the
// inlinable repeat and prefetch touches, a fifth of them writes — over
// every associativity the cache holds and power-of-two and other set
// counts. Every per-access outcome and every counter must agree.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	const lineSize = 64
	for ways := 1; ways <= MaxWays; ways++ {
		for _, sets := range []int{1, 3, 64, 96} {
			c := New(Config{Name: "t", Size: sets * ways * lineSize, Ways: ways, LineSize: lineSize})
			ref := newRefLRU(sets, ways)
			rng := xrand.New(uint64(ways*1000 + sets))
			span := uint64(sets*ways*3/2 + 1) // about two thirds of lines fit
			var last uint64
			next := func() (uint64, bool) {
				if rng.Uint64n(4) != 0 {
					last = rng.Uint64n(span)
				}
				return last, rng.Uint64n(5) == 0
			}
			check := func(step int, what string, got, want bool) {
				t.Helper()
				if got != want {
					t.Fatalf("ways=%d sets=%d step %d: %s hit=%v, reference %v", ways, sets, step, what, got, want)
				}
				if c.Accesses != ref.accesses || c.Misses != ref.misses || c.Writebacks != ref.writebacks {
					t.Fatalf("ways=%d sets=%d step %d after %s: counters %d/%d/%d, reference %d/%d/%d", ways, sets, step, what,
						c.Accesses, c.Misses, c.Writebacks, ref.accesses, ref.misses, ref.writebacks)
				}
			}
			prev := ^uint64(0) // line of the previous lookup of any kind
			for step := 0; step < 3000; step++ {
				switch op := rng.Uint64n(8); {
				case op < 5:
					line, write := next()
					check(step, "Access", c.Access(line*lineSize+rng.Uint64n(lineSize), write), ref.access(line, write))
					prev = line
				case op < 7:
					line, write := next()
					repeated := c.Repeat(line*lineSize, write)
					if repeated != (line == prev) {
						t.Fatalf("ways=%d sets=%d step %d: Repeat=%v for line %d after line %d", ways, sets, step, repeated, line, prev)
					}
					if !repeated {
						check(step, "Access", c.Access(line*lineSize, write), ref.access(line, write))
					} else {
						check(step, "Repeat", true, ref.access(line, write))
					}
					prev = line
				default:
					line, write := next()
					hit, _ := ref.lookup(line, write)
					check(step, "Touch", c.Touch(line*lineSize, write), hit)
					prev = line
				}
			}
		}
	}
}
