package stackdist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim/cache"
)

// synthStream packs a pseudo-random access stream the way the block
// decoder does: lines drawn from a small working set with bursts of
// sequential reuse, consecutive same-line accesses merged into runs.
func synthStream(r *rand.Rand, n, lineSpan int) []cache.Rec {
	var recs []cache.Rec
	line := uint64(r.Intn(lineSpan))
	for i := 0; i < n; i++ {
		switch r.Intn(10) {
		case 0, 1, 2: // revisit the current line (forms runs)
		case 3, 4, 5, 6:
			line = uint64(r.Intn(lineSpan))
		default:
			line++
		}
		write := r.Intn(4) == 0
		if len(recs) == 0 || !cache.TryMerge(&recs[len(recs)-1], line, write) {
			recs = append(recs, cache.PackRec(line, write))
		}
	}
	return recs
}

// AccessBlock replays recs into s alone, one record at a time and
// unpruned: the reference a Family's Stacks are checked against. A
// record's merged repeats are depth-0 hits, so they only count.
func (s *Stack) AccessBlock(recs []cache.Rec) {
	for _, rec := range recs {
		s.accesses += cache.RecRun(rec) + 1
		s.access(cache.RecLine(rec))
	}
}

// replayCache counts (accesses, misses) of a concrete ways-associative
// LRU cache with the given set count over the packed stream, one
// cache.Access per access a record stands for.
func replayCache(sets, ways int, blocks [][]cache.Rec) (uint64, uint64) {
	c := cache.New(cache.Config{
		Name: "ref", Size: sets * ways * 64, Ways: ways, LineSize: 64,
	})
	for _, b := range blocks {
		for _, rec := range b {
			for range cache.RecRun(rec) + 1 {
				c.Access(cache.RecLine(rec)<<6, cache.RecWrite(rec))
			}
		}
	}
	return c.Accesses, c.Misses
}

// naiveLRU is a ways-associative true-LRU cache written as plainly as
// possible: one slice per set, most recently used line first. It has
// no associativity cap.
type naiveLRU struct {
	sets             [][]uint64
	ways             int
	accesses, misses uint64
}

// access counts n back-to-back accesses to line; only the first can
// miss.
func (c *naiveLRU) access(line, n uint64) {
	c.accesses += n
	k := line % uint64(len(c.sets))
	set := c.sets[k]
	i := slices.Index(set, line)
	if i < 0 {
		c.misses++
		if len(set) == c.ways {
			set = set[:len(set)-1]
		}
		set = append(set, 0)
		i = len(set) - 1
	}
	copy(set[1:i+1], set[:i])
	set[0] = line
	c.sets[k] = set
}

// TestStackMatchesNaiveLRUWide checks associativities past
// cache.MaxWays, which no concrete cache.Cache holds: a Family over 1,
// 7 and 64 sets, tracked 32 and 64 deep and fed in 4096-record blocks,
// must count what a naive LRU counts at every tested ways. The
// stream's phases have working sets of about 48 lines per set at each
// set count, so reuse depths between 16 and 64 are common.
func TestStackMatchesNaiveLRUWide(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var recs []cache.Rec
	for _, span := range []int{48, 7 * 48, 64 * 48} {
		recs = append(recs, synthStream(r, 20000, span)...)
	}
	for _, depth := range []int{32, 64} {
		fam := NewFamily(map[int]int{1: depth, 7: depth, 64: depth})
		for off := 0; off < len(recs); off += 4096 {
			fam.AccessBlock(recs[off:min(off+4096, len(recs))])
		}
		for _, sets := range []int{1, 7, 64} {
			got := fam.Stack(sets)
			for _, ways := range []int{1, 16, 17, 24, 32, depth} {
				ref := &naiveLRU{sets: make([][]uint64, sets), ways: ways}
				for _, rec := range recs {
					ref.access(cache.RecLine(rec), cache.RecRun(rec)+1)
				}
				if got.Accesses() != ref.accesses || got.Misses(ways) != ref.misses {
					t.Errorf("depth=%d sets=%d ways=%d: %d misses of %d accesses, naive LRU %d of %d",
						depth, sets, ways, got.Misses(ways), got.Accesses(), ref.misses, ref.accesses)
				}
			}
		}
	}
}

// TestStackMatchesCache is the core differential: for every (sets,
// ways) combination — powers of two and not — the stack's Misses(W)
// must equal the concrete cache model's fill count exactly, and the
// MissRatio must be bit-identical.
func TestStackMatchesCache(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var blocks [][]cache.Rec
	for i := 0; i < 6; i++ {
		blocks = append(blocks, synthStream(r, 3000, 4096))
	}
	for _, sets := range []int{1, 2, 7, 16, 96, 128, 1000, 4096} {
		for _, depth := range []int{1, 2, 16} {
			s := New(sets, depth)
			for _, b := range blocks {
				s.AccessBlock(b)
			}
			for ways := 1; ways <= depth; ways++ {
				wantA, wantM := replayCache(sets, ways, blocks)
				if s.Accesses() != wantA {
					t.Fatalf("sets=%d ways=%d: accesses %d, cache %d", sets, ways, s.Accesses(), wantA)
				}
				if got := s.Misses(ways); got != wantM {
					t.Errorf("sets=%d depth=%d ways=%d: misses %d, cache %d", sets, depth, ways, got, wantM)
				}
				wantRatio := float64(wantM) / float64(wantA)
				if got := s.MissRatio(ways); got != wantRatio {
					t.Errorf("sets=%d ways=%d: ratio %v, cache %v", sets, ways, got, wantRatio)
				}
			}
		}
	}
}

// TestMergedRuns checks the packed-run convention directly: a run's
// extra accesses are depth-0 hits, never misses.
func TestMergedRuns(t *testing.T) {
	s := New(4, 2)
	rec := cache.PackRec(5, false)
	for i := 0; i < 9; i++ {
		if !cache.TryMerge(&rec, 5, true) {
			t.Fatal("merge failed")
		}
	}
	s.AccessBlock([]cache.Rec{rec})
	if s.Accesses() != 10 {
		t.Fatalf("accesses %d, want 10", s.Accesses())
	}
	if got := s.Misses(1); got != 1 {
		t.Fatalf("misses %d, want 1 (cold fill only)", got)
	}
	if h := s.Hist(); h[0] != 9 {
		t.Fatalf("hist[0] %d, want 9", h[0])
	}
}

// TestHistogramShape checks the defining identities: Misses is
// non-increasing in ways, bounded by accesses, and Misses(1) + hits at
// depth 0 = accesses.
func TestHistogramShape(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := New(128, 16)
	s.AccessBlock(synthStream(r, 30000, 1<<14))
	prev := s.Accesses() + 1
	for ways := 1; ways <= 16; ways++ {
		m := s.Misses(ways)
		if m > s.Accesses() {
			t.Fatalf("ways=%d: misses %d > accesses %d", ways, m, s.Accesses())
		}
		if m > prev {
			t.Fatalf("ways=%d: misses %d increased from %d", ways, m, prev)
		}
		prev = m
	}
	if got := s.Misses(1) + s.Hist()[0]; got != s.Accesses() {
		t.Fatalf("misses(1)+hist[0] = %d, want %d", got, s.Accesses())
	}
}

// TestAccessMatchesAccessBlock pins the pruned block path to unpruned
// record-at-a-time replay. A Family over a divisibility chain (48 → 96 →
// 192 → 576), a set count dividing a member it is not the parent of
// (32 | 96), one dividing none (7) and mixed depths is fed in blocks of
// several sizes; every histogram must equal an unpruned Stack's.
func TestAccessMatchesAccessBlock(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	stream := synthStream(r, 20000, 1<<12)
	depths := map[int]int{7: 2, 32: 1, 48: 8, 96: 4, 192: 8, 576: 16}
	fam := NewFamily(depths)
	for off, i := 0, 0; off < len(stream); i++ {
		end := min(off+[]int{1, 3, 117, 4096}[i%4], len(stream))
		fam.AccessBlock(stream[off:end])
		off = end
	}
	for sets, depth := range depths {
		ref := New(sets, depth)
		ref.AccessBlock(stream)
		checkSame(t, fmt.Sprintf("sets=%d", sets), fam.Stack(sets), ref)
	}
}

// checkSame fails t unless got and want recorded the same accesses
// and histogram.
func checkSame(t *testing.T, what string, got, want *Stack) {
	t.Helper()
	if got.Accesses() != want.Accesses() {
		t.Fatalf("%s: accesses %d, want %d", what, got.Accesses(), want.Accesses())
	}
	gh, wh := got.Hist(), want.Hist()
	for d := range wh {
		if gh[d] != wh[d] {
			t.Errorf("%s: hist[%d] %d, want %d", what, d, gh[d], wh[d])
		}
	}
}

// fuzzMults are the multiples of a base set count a fuzzed family can
// track: ×2 and ×3 chains (1 → 2 → 4 → 8 → 16, 1 → 3 → 6 → 12 → 24)
// whose members also sit beside non-dividing siblings (3 and 4, 8 and
// 12, 16 and 24).
var fuzzMults = []int{1, 2, 3, 4, 6, 8, 12, 16, 24}

// fuzzHeader is the number of leading bytes FuzzFamily reads as the
// family shape and block length before the record stream.
const fuzzHeader = 9

// FuzzFamily decodes bytes into a set-count family and a packed record
// stream with runs and writes, replays the stream through the pruned
// Family, and requires every set count's histogram to equal an
// independent unpruned Stack's and every Misses(W) to equal what a
// concrete cache.Cache of that set count and W ways counts.
//
// Header: byte 0 picks the base set count (1–64); bytes 1–2 are a mask
// over fuzzMults of the multiples tracked; bytes 3–7 hold each
// multiple's depth (1–8) in a nibble; byte 8 is the block length in
// records (1–64). Each following byte pair (a, b) is one access: line
// a | (b>>4)<<8, a write when b&4 is set, merged into the previous
// record's run when b&3 is 0 and the line repeats.
func FuzzFamily(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzHeader {
			return
		}
		base := 1 + int(data[0]%64)
		mask := int(data[1]) | int(data[2])<<8
		depths := map[int]int{}
		for k, m := range fuzzMults {
			if mask&(1<<k) != 0 || (mask == 0 && k == 0) {
				depths[base*m] = max(depths[base*m], 1+int(data[3+k/2]>>(4*(k%2)))%8)
			}
		}
		blockLen := 1 + int(data[8]%64)

		var recs []cache.Rec
		for p := fuzzHeader; p+1 < len(data); p += 2 {
			a, b := data[p], data[p+1]
			line := uint64(a) | uint64(b>>4)<<8
			write := b&4 != 0
			if b&3 == 0 && len(recs) > 0 && cache.TryMerge(&recs[len(recs)-1], line, write) {
				continue
			}
			recs = append(recs, cache.PackRec(line, write))
		}

		fam := NewFamily(depths)
		for off := 0; off < len(recs); off += blockLen {
			fam.AccessBlock(recs[off:min(off+blockLen, len(recs))])
		}
		for sets, depth := range depths {
			got := fam.Stack(sets)
			ref := New(sets, depth)
			ref.AccessBlock(recs)
			checkSame(t, fmt.Sprintf("sets=%d", sets), got, ref)
			for ways := 1; ways <= depth; ways++ {
				wantA, wantM := replayCache(sets, ways, [][]cache.Rec{recs})
				if got.Accesses() != wantA || got.Misses(ways) != wantM {
					t.Fatalf("sets=%d ways=%d: %d misses of %d accesses, cache %d of %d",
						sets, ways, got.Misses(ways), got.Accesses(), wantM, wantA)
				}
			}
		}
	})
}
