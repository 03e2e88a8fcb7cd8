// Package cache implements set-associative cache models with true-LRU
// replacement, write-back/write-allocate policy, and a three-level
// hierarchy matching the paper's Xeon E5645 testbed (Table 3:
// 32 KB L1I + 32 KB L1D per core, 256 KB L2 per core, 12 MB shared L3).
//
// The hierarchy models demand accesses plus next-line instruction and
// data prefetchers (every platform the paper measures has them); the
// MPKI counters report demand misses only, matching what perf events
// count. The footprint study (Fig. 6-9) uses bare caches without
// prefetch, as MARSSx86 was configured in the paper.
package cache

import "math/bits"

// Config describes one cache level.
type Config struct {
	// Name labels the level in reports ("L1I", "L2", ...).
	Name string
	// Size is the capacity in bytes.
	Size int
	// Ways is the associativity.
	Ways int
	// LineSize is the block size in bytes (64 throughout the paper).
	LineSize int
}

// Valid reports whether the config describes a usable cache: whole
// lines dividing into whole sets. It forms no Ways*LineSize product,
// which could wrap to zero.
func (c Config) Valid() bool {
	return c.Size > 0 && c.Ways > 0 && c.LineSize > 0 &&
		c.Size%c.LineSize == 0 && (c.Size/c.LineSize)%c.Ways == 0
}

// Cache is a single set-associative cache with true-LRU replacement.
// The zero value is not usable; construct with New.
//
// A set's whole state lives in one contiguous meta slab region: its
// recency word followed by its ways' tags, with the dirty flag folded
// into the tag word, so one access touches one small span of one array
// (and one host TLB page). The recency word lists the set's ways from
// most to least recently used, 4 bits per way starting at the low
// nibble — which is what caps a cache at MaxWays ways. A hit moves its
// way's nibble to the front; a miss evicts the way in the last nibble
// and moves it to the front. An empty set's word runs from way W-1
// down to way 0, so fills take ways 0, 1, 2, ... in turn.
type Cache struct {
	cfg       Config
	sets      uint64
	setMask   uint64 // sets-1 when sets is a power of two
	pow2      bool   // set indexing may use the mask instead of %
	lineShift uint
	stride    uint64 // slab words per set: the recency word and the tags
	lruShift  uint   // bit offset of the least recently used way's nibble
	// meta holds sets*stride words: for set s, the recency word at
	// s*stride and the tags in the ways words after it. A tag word is
	// the line address + 1 (0 stays "invalid") with the dirty flag in
	// the top bit.
	meta []uint64

	// lastTag/lastIdx remember the immediately preceding access (the
	// meta index of its tag word): the line is guaranteed resident
	// there and is its set's most recently used way (nothing can evict
	// or outrank it without going through a lookup, which rewrites
	// these), so a repeat access to the same line only ORs in
	// dirtiness — it changes no replacement state.
	lastTag uint64
	lastIdx uint64

	// Accesses counts lookups; Misses counts fills; Writebacks counts
	// dirty evictions (memory write traffic).
	Accesses, Misses, Writebacks uint64
}

// MaxWays is the widest associativity a Cache holds: the recency word
// keeps one 4-bit way number per way.
const MaxWays = 16

// New constructs a cache from cfg. It panics on an invalid geometry or
// more than MaxWays ways, which always indicates a programming error
// in a machine preset.
func New(cfg Config) *Cache {
	if !cfg.Valid() || cfg.Ways > MaxWays {
		panic("cache: invalid geometry for " + cfg.Name)
	}
	sets := cfg.Size / cfg.LineSize / cfg.Ways
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	c := &Cache{
		cfg:       cfg,
		sets:      uint64(sets),
		setMask:   uint64(sets - 1),
		pow2:      sets&(sets-1) == 0,
		lineShift: shift,
		stride:    uint64(cfg.Ways) + 1,
		lruShift:  4 * uint(cfg.Ways-1),
		meta:      make([]uint64, sets*(cfg.Ways+1)),
	}
	c.Reset()
	return c
}

// dirtyBit marks a dirty line in its tag word. Tags are line+1 with
// line = addr >> lineShift < 2^58, so the top bit is always free.
const dirtyBit = 1 << 63

// emptyOrder is the recency word of an empty set: way W-1 first, way 0
// last, so the first miss fills way 0 — the lowest free way, as a scan
// for the oldest way with lowest-index tie-breaks would pick.
func emptyOrder(ways int) uint64 {
	var r uint64
	for w := 0; w < ways; w++ {
		r |= uint64(w) << (4 * uint(ways-1-w))
	}
	return r
}

// toFront moves the way at bit offset s of recency word r to the front,
// shifting the ways ahead of it back by one nibble.
func toFront(r uint64, s uint) uint64 {
	ahead := uint64(1)<<s - 1
	return r&^(ahead<<4|15) | (r&ahead)<<4 | r>>s&15
}

// nibbles has a 1 in every nibble of a word.
const nibbles = 0x1111111111111111

// position returns the bit offset of way w's nibble in recency word r:
// the lowest zero nibble of r XOR w-in-every-nibble, found without a
// loop by the borrow trick, which is exact for the lowest zero nibble.
// The unused nibbles above a narrower cache's ways read as way 0, but
// they lie above the real one.
func position(r, w uint64) uint {
	x := r ^ w*nibbles
	return uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) &^ 3
}

// Access looks up addr, installing the line on a miss (evicting the
// LRU way) and returns true on a hit. write marks the line dirty.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.Accesses++
	hit, dirty := c.lookup(addr>>c.lineShift, write)
	if !hit {
		c.Misses++
		if dirty {
			c.Writebacks++
		}
	}
	return hit
}

// Repeat performs Access(addr, write) when addr falls in the line of
// the previous access — a hit that changes no replacement state — and
// reports whether it did. It is small enough to inline, so a caller
// checks the common repeat before paying for the full call.
func (c *Cache) Repeat(addr uint64, write bool) bool {
	if addr>>c.lineShift+1 != c.lastTag {
		return false
	}
	c.Accesses++
	if write {
		c.meta[c.lastIdx] |= dirtyBit
	}
	return true
}

// lookup finds line in its set and makes it the set's most recently
// used way, installing it over the least recently used way on a miss.
// write marks the line dirty. It returns whether the line was present
// and, on a miss, whether the evicted line was dirty. It counts
// nothing.
func (c *Cache) lookup(line uint64, write bool) (hit, dirtyEvict bool) {
	tag := line + 1 // 0 stays "invalid"
	wbit := uint64(0)
	if write {
		wbit = dirtyBit
	}
	meta := c.meta
	if tag == c.lastTag {
		meta[c.lastIdx] |= wbit
		return true, false
	}
	var setNo uint64
	if c.pow2 {
		setNo = line & c.setMask
	} else {
		setNo = line % c.sets
	}
	set := setNo * c.stride
	r := meta[set]
	tags := meta[set+1 : set+c.stride]
	// Scan in way order, not recency order: the tag loads then do not
	// wait on the recency word's, which matters when the set is cold in
	// the host's caches.
	for w, t := range tags {
		if t&^dirtyBit == tag {
			tags[w] = t | wbit
			meta[set] = toFront(r, position(r, uint64(w)))
			c.lastTag, c.lastIdx = tag, set+1+uint64(w)
			return true, false
		}
	}
	w := r >> c.lruShift & 15
	dirtyEvict = tags[w]&dirtyBit != 0
	tags[w] = tag | wbit
	meta[set] = toFront(r, c.lruShift)
	c.lastTag, c.lastIdx = tag, set+1+w
	return false, dirtyEvict
}

// A Rec is one packed access run of a block-decoded stream: the
// cache-line address (the byte address shifted down by log2 of the
// line size) in bits 1..47, the write flag in bit 0, and a run counter
// in the top 16 bits — a record stands for 1 + counter back-to-back
// accesses to its line, with the write flag OR-ed over the run.
// Packing drops everything Access recomputes per call (offset bits, op
// class, sizes) and run-merging drops the accesses themselves: after
// the first access of a run the line is its set's most recently used
// way, so the rest can only bump the counters and accumulate dirtiness
// — what calling Access RecRun+1 times on the record's line would do.
type Rec = uint64

const (
	recCountShift = 48
	// recLineMask bounds the line address a record can carry (47
	// bits — byte addresses up to 2^53 at 64-byte lines, far beyond
	// the simulated layout).
	recLineMask = (uint64(1)<<recCountShift - 1) >> 1
	recCountMax = 1<<(64-recCountShift) - 1
)

// PackRec builds the record for a single access.
func PackRec(line uint64, write bool) Rec {
	r := line << 1
	if write {
		r |= 1
	}
	return r
}

// TryMerge folds one access into the immediately preceding record when
// it targets the same line and the run counter has room, returning
// whether it merged. Decoders call it once per access; every consumer
// replaying the stream then gets the run for free.
func TryMerge(prev *Rec, line uint64, write bool) bool {
	p := *prev
	if (p>>1)&recLineMask != line || p>>recCountShift == recCountMax {
		return false
	}
	p += 1 << recCountShift
	if write {
		p |= 1
	}
	*prev = p
	return true
}

// RecLine extracts a record's line address — the inverse of PackRec,
// exported so the stack-distance sweep can consume the packed streams
// the block decoder produces.
func RecLine(r Rec) uint64 { return (r >> 1) & recLineMask }

// RecRun extracts a record's merged-run count: the number of *extra*
// accesses folded into the record beyond its first (0 for an unmerged
// record), so a record represents RecRun+1 accesses in total.
func RecRun(r Rec) uint64 { return r >> recCountShift }

// RecWrite reports whether any access of the record's run wrote.
func RecWrite(r Rec) bool { return r&1 != 0 }

// Touch installs addr without affecting the demand counters; it is
// the fill path used by the prefetcher. Returns true if the line was
// already present.
func (c *Cache) Touch(addr uint64, write bool) bool {
	hit, _ := c.lookup(addr>>c.lineShift, write)
	return hit
}

// MissRatio returns Misses/Accesses (0 when never accessed).
func (c *Cache) MissRatio() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	empty := emptyOrder(c.cfg.Ways)
	for i := range c.meta {
		c.meta[i] = 0
	}
	for set := uint64(0); set < uint64(len(c.meta)); set += c.stride {
		c.meta[set] = empty
	}
	c.lastTag, c.lastIdx = 0, 0
	c.Accesses, c.Misses, c.Writebacks = 0, 0, 0
}

// Hierarchy is the three-level structure of the modelled node: split
// L1, unified L2, optional unified L3 (the Atom model has none). It
// tracks instruction/data splits at the shared levels because the
// paper's software-stack analysis (§5.5) attributes L2/LLC misses to
// instruction footprint.
type Hierarchy struct {
	L1I, L1D, L2, L3 *Cache

	// Instruction-side and data-side access/miss splits at L2 and L3.
	L2IAcc, L2IMiss, L2DAcc, L2DMiss uint64
	L3IAcc, L3IMiss, L3DAcc, L3DMiss uint64
	// MemReads counts demand fills from memory; MemWrites counts
	// last-level writebacks.
	MemReads, MemWrites uint64
}

// Level identifiers returned by Fetch and Data.
const (
	LvlL1  = 1
	LvlL2  = 2
	LvlL3  = 3
	LvlMem = 4
)

// NewHierarchy builds a hierarchy; pass a zero Config for no L3.
func NewHierarchy(l1i, l1d, l2, l3 Config) *Hierarchy {
	h := &Hierarchy{
		L1I: New(l1i),
		L1D: New(l1d),
		L2:  New(l2),
	}
	if l3.Size > 0 {
		h.L3 = New(l3)
	}
	return h
}

// Fetch performs an instruction fetch of pc and returns the level that
// hit (LvlL1..LvlMem). A demand miss triggers the next-line
// instruction prefetcher (all modelled front ends have one), so
// straight-line cold code pays one exposed fill per two lines. The
// next line is the next L1I line.
func (h *Hierarchy) Fetch(pc uint64) int {
	if h.L1I.Access(pc, false) {
		return LvlL1
	}
	level := LvlL2
	h.L2IAcc++
	if !h.L2.Access(pc, false) {
		h.L2IMiss++
		if h.L3 == nil {
			level = LvlMem
			h.MemReads++
		} else {
			h.L3IAcc++
			if h.L3.Access(pc, false) {
				level = LvlL3
			} else {
				h.L3IMiss++
				h.MemReads++
				level = LvlMem
			}
		}
	}
	h.prefetch(pc + uint64(h.L1I.cfg.LineSize))
	return level
}

// prefetch quietly installs a line through the hierarchy.
func (h *Hierarchy) prefetch(addr uint64) {
	h.L1I.Touch(addr, false)
	h.L2.Touch(addr, false)
	if h.L3 != nil {
		h.L3.Touch(addr, false)
	}
}

// Data performs a data access and returns the level that hit. A demand
// miss triggers the next-line data prefetcher (the DCU/L2 streamers of
// the modelled Xeon), so sequential streams expose roughly one fill in
// two. The next lines are the next two L1D lines, at every level.
func (h *Hierarchy) Data(addr uint64, write bool) int {
	if h.L1D.Access(addr, write) {
		return LvlL1
	}
	level := LvlL2
	h.L2DAcc++
	if !h.L2.Access(addr, write) {
		h.L2DMiss++
		if h.L3 == nil {
			level = LvlMem
			h.MemReads++
		} else {
			h.L3DAcc++
			if h.L3.Access(addr, write) {
				level = LvlL3
			} else {
				h.L3DMiss++
				h.MemReads++
				level = LvlMem
			}
		}
	}
	// Degree-2 streamer: the L2/DCU prefetchers of the modelled
	// platforms run ahead of sequential streams.
	next := addr + uint64(h.L1D.cfg.LineSize)
	after := next + uint64(h.L1D.cfg.LineSize)
	h.L1D.Touch(next, false)
	h.L1D.Touch(after, false)
	h.L2.Touch(next, false)
	h.L2.Touch(after, false)
	if h.L3 != nil {
		h.L3.Touch(next, false)
		h.L3.Touch(after, false)
	}
	return level
}

// FinishWritebacks accounts final memory write traffic (last-level
// writebacks) into MemWrites. Call once at end of run.
func (h *Hierarchy) FinishWritebacks() {
	if h.L3 != nil {
		h.MemWrites = h.L3.Writebacks
	} else {
		h.MemWrites = h.L2.Writebacks
	}
}
