package workloads

import (
	"repro/internal/sim/isa"
	"repro/internal/sim/mem"
	"repro/internal/sim/trace"
	"repro/internal/xrand"
)

// loadIdx emits an integer address calculation followed by a load of
// element idx of an array at base with elem-byte elements, returning
// the value register.
func loadIdx(e *trace.Emitter, base uint64, idx int, elem uint64, dep isa.Reg) isa.Reg {
	a := e.Int(isa.IntAddr, dep, isa.NoReg)
	return e.Load(base+uint64(idx)*elem, accSize(elem), a)
}

// loadFPIdx is loadIdx for floating-point arrays (the address
// calculation retires as the paper's "FP address" integer class).
func loadFPIdx(e *trace.Emitter, base uint64, idx int, elem uint64, dep isa.Reg) isa.Reg {
	a := e.Int(isa.FPAddr, dep, isa.NoReg)
	return e.Load(base+uint64(idx)*elem, accSize(elem), a)
}

// storeIdx emits an address calculation and a store to element idx.
func storeIdx(e *trace.Emitter, base uint64, idx int, elem uint64, val isa.Reg) {
	a := e.Int(isa.IntAddr, val, isa.NoReg)
	e.Store(base+uint64(idx)*elem, accSize(elem), val, a)
}

// storeFPIdx is storeIdx for floating-point arrays.
func storeFPIdx(e *trace.Emitter, base uint64, idx int, elem uint64, val isa.Reg) {
	a := e.Int(isa.FPAddr, val, isa.NoReg)
	e.Store(base+uint64(idx)*elem, accSize(elem), val, a)
}

func accSize(elem uint64) uint8 {
	if elem > 8 {
		return 8
	}
	return uint8(elem)
}

// scanBytes emits the byte-scanning loop of text kernels: per 8 input
// bytes, one load plus the per-byte classify/mask work a real
// tokenizer does, a word-boundary test, and a backward loop branch —
// the canonical "simple and conditional judgement operations" kernel
// shape the paper describes.
func scanBytes(e *trace.Emitter, base uint64, start, end int32, acc isa.Reg) {
	top := e.Here()
	for off := start; off < end; off += 8 {
		v := e.Load(base+uint64(off), 8, isa.NoReg)
		e.IntTo(acc, isa.IntAlu, acc, v)
		e.Int(isa.IntAddr, v, isa.NoReg)
		e.Int(isa.IntAlu, v, acc)
		e.Int(isa.IntAddr, v, isa.NoReg)
		// Word-boundary test: most 8-byte windows contain a boundary,
		// so the branch is biased taken with data-driven exceptions.
		boundary := (off/8)%4 != 3
		e.Branch(boundary, acc)
		e.Loop(top, off+8 < end, acc)
	}
}

// hashTable is an open-addressing hash table that exists both as real
// Go arrays (so probes have real outcomes) and as a simulated memory
// region (so probes have real address streams). Buckets are 16 bytes:
// key and value words.
type hashTable struct {
	keys []int64 // 0 = empty, otherwise key+1
	vals []int64
	base uint64
	mask uint64
	// Entries counts occupied buckets.
	Entries int
}

func newHashTable(l *mem.Layout, slots int) *hashTable {
	n := 1
	for n < slots {
		n <<= 1
	}
	return &hashTable{
		keys: make([]int64, n),
		vals: make([]int64, n),
		base: l.AllocArray(n, 16),
		mask: uint64(n - 1),
	}
}

func (t *hashTable) slotAddr(idx uint64) uint64 { return t.base + idx*16 }

// probe emits the lookup of key: hash mixing, then a linear-probing
// loop of load+compare+branch per step with the real outcomes of the
// real table. It returns the bucket index and whether the key was
// present.
func (t *hashTable) probe(e *trace.Emitter, key int64) (uint64, bool) {
	h := e.Int(isa.IntMul, isa.NoReg, isa.NoReg) // hash mix
	h = e.Int(isa.IntAlu, h, isa.NoReg)
	idx := xrand.Hash64(uint64(key)) & t.mask
	for {
		k := loadIdx(e, t.base, int(idx), 16, h)
		switch t.keys[idx] {
		case key + 1: // hit: exit loop (branch not taken)
			e.Branch(false, k)
			return idx, true
		case 0: // empty: exit loop (branch not taken on empty test)
			e.Branch(false, k)
			return idx, false
		default: // occupied by another key: keep probing
			e.Branch(true, k)
			idx = (idx + 1) & t.mask
		}
	}
}

// probeVec emits a branch-free (vectorized/predicated) lookup: the
// bucket compare is evaluated into a mask instead of branching, the way
// columnar engines evaluate hash joins over batches. Collision chains
// still walk with real (taken) branches.
func (t *hashTable) probeVec(e *trace.Emitter, key int64) (uint64, bool) {
	h := e.Int(isa.IntMul, isa.NoReg, isa.NoReg)
	h = e.Int(isa.IntAlu, h, isa.NoReg)
	idx := xrand.Hash64(uint64(key)) & t.mask
	for {
		k := loadIdx(e, t.base, int(idx), 16, h)
		switch t.keys[idx] {
		case key + 1:
			e.Int(isa.IntAlu, k, isa.NoReg) // compare into mask
			return idx, true
		case 0:
			e.Int(isa.IntAlu, k, isa.NoReg)
			return idx, false
		default:
			e.Branch(true, k) // rare collision walk
			idx = (idx + 1) & t.mask
		}
	}
}

// add emits a lookup-and-accumulate: on hit the value word is loaded,
// incremented by delta and stored back; on miss the key is inserted
// with value delta. It returns true when the key was new.
func (t *hashTable) add(e *trace.Emitter, key, delta int64) bool {
	idx, found := t.probe(e, key)
	a := e.Int(isa.IntAddr, isa.NoReg, isa.NoReg)
	if found {
		v := e.Load(t.slotAddr(idx)+8, 8, a)
		v = e.IntTo(v, isa.IntAlu, v, isa.NoReg)
		e.Store(t.slotAddr(idx)+8, 8, v, a)
		t.vals[idx] += delta
		return false
	}
	e.Store(t.slotAddr(idx), 8, a, isa.NoReg)
	e.Store(t.slotAddr(idx)+8, 8, a, isa.NoReg)
	t.keys[idx] = key + 1
	t.vals[idx] = delta
	t.Entries++
	return true
}

// addFP is add with a floating-point accumulate (Hive/Shark-style
// SUM(double) aggregation).
func (t *hashTable) addFP(e *trace.Emitter, key int64, delta float64) bool {
	idx, found := t.probe(e, key)
	a := e.Int(isa.FPAddr, isa.NoReg, isa.NoReg)
	if found {
		v := e.Load(t.slotAddr(idx)+8, 8, a)
		v = e.FPTo(v, isa.FPArith, v, isa.NoReg)
		e.Store(t.slotAddr(idx)+8, 8, v, a)
		t.vals[idx] += int64(delta)
		return false
	}
	e.Store(t.slotAddr(idx), 8, a, isa.NoReg)
	e.Store(t.slotAddr(idx)+8, 8, a, isa.NoReg)
	t.keys[idx] = key + 1
	t.vals[idx] = int64(delta)
	t.Entries++
	return true
}

// mergeSortEmit sorts keys in place while emitting the compare/move
// traffic of a bottom-up merge sort between the simulated arrays at
// aBase and bBase (each len(keys)*8 bytes). It stops early when the
// emitter's budget runs out; the real sort still completes so callers
// get correct results.
func mergeSortEmit(e *trace.Emitter, keys []int64, aBase, bBase uint64) {
	n := len(keys)
	src := keys
	dst := make([]int64, n)
	sb, db := aBase, bBase
	for width := 1; width < n; width *= 2 {
		// One merge pass = one inner loop in the real code: a single
		// code address for every block of this pass.
		branchless := width < 16 // small runs sort with predicated min/max
		mergeTop := e.Here()
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j := lo, mid
			for k := lo; k < hi; k++ {
				takeLeft := j >= hi || (i < mid && src[i] <= src[j])
				if e.OK() {
					// Real record merges compare serialized keys, pick a
					// side, then move the record: the value copy
					// dominates the instruction count, as in a real
					// sort of sized records. Small runs use predicated
					// (branch-free) min/max, as tuned sorts do; larger
					// merges branch on the real comparison outcome.
					a := loadIdx(e, sb, i%n, 8, isa.NoReg)
					b := loadIdx(e, sb, j%n, 8, isa.NoReg)
					cmp := e.Int(isa.IntAlu, a, b)
					e.Int(isa.IntAlu, cmp, isa.NoReg)
					if branchless {
						e.Int(isa.IntAlu, cmp, a)
					} else {
						e.Branch(takeLeft, cmp)
					}
					src64 := sb
					if !takeLeft {
						src64 = db
					}
					mv := e.Fixed(7)
					for word := 0; word < 4; word++ {
						mv = e.LoadTo(mv, src64+uint64((k%n)*32+word*8), 8, isa.NoReg)
						e.Store(db+uint64((k%n)*32+word*8), 8, mv, isa.NoReg)
					}
					e.Int(isa.IntAddr, cmp, isa.NoReg)
					e.Int(isa.IntAddr, cmp, isa.NoReg)
					e.Loop(mergeTop, k+1 < hi, cmp)
				}
				if takeLeft {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
			}
		}
		src, dst = dst, src
		sb, db = db, sb
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// bsearchEmit performs a real binary search over keys for target,
// emitting the load+compare+branch of each step (the classic
// unpredictable-branch pattern of index lookups). It returns the
// insertion index.
func bsearchEmit(e *trace.Emitter, base uint64, keys []uint64, target uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		v := loadIdx(e, base, mid, 8, isa.NoReg)
		goRight := keys[mid] < target
		e.Branch(goRight, v)
		if goRight {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
