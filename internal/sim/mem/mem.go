// Package mem models the simulated flat address space shared by a
// workload, its software stack and the micro-architecture models.
//
// Nothing is ever stored at these addresses: the workload kernels keep
// their real data in ordinary Go values and use mem to assign each
// object a stable simulated address, so that the cache, TLB and
// footprint models observe realistic address streams (sequential scans
// over record buffers, pointer-chasing through simulated heap objects,
// code fetches spread over framework text segments).
package mem

// Geometry constants of the simulated machine.
const (
	// PageSize is the virtual memory page size (4 KB, matching the
	// paper's testbed kernel configuration).
	PageSize = 4096
	// LineSize is the cache line size at every level (64 B, Xeon E5645).
	LineSize = 64
)

// Address-space layout. The segments are widely separated so that code,
// heap and stack can never alias.
const (
	// CodeBase is the bottom of the text segment.
	CodeBase uint64 = 0x0000_0000_0040_0000
	// CodeLimit bounds total simulated code (32 MB is ample for the
	// largest stack plus kernels plus libraries).
	CodeLimit uint64 = CodeBase + 32<<20
	// HeapBase is the bottom of the simulated heap.
	HeapBase uint64 = 0x0000_0001_0000_0000
	// HeapLimit bounds the simulated heap (16 GB of address space).
	HeapLimit uint64 = HeapBase + 16<<30
)

// Layout is a bump allocator over the simulated address space.
// Each workload run owns one Layout; it is not safe for concurrent use.
type Layout struct {
	codeNext uint64
	heapNext uint64
}

// NewLayout returns an empty address-space layout.
func NewLayout() *Layout {
	return &Layout{codeNext: CodeBase, heapNext: HeapBase}
}

// Code reserves size bytes of text segment, aligned to a cache line,
// and returns the base address. It panics if the text segment is
// exhausted, which indicates a misconfigured stack model.
func (l *Layout) Code(size uint64) uint64 {
	base := align(l.codeNext, LineSize)
	if base+size > CodeLimit {
		panic("mem: text segment exhausted")
	}
	l.codeNext = base + size
	return base
}

// CodeUsed returns the number of text-segment bytes reserved so far.
func (l *Layout) CodeUsed() uint64 { return l.codeNext - CodeBase }

// Alloc reserves size bytes of heap, 16-byte aligned, and returns the
// base address. It panics when the simulated heap is exhausted.
func (l *Layout) Alloc(size uint64) uint64 {
	base := align(l.heapNext, 16)
	if base+size > HeapLimit {
		panic("mem: simulated heap exhausted")
	}
	l.heapNext = base + size
	return base
}

// AllocArray reserves an array of n elements of elem bytes each,
// aligned so that element 0 starts on a cache line, and returns the
// base address. Element i lives at base + uint64(i)*elem.
func (l *Layout) AllocArray(n int, elem uint64) uint64 {
	base := align(l.heapNext, LineSize)
	size := uint64(n) * elem
	if base+size > HeapLimit {
		panic("mem: simulated heap exhausted")
	}
	l.heapNext = base + size
	return base
}

// HeapUsed returns the number of heap bytes reserved so far.
func (l *Layout) HeapUsed() uint64 { return l.heapNext - HeapBase }

// LineOf returns the cache-line index of addr.
func LineOf(addr uint64) uint64 { return addr / LineSize }

// PageOf returns the page number of addr.
func PageOf(addr uint64) uint64 { return addr / PageSize }

func align(x, a uint64) uint64 {
	return (x + a - 1) &^ (a - 1)
}
