package datagen

// content.go holds the address-free halves of the dataset builders:
// pure record content, generated once per configuration through the
// artifact store and shared — read-only — by every workload run that
// binds it. Persisting the store (artifact.NewDisk) makes datasets
// survive across processes; generation order never affects simulated
// addresses because binding performs exactly the allocation sequence
// the original single-pass builders did.

import (
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/xrand"
)

var (
	storeMu    sync.Mutex
	storeOverr *artifact.Store

	generations atomic.Int64
)

// SetStore redirects dataset-content caching to s (pass a disk-backed
// store to persist datasets across processes; pass nil to return to
// the process-global default) and returns the previously active store.
func SetStore(s *artifact.Store) *artifact.Store {
	storeMu.Lock()
	defer storeMu.Unlock()
	prev := storeOverr
	if prev == nil {
		prev = artifact.Default()
	}
	storeOverr = s
	return prev
}

// Store returns the store dataset content caches in: the one SetStore
// installed, or the process-global default.
func Store() *artifact.Store {
	storeMu.Lock()
	defer storeMu.Unlock()
	if storeOverr != nil {
		return storeOverr
	}
	return artifact.Default()
}

// Generations reports how many dataset-content generations this
// process has actually executed — the probe behind "every dataset
// generates at most once per process, and not at all when a persisted
// store already holds it".
func Generations() int64 { return generations.Load() }

// fillContent routes one content build through the active store.
// Generators are deterministic and total, so errors (codec misuse,
// kind collisions) are programming errors and panic.
func fillContent[T any](kind string, cfg any, gen func() T) T {
	v, err := artifact.Get(Store(), artifact.KeyOf(kind, cfg), func() (T, error) {
		generations.Add(1)
		return gen(), nil
	})
	if err != nil {
		panic("datagen: " + err.Error())
	}
	return v
}

// TextContent is the record content of a Text corpus (everything but
// the simulated base address). Shared across runs; never mutate it.
type TextContent struct {
	Buf     []byte
	Lines   []Span
	WordIDs [][]int32
	Vocab   int
}

func textContent(cfg TextConfig) *TextContent {
	return fillContent("datagen-text", cfg, func() *TextContent {
		r := xrand.New(cfg.Seed)
		z := xrand.NewZipf(cfg.Vocab, cfg.ZipfS)
		t := &TextContent{Vocab: cfg.Vocab}
		t.Buf = make([]byte, 0, cfg.Lines*cfg.WordsPerLine*7)
		t.Lines = make([]Span, 0, cfg.Lines)
		t.WordIDs = make([][]int32, 0, cfg.Lines)
		for i := 0; i < cfg.Lines; i++ {
			start := int32(len(t.Buf))
			nw := cfg.WordsPerLine/2 + r.Intn(cfg.WordsPerLine)
			ids := make([]int32, 0, nw)
			for w := 0; w < nw; w++ {
				id := z.Sample(r)
				ids = append(ids, int32(id))
				if w > 0 {
					t.Buf = append(t.Buf, ' ')
				}
				t.Buf = appendWord(t.Buf, id)
			}
			t.Lines = append(t.Lines, Span{Start: start, End: int32(len(t.Buf))})
			t.WordIDs = append(t.WordIDs, ids)
		}
		return t
	})
}

// ReviewsContent is the labelling of a Reviews corpus.
type ReviewsContent struct {
	Labels     []int8
	NumClasses int
}

func reviewsContent(cfg TextConfig, classes int) *ReviewsContent {
	type key struct {
		Cfg     TextConfig
		Classes int
	}
	return fillContent("datagen-reviews", key{cfg, classes}, func() *ReviewsContent {
		t := textContent(cfg)
		r := xrand.New(cfg.Seed ^ 0xBA7E5)
		labels := make([]int8, len(t.Lines))
		for i := range labels {
			labels[i] = int8(r.Intn(classes))
		}
		return &ReviewsContent{Labels: labels, NumClasses: classes}
	})
}

// GraphContent is the CSR structure of a generated graph.
type GraphContent struct {
	N        int
	Off, Adj []int32
}

func graphContent(cfg GraphConfig) *GraphContent {
	return fillContent("datagen-graph", cfg, func() *GraphContent {
		r := xrand.New(cfg.Seed)
		n := cfg.Nodes
		m := cfg.AvgDegree
		// Endpoint pool for preferential attachment: targets are sampled
		// from previously used endpoints with probability 1/2, uniformly
		// otherwise, yielding a heavy-tailed in-degree distribution.
		pool := make([]int32, 0, n*m)
		edges := make([][]int32, n)
		for v := 0; v < n; v++ {
			deg := 1 + r.Intn(2*m)
			for e := 0; e < deg; e++ {
				var tgt int32
				if len(pool) > 0 && r.Bool(0.5) {
					tgt = pool[r.Intn(len(pool))]
				} else {
					tgt = int32(r.Intn(n))
				}
				edges[v] = append(edges[v], tgt)
				pool = append(pool, tgt, int32(v))
			}
		}
		g := &GraphContent{N: n}
		g.Off = make([]int32, n+1)
		for v := 0; v < n; v++ {
			g.Off[v+1] = g.Off[v] + int32(len(edges[v]))
		}
		g.Adj = make([]int32, g.Off[n])
		for v := 0; v < n; v++ {
			copy(g.Adj[g.Off[v]:], edges[v])
		}
		return g
	})
}

// PointsContent is the dense vector content of a Points dataset.
type PointsContent struct {
	N, Dim int
	X      []float32
}

func pointsContent(seed uint64, n, dim, k int) *PointsContent {
	type key struct {
		Seed      uint64
		N, Dim, K int
	}
	return fillContent("datagen-points", key{seed, n, dim, k}, func() *PointsContent {
		r := xrand.New(seed)
		centers := make([]float32, k*dim)
		for i := range centers {
			centers[i] = float32(r.NormFloat64() * 5)
		}
		p := &PointsContent{N: n, Dim: dim, X: make([]float32, n*dim)}
		for i := 0; i < n; i++ {
			c := r.Intn(k)
			for d := 0; d < dim; d++ {
				p.X[i*dim+d] = centers[c*dim+d] + float32(r.NormFloat64())
			}
		}
		return p
	})
}

// ColumnContent is one column's values; TableContent a full table.
type ColumnContent struct {
	Name string
	Vals []int64
}

// TableContent is the address-free half of a columnar Table.
type TableContent struct {
	Name string
	Rows int
	Cols []ColumnContent
}

// genTable builds one table's content with the same per-row generator
// contract newTable had: gen is called column-major, row-major within
// a column, off one shared RNG stream.
func genTable(name string, rows int, cols []string, gen func(r *xrand.Rand, col int, row int) int64, seed uint64) TableContent {
	r := xrand.New(seed)
	t := TableContent{Name: name, Rows: rows}
	for ci, cn := range cols {
		c := ColumnContent{Name: cn, Vals: make([]int64, rows)}
		for i := 0; i < rows; i++ {
			c.Vals[i] = gen(r, ci, i)
		}
		t.Cols = append(t.Cols, c)
	}
	return t
}

// ECommerceContent holds both transaction tables.
type ECommerceContent struct {
	Orders, Items TableContent
}

// TPCDSContent holds the star-schema subset.
type TPCDSContent struct {
	StoreSales, DateDim, Item, Customer TableContent
}

// KVContent is the sorted key set of a KVStore. The Zipf popularity
// sampler is rebuilt (and shared in-memory) at bind time — it is
// derived state, not content.
type KVContent struct {
	Keys []uint64
}

func kvContent(seed uint64, n int) *KVContent {
	type key struct {
		Seed uint64
		N    int
	}
	return fillContent("datagen-kv", key{seed, n}, func() *KVContent {
		r := xrand.New(seed)
		kv := &KVContent{Keys: make([]uint64, n)}
		next := uint64(1000)
		for i := 0; i < n; i++ {
			next += 1 + r.Uint64n(97)
			kv.Keys[i] = next
		}
		return kv
	})
}

// sharedZipf memoizes one immutable Zipf sampler per (n, s) in the
// active store's memory tier (Sample is read-only, so sharing across
// concurrent runs is safe; the table is cheap to rebuild, so it is
// never persisted).
func sharedZipf(n int, s float64) *xrand.Zipf {
	type key struct {
		N int
		S float64
	}
	z, err := artifact.GetMem(Store(), artifact.KeyOf("datagen-zipf", key{n, s}),
		func() (*xrand.Zipf, error) { return xrand.NewZipf(n, s), nil })
	if err != nil {
		panic("datagen: " + err.Error())
	}
	return z
}
