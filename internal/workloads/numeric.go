package workloads

import (
	"repro/internal/datagen"
	"repro/internal/sim/isa"
)

// KMeans clusters dense points; its inner loop is the paper's
// Algorithm 1: for each point, compute the distance to every center
// and keep the minimum — a small basic block full of conditional
// judgements, plus FP-array loads whose address arithmetic retires as
// the "FP address" integer class. The fixed trip count of the centers
// loop is exactly what the E5645's loop predictor captures and the
// D510's two-level predictor does not (Table 4).
type KMeans struct {
	N, Dim, K int
	Seed      uint64
}

// Name implements Kernel.
func (k *KMeans) Name() string { return "KMeans" }

// Run implements Kernel.
func (k *KMeans) Run(c *Ctx) {
	n, dim, kk := k.N, k.Dim, k.K
	if n == 0 {
		n, dim, kk = 20000, 8, 16
	}
	p := datagen.NewPoints(c.L, k.Seed^0x4B4D, n, dim, kk)
	cent := make([]float64, kk*dim)
	for i := range cent {
		cent[i] = float64(p.X[(i*7919)%len(p.X)])
	}
	assign := make([]int32, n)
	e, rt := c.E, c.RT
	c.CPUWeight = 15 // typical k-means iteration count at scale
	firstPass := true
	pointTop := e.Here()
	for e.OK() {
		rt.IterStart()
		for i := 0; i < n && e.OK(); i++ {
			if firstPass && i%2048 == 0 {
				rt.TaskStart()
			}
			if firstPass {
				rt.ReadRecord(dim * 4)
				c.Records++
				c.InBytes += uint64(dim * 4)
			}
			minDis := 1e300
			best := int32(0)
			acc := e.Fixed(1)
			acc2 := e.Fixed(2)
			centersTop := e.Here()
			for ci := 0; ci < kk; ci++ {
				// dis = ComputeDist(instance, centers[ci]); two
				// independent accumulators, as compiled SSE code keeps.
				var dis float64
				for d := 0; d < dim; d += 2 {
					a := loadFPIdx(e, p.Base, i*dim+d, 4, isa.NoReg)
					b := loadFPIdx(e, p.CentBase, ci*dim+d, 4, isa.NoReg)
					df := e.FP(isa.FPArith, a, b) // sub
					if d%4 == 0 {
						e.FPTo(acc, isa.FPArith, acc, df)
					} else {
						e.FPTo(acc2, isa.FPArith, acc2, df)
					}
					e.Int(isa.IntAlu, df, isa.NoReg) // index/bounds
					x := float64(p.X[i*dim+d]) - cent[ci*dim+d]
					y := float64(p.X[i*dim+d+1]) - cent[ci*dim+d+1]
					dis += x*x + y*y
				}
				sum := e.FP(isa.FPArith, acc, acc2)
				lt := dis < minDis
				e.Branch(lt, sum) // if dis < minDis (Algorithm 1 line 6)
				if lt {
					minDis = dis
					best = int32(ci)
				}
				e.Loop(centersTop, ci+1 < kk, acc)
			}
			assign[i] = best
			storeIdx(e, p.AssignBase, i, 4, acc)
			if firstPass {
				c.InterBytes += uint64(dim * 4)
			}
			e.Loop(pointTop, i+1 < n, acc)
		}
		// Center recomputation (streaming pass over the centroids).
		recompTop := e.Here()
		for ci := 0; ci < kk*dim && e.OK(); ci += 4 {
			v := loadFPIdx(e, p.CentBase, ci, 8, isa.NoReg)
			e.FPTo(e.Fixed(3), isa.FPArith, e.Fixed(3), v)
			storeFPIdx(e, p.CentBase, ci, 8, v)
			e.Loop(recompTop, ci+4 < kk*dim, v)
		}
		rt.Shuffle(kk * dim * 8)
		c.OutBytes = c.InBytes // cluster-tagged points
		firstPass = false
	}
}

// PageRank iterates rank propagation over a CSR web graph: sequential
// edge streaming with scattered accumulations into the next-rank
// array, and a divide per vertex ("used by Google to score the
// importance of the web page" — Table 2). Output>Input because ranks
// are emitted every iteration.
type PageRank struct {
	Cfg datagen.GraphConfig
}

// Name implements Kernel.
func (k *PageRank) Name() string { return "PageRank" }

// Run implements Kernel.
func (k *PageRank) Run(c *Ctx) {
	g := datagen.NewGraph(c.L, k.Cfg)
	rank := make([]float64, g.N)
	next := make([]float64, g.N)
	for i := range rank {
		rank[i] = 1 / float64(g.N)
	}
	e, rt := c.E, c.RT
	c.CPUWeight = 15 // PageRank iterations to convergence at scale
	firstPass := true
	vertTop := e.Here()
	for e.OK() {
		rt.IterStart()
		for v := 0; v < g.N && e.OK(); v++ {
			if firstPass && v%4096 == 0 {
				rt.TaskStart()
			}
			if firstPass {
				c.Records++
				c.InBytes += uint64(g.Off[v+1]-g.Off[v])*4 + 12
			}
			lo := loadIdx(e, g.OffBase, v, 4, isa.NoReg)
			hi := loadIdx(e, g.OffBase, v+1, 4, isa.NoReg)
			rv := loadFPIdx(e, g.RankBase, v, 8, isa.NoReg)
			deg := int(g.Off[v+1] - g.Off[v])
			e.Int(isa.IntAlu, lo, hi)
			contrib := e.FP(isa.FPDiv, rv, isa.NoReg) // rank/deg
			share := 0.0
			if deg > 0 {
				share = rank[v] / float64(deg)
			}
			edgeTop := e.Here()
			for ei := g.Off[v]; ei < g.Off[v+1] && e.OK(); ei++ {
				tgt := loadIdx(e, g.AdjBase, int(ei), 4, contrib)
				t := int(g.Adj[ei])
				old := loadFPIdx(e, g.NextBase, t, 8, tgt)
				s := e.FPTo(old, isa.FPArith, old, contrib)
				storeFPIdx(e, g.NextBase, t, 8, s)
				next[t] += share
				// PageRank on a data-flow engine emits one (target,
				// contribution) pair per edge into the shuffle.
				rt.EmitKV(12)
				e.Loop(edgeTop, ei+1 < g.Off[v+1], tgt)
			}
			e.Loop(vertTop, v+1 < g.N, contrib)
		}
		// Swap + damping pass.
		swapTop := e.Here()
		for v := 0; v < g.N && e.OK(); v += 4 {
			nv := loadFPIdx(e, g.NextBase, v, 8, isa.NoReg)
			d := e.FP(isa.FPArith, nv, isa.NoReg)
			storeFPIdx(e, g.RankBase, v, 8, d)
			e.Loop(swapTop, v+4 < g.N, d)
		}
		for v := range next {
			rank[v] = 0.15/float64(g.N) + 0.85*next[v]
			next[v] = 0
		}
		rt.Shuffle(g.N * 8)
		c.InterBytes += uint64(g.N * 8)
		c.OutBytes += uint64(g.N * 12)
		firstPass = false
	}
}

// BFS performs level-synchronous breadth-first search over the graph
// (frontier queue + visited bitmap: irregular loads, very branchy).
type BFS struct {
	Cfg datagen.GraphConfig
}

// Name implements Kernel.
func (k *BFS) Name() string { return "BFS" }

// Run implements Kernel.
func (k *BFS) Run(c *Ctx) {
	g := datagen.NewGraph(c.L, k.Cfg)
	visitedBase := c.L.AllocArray(g.N, 1)
	frontierBase := c.L.AllocArray(g.N, 4)
	e, rt := c.E, c.RT
	root := 0
	firstPass := true
	for e.OK() {
		rt.TaskStart()
		visited := make([]bool, g.N)
		frontier := []int32{int32(root)}
		visited[root] = true
		for len(frontier) > 0 && e.OK() {
			var nextF []int32
			for _, v := range frontier {
				if !e.OK() {
					break
				}
				c.Records++
				if firstPass {
					c.InBytes += uint64(g.Off[v+1]-g.Off[v])*4 + 8
				}
				loadIdx(e, frontierBase, int(v)%g.N, 4, isa.NoReg)
				edgeTop := e.Here()
				for ei := g.Off[v]; ei < g.Off[v+1]; ei++ {
					t := g.Adj[ei]
					tv := loadIdx(e, g.AdjBase, int(ei), 4, isa.NoReg)
					vis := loadIdx(e, visitedBase, int(t), 1, tv)
					seen := visited[t]
					e.Branch(seen, vis) // visited test: data-dependent
					if !seen {
						visited[t] = true
						storeIdx(e, visitedBase, int(t), 1, vis)
						nextF = append(nextF, t)
						c.InterBytes += 4
					}
					e.Loop(edgeTop, ei+1 < g.Off[v+1], tv)
				}
			}
			frontier = nextF
			rt.Shuffle(len(frontier) * 4)
		}
		c.OutBytes += uint64(g.N * 4)
		root = (root + 17) % g.N
		firstPass = false
	}
}

// ConnectedComponents runs label propagation until stable: like
// PageRank's traffic but with integer min-label compares.
type ConnectedComponents struct {
	Cfg datagen.GraphConfig
}

// Name implements Kernel.
func (k *ConnectedComponents) Name() string { return "ConnectedComponents" }

// Run implements Kernel.
func (k *ConnectedComponents) Run(c *Ctx) {
	g := datagen.NewGraph(c.L, k.Cfg)
	labelBase := c.L.AllocArray(g.N, 4)
	label := make([]int32, g.N)
	for i := range label {
		label[i] = int32(i)
	}
	e, rt := c.E, c.RT
	c.CPUWeight = 10 // label-propagation rounds at scale
	firstPass := true
	vertTop := e.Here()
	for e.OK() {
		rt.IterStart()
		changed := false
		for v := 0; v < g.N && e.OK(); v++ {
			c.Records++
			if firstPass {
				c.InBytes += uint64(g.Off[v+1]-g.Off[v])*4 + 8
			}
			loadIdx(e, labelBase, v, 4, isa.NoReg)
			edgeTop := e.Here()
			for ei := g.Off[v]; ei < g.Off[v+1] && e.OK(); ei++ {
				t := int(g.Adj[ei])
				tv := loadIdx(e, g.AdjBase, int(ei), 4, isa.NoReg)
				lt := loadIdx(e, labelBase, t, 4, tv)
				smaller := label[t] < label[v]
				e.Branch(smaller, lt)
				if smaller {
					label[v] = label[t]
					storeIdx(e, labelBase, v, 4, lt)
					changed = true
				}
				e.Loop(edgeTop, ei+1 < g.Off[v+1], tv)
			}
			e.Loop(vertTop, v+1 < g.N, isa.NoReg)
		}
		rt.Shuffle(g.N * 4)
		c.InterBytes += uint64(g.N * 4)
		firstPass = false
		if !changed {
			c.OutBytes = uint64(g.N * 8)
		}
	}
	if c.OutBytes == 0 {
		c.OutBytes = uint64(g.N * 8)
	}
}

// CollabFilter is an item-based collaborative-filtering scoring pass
// (sparse dot products over a ratings matrix).
type CollabFilter struct {
	Users, Items int
	Seed         uint64
}

// Name implements Kernel.
func (k *CollabFilter) Name() string { return "CollabFilter" }

// Run implements Kernel.
func (k *CollabFilter) Run(c *Ctx) {
	users, items := k.Users, k.Items
	if users == 0 {
		users, items = 4000, 2000
	}
	perUser := 24
	ratingsBase := c.L.AllocArray(users*perUser, 8)
	scoreBase := c.L.AllocArray(items, 8)
	e, rt := c.E, c.RT
	userTop := e.Here()
	for e.OK() {
		for u := 0; u < users && e.OK(); u++ {
			if u%1024 == 0 {
				rt.TaskStart()
			}
			rt.ReadRecord(perUser * 8)
			c.Records++
			c.InBytes += uint64(perUser * 8)
			acc := e.Fixed(1)
			dotTop := e.Here()
			for r := 0; r < perUser; r++ {
				it := (u*31 + r*17) % items
				rv := loadFPIdx(e, ratingsBase, u*perUser+r, 8, isa.NoReg)
				sv := loadFPIdx(e, scoreBase, it, 8, rv)
				m := e.FP(isa.FPArith, rv, sv)
				e.FPTo(acc, isa.FPArith, acc, m)
				e.Loop(dotTop, r+1 < perUser, m)
			}
			storeFPIdx(e, scoreBase, u%items, 8, acc)
			rt.EmitKV(16)
			c.InterBytes += 16
			e.Loop(userTop, u+1 < users, acc)
		}
		c.OutBytes = uint64(items * 16)
	}
}
