package suites

import (
	"repro/internal/datagen"
	"repro/internal/sim/isa"
	"repro/internal/sim/trace"
	"repro/internal/stack"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// cloudService is the CloudSuite service-stack model: even larger and
// colder request paths than HBase (Java service frameworks plus the
// full web/serving middleware), which is what drives CloudSuite's
// average L1I MPKI of 32 in the paper's Fig. 4.
func cloudService() stack.Descriptor {
	d := stack.HBase()
	d.Name = "CloudService"
	d.CodeKB = 3072
	d.ColdFrac = 0.68
	d.ColdZipfS = 1.25
	d.RequestInsts = 6200
	return d
}

// CloudSuite returns the six scale-out workloads of CloudSuite 1.0
// (§4.3): data serving, web search, media streaming, web serving,
// graph analytics (MapReduce-based in 1.0) and data analytics
// (a Hadoop Mahout classifier).
func CloudSuite() []workloads.Workload {
	svc := cloudService()
	return []workloads.Workload{
		{
			ID: "CS-DataServing",
			Kernel: &workloads.HBaseRead{
				Scale: workloads.KVScale{Records: 50000, ValBytes: 1024, Seed: 0xCA55},
			},
			Stack: svc, Category: workloads.Service, DataSet: "YCSB-like store",
		},
		{
			ID:     "CS-WebSearch",
			Kernel: workloads.KernelFunc{KernelName: "WebSearch", F: webSearch},
			Stack:  svc, Category: workloads.Service, DataSet: "Nutch-like index",
		},
		{
			ID:     "CS-MediaStreaming",
			Kernel: workloads.KernelFunc{KernelName: "MediaStreaming", F: mediaStream},
			Stack:  svc, Category: workloads.Service, DataSet: "video segments",
		},
		{
			ID:     "CS-WebServing",
			Kernel: workloads.KernelFunc{KernelName: "WebServing", F: webServe},
			Stack:  svc, Category: workloads.Service, DataSet: "Olio-like pages",
		},
		{
			ID:     "CS-GraphAnalytics",
			Kernel: &workloads.PageRank{Cfg: cloudGraph()},
			Stack:  stack.Hadoop(), Category: workloads.DataAnalysis, DataSet: "TunkRank graph",
		},
		{
			ID:     "CS-DataAnalytics",
			Kernel: &workloads.NaiveBayes{Cfg: cloudText(), Classes: 5},
			Stack:  stack.Hadoop(), Category: workloads.DataAnalysis, DataSet: "Mahout corpus",
		},
	}
}

func cloudGraph() datagen.GraphConfig {
	return datagen.GraphConfig{Nodes: 6000, AvgDegree: 7, Seed: 0xC10}
}

func cloudText() datagen.TextConfig {
	cfg := datagen.DefaultWiki()
	cfg.Seed = 0xC1D
	cfg.Lines = 3000
	return cfg
}

// webSearch scores postings against a query: posting-list scans with
// per-hit scoring FP and an accumulator heap — index-serving shape.
func webSearch(c *workloads.Ctx) {
	postings := c.L.AllocArray(1<<21, 4)
	scores := c.L.AllocArray(8192, 8)
	e, rt := c.E, c.RT
	reqTop := e.Here()
	for e.OK() {
		rt.Request(512)
		c.Records++
		start := c.Rng.Intn(1 << 20)
		n := 64 + c.Rng.Intn(192)
		scanTop := e.Here()
		for i := 0; i < n && e.OK(); i++ {
			d := loadIdxS(e, postings, start+i, 4)
			sc := e.FP(isa.FPArith, d, isa.NoReg)
			slot := int(xrand.Hash64(uint64(start+i)) % 8192)
			old := loadIdxS(e, scores, slot, 8)
			s2 := e.FPTo(old, isa.FPArith, old, sc)
			e.Store(scores+uint64(slot)*8, 8, s2, isa.NoReg)
			hit := i%13 == 0
			e.Branch(hit, s2)
			e.Loop(scanTop, i+1 < n, d)
		}
		c.InBytes += uint64(n * 4)
		c.OutBytes += 512
		e.Loop(reqTop, true, isa.NoReg)
	}
}

// mediaStream pumps segment bytes through protocol framing: long
// sequential copies with light per-packet branching.
func mediaStream(c *workloads.Ctx) {
	segs := c.L.Alloc(64 << 20)
	out := c.L.Alloc(1 << 20)
	e, rt := c.E, c.RT
	pos := uint64(0)
	reqTop := e.Here()
	for e.OK() {
		rt.Request(1400)
		c.Records++
		cpTop := e.Here()
		for b := 0; b < 1400 && e.OK(); b += 16 {
			v := e.Load(segs+(pos+uint64(b))%(64<<20), 8, isa.NoReg)
			e.Store(out+uint64(b%(1<<20)), 8, v, isa.NoReg)
			e.Loop(cpTop, b+16 < 1400, v)
		}
		e.Branch(pos%7000 < 1400, isa.NoReg) // segment boundary check
		pos += 1400
		c.InBytes += 1400
		c.OutBytes += 1400
		e.Loop(reqTop, true, isa.NoReg)
	}
}

// webServe renders dynamic pages: interpreter dispatch over a huge
// code image with session-state lookups.
func webServe(c *workloads.Ctx) {
	state := c.L.Alloc(16 << 20)
	interp := trace.NewRoutine(c.L, "php/ops", 1<<20)
	st := trace.Stream{
		Mix: trace.Mix{Load: 0.28, Store: 0.11, Branch: 0.21, IntAddr: 0.21,
			Taken: 0.32, Noise: 0.03, Chain: 0.4, CallEvery: 28},
		Pri: trace.NewRandomWalk(state, 2<<20),
		Rng: c.Rng,
	}
	e, rt := c.E, c.RT
	for e.OK() {
		rt.Request(2048)
		c.Records++
		off := uint64(c.Rng.Intn(64)) * (interp.Size / 64)
		st.Emit(e, interp, off, 1500)
		c.OutBytes += 2048
	}
}

func loadIdxS(e *trace.Emitter, base uint64, idx int, elem uint64) isa.Reg {
	a := e.Int(isa.IntAddr, isa.NoReg, isa.NoReg)
	return e.Load(base+uint64(idx)*elem, uint8(elem), a)
}

// TPCC returns the OLTP comparator (§4.3: tpcc-uva): New-Order and
// Payment transactions over B-tree tables — index descents, row
// updates and redo logging. The paper singles out its very high branch
// ratio (30%).
func TPCC() []workloads.Workload {
	return []workloads.Workload{
		{
			ID:     "TPC-C",
			Kernel: workloads.KernelFunc{KernelName: "tpcc", F: tpccTxns},
			Stack:  stack.MySQL(), Category: workloads.Service, DataSet: "TPC-C tables",
		},
	}
}

func tpccTxns(c *workloads.Ctx) {
	const rows = 1 << 17
	items := c.L.AllocArray(rows, 64)
	stock := c.L.AllocArray(rows, 64)
	custs := c.L.AllocArray(rows, 64)
	wal := c.L.Alloc(16 << 20)
	keys := make([]uint64, rows)
	for i := range keys {
		keys[i] = uint64(i * 7)
	}
	keysBase := c.L.AllocArray(rows, 8)
	e, rt := c.E, c.RT
	walOff := uint64(0)
	txnTop := e.Here()
	for e.OK() {
		rt.Request(256)
		c.Records++
		// New-Order: ~10 item lookups, each a B-tree descent plus a
		// stock row update; then customer read and log append.
		nItems := 5 + c.Rng.Intn(10)
		itemTop := e.Here()
		for it := 0; it < nItems && e.OK(); it++ {
			key := keys[c.Rng.Intn(rows)]
			at := bsearchEmitS(e, keysBase, keys, key)
			iv := e.Load(items+uint64(at%rows)*64, 8, isa.NoReg)
			qty := e.Load(stock+uint64(at%rows)*64, 8, iv)
			ok := it%9 != 8 // stock check branch
			e.Branch(ok, qty)
			q2 := e.IntTo(qty, isa.IntAlu, qty, isa.NoReg)
			e.Store(stock+uint64(at%rows)*64, 8, q2, isa.NoReg)
			e.Loop(itemTop, it+1 < nItems, q2)
		}
		cv := e.Load(custs+uint64(c.Rng.Intn(rows))*64, 8, isa.NoReg)
		e.Int(isa.IntAlu, cv, isa.NoReg)
		logTop := e.Here()
		for b := 0; b < 256 && e.OK(); b += 32 {
			e.Store(wal+(walOff+uint64(b))%(16<<20), 8, cv, isa.NoReg)
			e.Loop(logTop, b+32 < 256, cv)
		}
		walOff += 256
		c.InBytes += 64 * uint64(nItems)
		c.OutBytes += 256
		e.Loop(txnTop, true, cv)
	}
}

// bsearchEmitS is a local binary search emission (the workloads
// package's helper is unexported).
func bsearchEmitS(e *trace.Emitter, base uint64, keys []uint64, target uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		a := e.Int(isa.IntAddr, isa.NoReg, isa.NoReg)
		v := e.Load(base+uint64(mid)*8, 8, a)
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
