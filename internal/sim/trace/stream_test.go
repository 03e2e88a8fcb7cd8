package trace

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim/isa"
	"repro/internal/sim/mem"
	"repro/internal/xrand"
)

// cascadeEmit is the float32 class cascade Stream.Emit replaced: the
// reference its integer slot tables must reproduce bit for bit. It
// hashes the PC for every instruction and again for every branch, and
// emits through the Emitter's per-class methods.
func cascadeEmit(s *Stream, e *Emitter, rtn *Routine, off uint64, n int) {
	if n <= 0 {
		return
	}
	e.rtn = rtn
	e.pc = rtn.Base + (off % rtn.Size &^ (isa.InstBytes - 1))
	m := &s.Mix
	addr := func() uint64 {
		if s.Far != nil && s.Rng.Float32() < s.FarP {
			return s.Far.Next(s.Rng)
		}
		if s.Sec != nil && s.Rng.Float32() < s.SecP {
			return s.Sec.Next(s.Rng)
		}
		if s.Pri == nil {
			return 0
		}
		return s.Pri.Next(s.Rng)
	}
	var last isa.Reg = isa.NoReg
	sinceCall := 0
	for i := 0; i < n && e.OK(); i++ {
		if m.CallEvery > 0 {
			sinceCall++
			if sinceCall >= m.CallEvery {
				sinceCall = 0
				tgt := rtn.Base + (xrand.Hash64(e.pc)%rtn.Size)&^(isa.InstBytes-1)
				e.put(isa.Branch, isa.BrIndirectJump, true, e.pc, 0, tgt, 0, isa.NoReg, last, isa.NoReg)
				e.pc = tgt
				continue
			}
		}
		r := float32(xrand.Hash64(e.pc^0xC0DE)&0xFFFF) / 65536
		src1 := isa.NoReg
		if s.Rng.Float32() < m.Chain {
			src1 = last
		}
		switch {
		case r < m.Load:
			last = e.Load(addr(), 8, src1)
		case r < m.Load+m.Store:
			e.Store(addr(), 8, last, src1)
		case r < m.Load+m.Store+m.Branch:
			h := xrand.Hash64(e.pc)
			taken := float32(h&0xFFFF)/65536 < m.Taken
			if m.Noise > 0 && s.Rng.Float32() < m.Noise {
				taken = s.Rng.Uint64()&1 == 0
			}
			skip := 1 + int(h>>16)%6
			if h%10 == 0 {
				skip = 24 + int(h>>20)%40
			}
			target := e.pc + uint64((skip+1)*isa.InstBytes)
			e.put(isa.Branch, isa.BrCond, taken, e.pc, 0, target, 0, isa.NoReg, src1, isa.NoReg)
			if taken {
				e.pc = target
			} else {
				e.pc += isa.InstBytes
			}
			if e.pc >= rtn.End() {
				e.pc = rtn.Base
			}
		case r < m.Load+m.Store+m.Branch+m.IntAddr:
			last = e.Int(isa.IntAddr, src1, isa.NoReg)
		case r < m.Load+m.Store+m.Branch+m.IntAddr+m.FPAddr:
			last = e.Int(isa.FPAddr, src1, isa.NoReg)
		case r < m.Load+m.Store+m.Branch+m.IntAddr+m.FPAddr+m.FPArith:
			last = e.FP(isa.FPArith, src1, isa.NoReg)
		case r < m.Load+m.Store+m.Branch+m.IntAddr+m.FPAddr+m.FPArith+m.IntMul:
			last = e.Int(isa.IntMul, src1, isa.NoReg)
		case r < m.Load+m.Store+m.Branch+m.IntAddr+m.FPAddr+m.FPArith+m.IntMul+m.IntDiv:
			last = e.Int(isa.IntDiv, src1, isa.NoReg)
		default:
			last = e.Int(isa.IntAlu, src1, isa.NoReg)
		}
	}
}

// emitCase is one stream configuration of the differential test.
type emitCase struct {
	mix        Mix
	secP, farP float32
	far, sec   bool
	farIsPri   bool
	noPri      bool
	rtnSize    uint64
}

// runEmit drives emit over c: several calls at varying offsets and
// lengths, interleaved with semantic emission, into an emitter of the
// given block size (0: per instruction) and budget. It returns the
// delivered stream and the emitter and generator state left behind.
func runEmit(c emitCase, emit func(*Stream, *Emitter, *Routine, uint64, int), blockSize int, budget int64) ([]isa.Inst, [4]uint64) {
	p := &seqProbe{}
	var e *Emitter
	if blockSize == 0 {
		e = NewEmitter(p, budget)
	} else {
		e = NewBlockEmitter(p, budget, blockSize)
	}
	l := mem.NewLayout()
	rtn := NewRoutine(l, "fw", c.rtnSize)
	kernel := NewRoutine(l, "k", 4<<10)
	heap := l.Alloc(8 << 20)
	s := Stream{Mix: c.mix, SecP: c.secP, FarP: c.farP, Rng: xrand.New(11)}
	if !c.noPri {
		s.Pri = NewWalk(heap, 64<<10, 16)
	}
	if c.far {
		s.Far = NewClusterWalk(heap+(1<<20), 4<<20, 256, 16)
		if c.farIsPri {
			s.Far = s.Pri
		}
	}
	if c.sec {
		s.Sec = NewRandomWalk(heap+(128<<10), 32<<10)
	}
	e.Enter(kernel)
	for i := 0; e.OK() && i < 400; i++ {
		e.Load(heap, 8, isa.NoReg)
		emit(&s, e, rtn, uint64(i)*4093, 1+i*37%700)
		e.Enter(kernel)
		e.IntN(2)
	}
	e.Flush()
	return p.insts, [4]uint64{e.pc, uint64(e.nextReg), e.emitted, s.Rng.State()}
}

// TestEmitMatchesCascade checks Stream.Emit against the float32
// cascade it replaced, instruction by instruction and in the state it
// leaves behind, over mixes with edge fractions (NaN, negative, above
// one, sums past one), indirect hops, every walk combination, routine
// sizes that are not a multiple of the instruction size, both delivery
// paths and budgets that end mid-stream.
func TestEmitMatchesCascade(t *testing.T) {
	nan := float32(math.NaN())
	jvm := Mix{Load: 0.28, Store: 0.12, Branch: 0.20, IntAddr: 0.28, IntMul: 0.010, IntDiv: 0.002, Taken: 0.28, Noise: 0.01, Chain: 0.35}
	cases := []emitCase{
		{mix: jvm, secP: 0.12, farP: 0.02, far: true, sec: true, rtnSize: 16 << 10},
		{mix: jvm, secP: 0.12, farP: 0.02, far: true, sec: true, farIsPri: true, rtnSize: 40 << 10},
		{mix: Mix{Load: 0.27, Store: 0.1, Branch: 0.19, IntAddr: 0.23, Taken: 0.3, Noise: 0.03, Chain: 0.35, CallEvery: 40}, rtnSize: 768 << 10},
		{mix: Mix{Load: 0.24, Store: 0.08, Branch: 0.14, IntAddr: 0.05, FPAddr: 0.12, FPArith: 0.3, Taken: 0.4, Noise: 0.06, Chain: 0.4, CallEvery: 1}, rtnSize: 1 << 10},
		{mix: Mix{Load: 0.5, Store: 0.6, Branch: 0.3, Taken: 1.5, Noise: 2, Chain: 1}, sec: true, secP: 1, noPri: true, rtnSize: 4<<10 + 6},
		{mix: Mix{Load: -0.1, Store: 0.3, Branch: nan, IntAddr: 0.2, FPAddr: 0.1, IntMul: 0.1, IntDiv: 0.1, Taken: nan, Noise: nan, Chain: nan}, far: true, farP: nan, rtnSize: 6},
		{mix: Mix{Branch: 1, Taken: 0.5, Noise: 0.5, Chain: 0.5}, rtnSize: 256 << 10},
		{mix: Mix{Branch: 0.9, Taken: 1e-30, Noise: 1e-30, Chain: -1, CallEvery: -3}, rtnSize: 2 << 10},
		{mix: Mix{Load: 0.2, Branch: 0.5, Taken: 0.3, Chain: 0.2}, rtnSize: 8 << 10},
		{mix: Mix{}, far: true, sec: true, rtnSize: 100},
	}
	for ci, c := range cases {
		for _, bs := range []int{0, 1, 7, DefaultBlockSize} {
			for _, budget := range []int64{20_000, 7_777} {
				want, wantState := runEmit(c, cascadeEmit, bs, budget)
				got, gotState := runEmit(c, (*Stream).Emit, bs, budget)
				if !slices.Equal(got, want) {
					t.Fatalf("case %d, block %d, budget %d: stream differs from the cascade", ci, bs, budget)
				}
				if gotState != wantState {
					t.Fatalf("case %d, block %d, budget %d: state %v, cascade %v", ci, bs, budget, gotState, wantState)
				}
			}
		}
	}
}

// cutValues are the fractions every cut point is checked at: zero,
// one, negative, NaN, infinities, and each side of several k/65536.
func cutValues() []float32 {
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -0.5, -1, float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)), 2, math.SmallestNonzeroFloat32}
	for _, k := range []float32{1, 2, 3, 255, 256, 4095, 4096, 6554, 13107, 32767, 32768, 52429, 65535, 65536} {
		c := k / 65536
		vals = append(vals, c, math.Nextafter32(c, 0), math.Nextafter32(c, 2))
	}
	return vals
}

// checkCut checks cutPoint(c, bits) against the float comparison the
// Rand.Float32 and PC-hash draws make. The comparison is monotone in
// v, so it agrees for every v below 2^bits exactly when it agrees on
// either side of the cut; 16-bit cuts are also checked at every v.
func checkCut(t *testing.T, c float32, bits uint) {
	t.Helper()
	scale := float32(uint64(1) << bits)
	below := func(v uint64) bool { return float32(v)/scale < c }
	cut := uint64(cutPoint(c, bits))
	if cut > 1<<bits {
		t.Fatalf("cutPoint(%g, %d) = %d, past 2^%d", c, bits, cut, bits)
	}
	if cut > 0 && !below(cut-1) || cut < 1<<bits && below(cut) {
		t.Fatalf("cutPoint(%g, %d) = %d disagrees with the float comparison at its edge", c, bits, cut)
	}
	if bits == 16 {
		for v := uint64(0); v < 1<<16; v++ {
			if below(v) != (v < cut) {
				t.Fatalf("cutPoint(%g, 16) = %d disagrees at hash %d", c, cut, v)
			}
		}
	}
}

// committedMixes parses every trace.Mix literal in the stack and
// suites packages, with each field rounded to float32 as the compiler
// rounds it.
func committedMixes(t *testing.T) []Mix {
	t.Helper()
	var files []string
	for _, dir := range []string{"../../stack", "../../suites"} {
		m, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	fset := token.NewFileSet()
	var mixes []Mix
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if sel, ok := lit.Type.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Mix" {
				return true
			}
			var m Mix
			mv := reflect.ValueOf(&m).Elem()
			for _, el := range lit.Elts {
				kv := el.(*ast.KeyValueExpr)
				field := mv.FieldByName(kv.Key.(*ast.Ident).Name)
				bl, ok := kv.Value.(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s: Mix field %s is not a literal", fset.Position(kv.Pos()), kv.Key)
				}
				v := constant.MakeFromLiteral(bl.Value, bl.Kind, 0)
				if field.Kind() == reflect.Int {
					i, _ := constant.Int64Val(v)
					field.SetInt(i)
				} else {
					f, _ := constant.Float32Val(constant.ToFloat(v))
					field.SetFloat(float64(f))
				}
			}
			mixes = append(mixes, m)
			return true
		})
	}
	if len(mixes) < 10 {
		t.Fatalf("found only %d Mix literals", len(mixes))
	}
	return mixes
}

// TestCutPointsMatchFloatComparisons checks that every integer cut
// point agrees with the float32 comparison it replaces: at the edge
// values, at every committed Mix's fractions, and for every committed
// Mix's full class assignment over all 16-bit PC hashes.
func TestCutPointsMatchFloatComparisons(t *testing.T) {
	for _, c := range cutValues() {
		checkCut(t, c, 16)
		checkCut(t, c, 24)
	}
	for _, p := range []float32{0.12, 0.020, 0.008} { // the stack runtime's SecP and FarP
		checkCut(t, p, 24)
	}
	for _, m := range committedMixes(t) {
		checkCut(t, m.Taken, 16)
		checkCut(t, m.Noise, 24)
		checkCut(t, m.Chain, 24)
		c := newCuts(m, 0, 0)
		for v := uint32(0); v < 1<<16; v++ {
			r := float32(v) / 65536
			want := isa.IntAlu
			switch {
			case r < m.Load:
				want = isa.Load
			case r < m.Load+m.Store:
				want = isa.Store
			case r < m.Load+m.Store+m.Branch:
				want = isa.Branch
			case r < m.Load+m.Store+m.Branch+m.IntAddr:
				want = isa.IntAddr
			case r < m.Load+m.Store+m.Branch+m.IntAddr+m.FPAddr:
				want = isa.FPAddr
			case r < m.Load+m.Store+m.Branch+m.IntAddr+m.FPAddr+m.FPArith:
				want = isa.FPArith
			case r < m.Load+m.Store+m.Branch+m.IntAddr+m.FPAddr+m.FPArith+m.IntMul:
				want = isa.IntMul
			case r < m.Load+m.Store+m.Branch+m.IntAddr+m.FPAddr+m.FPArith+m.IntMul+m.IntDiv:
				want = isa.IntDiv
			}
			got := isa.IntAlu
			for j, cut := range c.class {
				if v < cut {
					got = classOps[j]
					break
				}
			}
			if got != want {
				t.Fatalf("mix %+v: hash %d classed %v by cut points, %v by the cascade", m, v, got, want)
			}
		}
	}
}

// TestSlotTableConcurrentFirstUse has several goroutines emit into one
// routine whose slot table does not exist yet, all at once: under
// -race this checks the table is built and published without a data
// race, and every goroutine must still emit the cascade's stream.
func TestSlotTableConcurrentFirstUse(t *testing.T) {
	// A base no workload layout uses, so the table is built here.
	rtn := &Routine{Name: "shared", Base: 0x7e57_0000_0000, Size: 24 << 10}
	mix := Mix{Load: 0.28, Store: 0.12, Branch: 0.20, IntAddr: 0.28, Taken: 0.28, Noise: 0.01, Chain: 0.35}
	emit := func(f func(*Stream, *Emitter, *Routine, uint64, int)) []isa.Inst {
		p := &seqProbe{}
		e := NewBlockEmitter(p, 20_000, 512)
		s := Stream{Mix: mix, Pri: NewWalk(mem.HeapBase, 1<<16, 16), Rng: xrand.New(3)}
		for e.OK() {
			f(&s, e, rtn, e.Emitted()*12, 300)
		}
		e.Flush()
		return p.insts
	}
	const goroutines = 8
	got := make([][]isa.Inst, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g] = emit((*Stream).Emit)
		}()
	}
	close(start)
	wg.Wait()
	want := emit(cascadeEmit)
	for g := range got {
		if !slices.Equal(got[g], want) {
			t.Fatalf("goroutine %d emitted a different stream", g)
		}
	}
}

// BenchmarkStreamEmit is Stream.Emit alone: a JVM stack's framework
// mix, with its secondary and far walks, over one hot 40 KB routine
// into a block probe that discards the blocks.
func BenchmarkStreamEmit(b *testing.B) {
	l := mem.NewLayout()
	rtn := NewRoutine(l, "hot", 40<<10)
	heap := l.Alloc(8 << 20)
	s := Stream{
		Mix: Mix{Load: 0.28, Store: 0.12, Branch: 0.20, IntAddr: 0.28, IntMul: 0.010, IntDiv: 0.002,
			Taken: 0.28, Noise: 0.01, Chain: 0.35},
		Pri: NewWalk(heap, 16<<10, 16), Sec: NewRandomWalk(heap+(64<<10), 32<<10), SecP: 0.12,
		Far: NewClusterWalk(heap+(1<<20), 4<<20, 256, 16), FarP: 0.02,
		Rng: xrand.New(1),
	}
	const perOp = 1 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewBlockEmitter(discard{}, perOp, 0)
		for k := uint64(0); e.OK(); k++ {
			s.Emit(e, rtn, k%8*640, 500)
		}
	}
	b.ReportMetric(perOp*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
}

type discard struct{}

func (discard) Inst(*isa.Inst)       {}
func (discard) InstBlock([]isa.Inst) {}
