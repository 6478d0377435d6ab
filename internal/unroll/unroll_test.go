package unroll_test

import (
	"testing"

	"macc/internal/cfg"
	"macc/internal/flattest"
	"macc/internal/iv"
	"macc/internal/machine"
	"macc/internal/opt"
	"macc/internal/rtl"
	"macc/internal/sim"
	"macc/internal/unroll"
)

// buildSumLoop: for (p = a; p < a+2n; p += 2) acc += M2[p]; return acc.
func buildSumLoop() (*rtl.Fn, rtl.Reg) {
	f := rtl.NewFn("sum", 2)
	a, n := f.Params[0], f.Params[1]
	entry := f.Entry()
	header := f.NewBlock("header")
	body := f.NewBlock("body")
	latch := f.NewBlock("latch")
	exit := f.NewBlock("exit")
	p, end, acc, cond, v, nb := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	entry.Instrs = []*rtl.Instr{
		rtl.MovI(p, rtl.R(a)),
		rtl.BinI(rtl.Shl, nb, rtl.R(n), rtl.C(1)),
		rtl.BinI(rtl.Add, end, rtl.R(a), rtl.R(nb)),
		rtl.MovI(acc, rtl.C(0)),
		rtl.JumpI(header),
	}
	header.Instrs = []*rtl.Instr{
		rtl.SBinI(rtl.SetLT, cond, rtl.R(p), rtl.R(end)),
		rtl.BranchI(rtl.R(cond), body, exit),
	}
	body.Instrs = []*rtl.Instr{
		rtl.LoadI(v, rtl.R(p), 0, rtl.W2, true),
		rtl.BinI(rtl.Add, acc, rtl.R(acc), rtl.R(v)),
		rtl.JumpI(latch),
	}
	latch.Instrs = []*rtl.Instr{rtl.BinI(rtl.Add, p, rtl.R(p), rtl.C(2)), rtl.JumpI(header)}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(acc))}
	return f, acc
}

// loop is the canonical loop of a flattened test function.
type loop struct {
	fp   *rtl.FlatProgram
	c    unroll.FlatCanonical
	info *iv.FlatInfo
}

func shape(t *testing.T, f *rtl.Fn) *loop {
	t.Helper()
	fp := flattest.Flat(t, f)
	g := cfg.NewFlat(fp, 0)
	l := g.FindLoops()[0]
	g.EnsurePreheader(l)
	c, ok := unroll.FlatShape(&fp.Fns[0], l)
	if !ok {
		t.Fatal("loop not canonical")
	}
	return &loop{fp: fp, c: c, info: iv.AnalyzeFlat(g, l)}
}

func (lp *loop) unroll(factor int) error { return unroll.FlatUnroll(lp.fp, 0, lp.c, lp.info, factor) }

// cleanUp runs the unroll pass's tail (address normalization and a clean
// sweep) and materializes the result.
func (lp *loop) cleanUp(t *testing.T) *rtl.Fn {
	t.Helper()
	opt.FlatNormalizeAddresses(lp.fp, 0)
	opt.FlatClean(lp.fp, 0)
	if err := lp.fp.VerifyFn(0); err != nil {
		t.Fatal(err)
	}
	return flattest.Unflatten(t, lp.fp).Fns[0]
}

func (lp *loop) name(bi int32) string { return lp.fp.SymName(lp.fp.Fns[0].Blocks[bi].Name) }

func TestShapeRecognition(t *testing.T) {
	f, _ := buildSumLoop()
	lp := shape(t, f)
	c := lp.c
	if lp.name(c.Header) != "header" || lp.name(c.Body) != "body" || lp.name(c.Latch) != "latch" {
		t.Errorf("wrong decomposition: %s/%s/%s", lp.name(c.Header), lp.name(c.Body), lp.name(c.Latch))
	}
	if lp.name(c.Exit) != "exit" {
		t.Errorf("exit = %s", lp.name(c.Exit))
	}
}

func TestUnrollSemantics(t *testing.T) {
	for _, factor := range []int{2, 4, 8} {
		for _, n := range []int64{0, 1, 3, 4, 7, 8, 9, 31, 32} {
			f, _ := buildSumLoop()
			lp := shape(t, f)
			if err := lp.unroll(factor); err != nil {
				t.Fatalf("factor %d: %v", factor, err)
			}
			prog := rtl.NewProgram(lp.cleanUp(t))
			s := sim.New(prog, machine.Alpha(), 1<<14)
			var want int64
			for i := int64(0); i < n; i++ {
				val := i*7 - 20
				s.WriteInts(256+2*i, rtl.W2, []int64{val})
				want += rtl.Extend(val, rtl.W2, true)
			}
			res, err := s.Run("sum", 256, n)
			if err != nil {
				t.Fatalf("factor %d n %d: %v", factor, n, err)
			}
			if res.Ret != want {
				t.Errorf("factor %d n %d: got %d, want %d", factor, n, res.Ret, want)
			}
		}
	}
}

// block returns the block labelled name in f.
func block(t *testing.T, f *rtl.Fn, name string) *rtl.Block {
	t.Helper()
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("no block %q in\n%s", name, f)
	return nil
}

func TestUnrollProducesDisplacements(t *testing.T) {
	f, _ := buildSumLoop()
	lp := shape(t, f)
	if err := lp.unroll(4); err != nil {
		t.Fatal(err)
	}
	out := lp.cleanUp(t)
	body := block(t, out, "body.unrolled")
	var disps []int64
	for _, in := range body.Instrs {
		if in.Op == rtl.Load {
			disps = append(disps, in.Disp)
		}
	}
	want := []int64{0, 2, 4, 6}
	if len(disps) != len(want) {
		t.Fatalf("loads = %v, want %v", disps, want)
	}
	for i := range want {
		if disps[i] != want[i] {
			t.Fatalf("loads = %v, want %v", disps, want)
		}
	}
	// The pointer must advance once by 8.
	bump := 0
	for _, in := range body.Instrs {
		if in.Op == rtl.Add {
			if r, ok := in.A.IsReg(); ok {
				if d, okd := in.Def(); okd && d == r {
					if cst, okc := in.B.IsConst(); okc && cst == 8 {
						bump++
					}
				}
			}
		}
	}
	if bump != 1 {
		t.Errorf("expected exactly one folded pointer bump of 8, found %d\n%s", bump, out)
	}
}

func TestUnrollRejectsNonStrictOrUncontrolled(t *testing.T) {
	f, _ := buildSumLoop()
	lp := shape(t, f)
	lp.info.Control.Op = rtl.SetLE
	if err := lp.unroll(4); err == nil {
		t.Error("non-strict test must be rejected")
	}
	f2, _ := buildSumLoop()
	lp2 := shape(t, f2)
	lp2.info.Control = nil
	if err := lp2.unroll(4); err == nil {
		t.Error("loop without control must be rejected")
	}
}

func TestChooseFactor(t *testing.T) {
	f, _ := buildSumLoop()
	lp := shape(t, f)
	ff := &lp.fp.Fns[0]
	if got := unroll.FlatChooseFactor(machine.Alpha(), ff, lp.c, lp.info); got != 4 {
		t.Errorf("alpha factor for shorts = %d, want 4 (64-bit word)", got)
	}
	if got := unroll.FlatChooseFactor(machine.M88100(), ff, lp.c, lp.info); got != 2 {
		t.Errorf("m88100 factor for shorts = %d, want 2 (32-bit word)", got)
	}
	// Without a control test unrolling is pointless.
	lp.info.Control = nil
	if got := unroll.FlatChooseFactor(machine.Alpha(), ff, lp.c, lp.info); got != 1 {
		t.Errorf("factor without control = %d, want 1", got)
	}
}

func TestChooseFactorICacheCap(t *testing.T) {
	f, _ := buildSumLoop()
	lp := shape(t, f)
	ff := &lp.fp.Fns[0]
	size := func(bi int32) int { return int(ff.Blocks[bi].InstrEnd - ff.Blocks[bi].InstrStart) }
	m := machine.Alpha()
	// Shrink the cache so factor 8 cannot fit but the rolled loop can.
	m.ICacheBytes = (size(lp.c.Header) + 2*(size(lp.c.Body)+size(lp.c.Latch))) * m.BytesPerInstr
	got := unroll.FlatChooseFactor(m, ff, lp.c, lp.info)
	if got > 2 {
		t.Errorf("factor %d exceeds the instruction cache heuristic", got)
	}
}

func TestUnrollKeepsRemainderLoop(t *testing.T) {
	f, _ := buildSumLoop()
	lp := shape(t, f)
	if err := lp.unroll(4); err != nil {
		t.Fatal(err)
	}
	out := flattest.Unflatten(t, lp.fp).Fns[0]
	guard := block(t, out, "header.unrolled").Term()
	header := block(t, out, "header")
	// Guard's failure edge must lead to the original rolled header.
	if guard.Else != header && guard.Target != header {
		t.Error("guard does not fall back to the rolled loop")
	}
	// The preheader now enters the guard.
	if block(t, out, "entry").Term().Target != block(t, out, "header.unrolled") {
		t.Error("preheader does not enter the unrolled guard")
	}
}
