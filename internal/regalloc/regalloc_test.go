package regalloc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"macc"
	"macc/internal/flattest"
	"macc/internal/machine"
	"macc/internal/regalloc"
	"macc/internal/rtl"
	"macc/internal/sim"
)

const testSrc = `
int dotproduct(short a[], short b[], int n) {
	int c, i;
	c = 0;
	for (i = 0; i < n; i++)
		c += a[i] * b[i];
	return c;
}
`

func compileUnrolled(t *testing.T) *macc.Program {
	t.Helper()
	p, err := macc.Compile(testSrc, macc.Config{
		Machine: machine.Alpha(), Optimize: true, Unroll: true, UnrollFactor: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// allocate runs the allocator with a k-register file over the function
// named name in p's flat image, through the shared flat test helper, and
// rematerializes p.RTL from the result.
func allocate(t *testing.T, p *macc.Program, name string, k int) (regalloc.Stats, error) {
	t.Helper()
	fp := flattest.FlatProgram(t, p.RTL)
	var stats regalloc.Stats
	var err error
	for fi := range fp.Fns {
		if fp.SymName(fp.Fns[fi].Name) == name {
			stats, err = regalloc.RunFlat(fp, fi, k)
		}
	}
	p.RTL = flattest.Unflatten(t, fp)
	p.Flat = nil
	return stats, err
}

// maxRegUsed returns the highest register f defines or reads, over its
// flat form.
func maxRegUsed(t *testing.T, f *rtl.Fn) rtl.Reg {
	t.Helper()
	ff := &flattest.Flat(t, f).Fns[0]
	max := rtl.Reg(-1)
	for i := int32(0); i < int32(ff.NumInstrs()); i++ {
		if d, ok := ff.Def(i); ok && d > max {
			max = d
		}
		ff.SrcSlots(i, func(o *rtl.Operand) {
			if o.Kind == rtl.KindReg && o.Reg > max {
				max = o.Reg
			}
		})
	}
	return max
}

func runDot(t *testing.T, p *macc.Program, n int64) int64 {
	t.Helper()
	s := sim.New(p.RTL, machine.Alpha(), 1<<16)
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i] = int64(i%37 - 18)
		b[i] = int64(i%31 - 15)
	}
	s.WriteInts(1024, rtl.W2, a)
	s.WriteInts(8192, rtl.W2, b)
	res, err := s.Run("dotproduct", 1024, 8192, n)
	if err != nil {
		t.Fatal(err)
	}
	return res.Ret
}

func TestAllocationBoundsRegisters(t *testing.T) {
	for _, k := range []int{8, 12, 16, 32} {
		p := compileUnrolled(t)
		f, _ := p.Fn("dotproduct")
		before := maxRegUsed(t, f)
		stats, err := allocate(t, p, "dotproduct", k)
		f, _ = p.Fn("dotproduct")
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := f.Verify(); err != nil {
			t.Fatalf("k=%d: invalid after allocation: %v", k, err)
		}
		if max := maxRegUsed(t, f); int(max) >= k {
			t.Errorf("k=%d: register %d used (had max %d before)", k, max, before)
		}
		if k >= 32 && stats.Spilled > 0 {
			t.Errorf("k=32 should not spill this kernel, spilled %d", stats.Spilled)
		}
		if stats.Spilled > 0 && stats.FrameSize == 0 {
			t.Error("spills without a frame")
		}
	}
}

func TestAllocatedCodeComputesSameResults(t *testing.T) {
	want := runDot(t, compileUnrolled(t), 57)
	for _, k := range []int{8, 10, 16, 32} {
		p := compileUnrolled(t)
		if _, err := allocate(t, p, "dotproduct", k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := runDot(t, p, 57); got != want {
			t.Errorf("k=%d: result %d, want %d", k, got, want)
		}
	}
}

func TestSpillsIncreaseMemoryTraffic(t *testing.T) {
	measure := func(k int) int64 {
		p := compileUnrolled(t)
		if _, err := allocate(t, p, "dotproduct", k); err != nil {
			t.Fatal(err)
		}
		s := sim.New(p.RTL, machine.Alpha(), 1<<16)
		vals := make([]int64, 64)
		s.WriteInts(1024, rtl.W2, vals)
		s.WriteInts(8192, rtl.W2, vals)
		res, err := s.Run("dotproduct", 1024, 8192, 64)
		if err != nil {
			t.Fatal(err)
		}
		return res.MemRefs()
	}
	tight, roomy := measure(8), measure(32)
	if tight <= roomy {
		t.Errorf("8 registers (%d refs) should spill more than 32 (%d refs)", tight, roomy)
	}
}

func TestRunRejectsTinyFiles(t *testing.T) {
	p := compileUnrolled(t)
	if _, err := allocate(t, p, "dotproduct", 4); err == nil {
		t.Error("4 registers must be rejected")
	}
	fMany := rtl.NewFn("many", 6)
	fMany.Entry().Instrs = []*rtl.Instr{rtl.RetI(rtl.C(0))}
	if _, err := regalloc.RunFlat(flattest.Flat(t, fMany), 0, 8); err == nil {
		t.Error("too many parameters for the register file must be rejected")
	}

	// Three parameters stay pinned across a call whose six arguments are
	// live together, so most arguments spill and each needs a reload
	// register of its own: 8 registers cannot hold the parameters and the
	// reloads, 10 can.
	f := rtl.NewFn("f", 3)
	b := f.Entry()
	var args []rtl.Operand
	for i := 0; i < 6; i++ {
		v := f.NewReg()
		b.Instrs = append(b.Instrs, rtl.BinI(rtl.Add, v, rtl.R(f.Params[i%3]), rtl.C(int64(i))))
		args = append(args, rtl.R(v))
	}
	r, s1, s2 := f.NewReg(), f.NewReg(), f.NewReg()
	b.Instrs = append(b.Instrs,
		rtl.CallI(r, "g", args...),
		rtl.BinI(rtl.Add, s1, rtl.R(f.Params[0]), rtl.R(f.Params[1])),
		rtl.BinI(rtl.Add, s2, rtl.R(s1), rtl.R(f.Params[2])),
		rtl.RetI(rtl.R(s2)))
	if _, err := regalloc.RunFlat(flattest.Flat(t, f), 0, 8); err == nil {
		t.Error("8 registers cannot hold 3 parameters and the call's reloads")
	}
	fp := flattest.Flat(t, f)
	if _, err := regalloc.RunFlat(fp, 0, 10); err != nil {
		t.Fatalf("10 registers: %v", err)
	}
	if err := fp.VerifyFn(0); err != nil {
		t.Fatalf("invalid after allocation: %v", err)
	}
}

// TestRandomProgramsSurviveAllocation compiles a family of generated
// straight-line + loop programs, allocates with small register files, and
// checks results against the unallocated compile.
func TestRandomProgramsSurviveAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Generate expression-heavy sources with many simultaneously live
	// scalars to force spills.
	for trial := 0; trial < 10; trial++ {
		nVars := 6 + rng.Intn(6)
		src := "long f(long a, long b, long n) {\n"
		for v := 0; v < nVars; v++ {
			src += fmt.Sprintf("\tlong v%d = a * %d + b;\n", v, rng.Intn(9)+1)
		}
		src += "\tlong i, s = 0;\n\tfor (i = 0; i < n; i++) {\n"
		for v := 0; v < nVars; v++ {
			src += fmt.Sprintf("\t\ts += v%d * (i + %d);\n", v, rng.Intn(5))
		}
		src += "\t}\n\treturn s"
		for v := 0; v < nVars; v++ {
			src += fmt.Sprintf(" + v%d", v)
		}
		src += ";\n}\n"

		ref, err := macc.Compile(src, macc.Config{Machine: machine.Alpha(), Optimize: true})
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		alloc, err := macc.Compile(src, macc.Config{Machine: machine.Alpha(), Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := allocate(t, alloc, "f", 8); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		af, _ := alloc.Fn("f")
		if err := af.Verify(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		run := func(p *macc.Program) int64 {
			s := sim.New(p.RTL, machine.Alpha(), 1<<14)
			res, err := s.Run("f", int64(rngFixed(trial)), 7, 13)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			return res.Ret
		}
		if w, g := run(ref), run(alloc); w != g {
			t.Fatalf("trial %d: allocation changed result %d -> %d\n%s", trial, w, g, src)
		}
	}
}

func rngFixed(trial int) int { return 3 + trial }

// TestCallWithManySpilledArgs compiles a call whose arguments are all live
// across many other values, so several of them spill: each spilled argument
// needs its own reload register until the call reads them all. Register
// files below MinRegs are refused and the pipeline keeps the unallocated
// code; the others allocate, strictly, so a refusal would fail the test.
func TestCallWithManySpilledArgs(t *testing.T) {
	const src = `
long g(long a, long b, long c, long d) { return a*1000 + b*100 + c*10 + d; }
long f(long x) {
	long v1 = x*3; long v2 = x*5; long v3 = x*7; long v4 = x*11;
	long v5 = x*13; long v6 = x*17; long v7 = x*19; long v8 = x*23;
	long r = g(v1, v3, v5, v7);
	return r + v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8;
}
`
	const want = 3947
	for _, k := range []int{0, 4, 6, 8, 10, 16} {
		cfg := macc.DefaultConfig()
		cfg.Registers, cfg.Strict = k, k >= regalloc.MinRegs
		p, err := macc.Compile(src, cfg)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		res, err := sim.New(p.RTL, machine.Alpha(), 1<<14).Run("f", 1)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Ret != want {
			t.Errorf("k=%d: f(1) = %d, want %d", k, res.Ret, want)
		}
	}
}
