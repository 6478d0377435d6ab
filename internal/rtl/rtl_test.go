package rtl

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestWidthValid(t *testing.T) {
	for _, w := range []Width{W1, W2, W4, W8} {
		if !w.Valid() {
			t.Errorf("width %d should be valid", w)
		}
	}
	for _, w := range []Width{0, 3, 5, 6, 7, 9, 16} {
		if Width(w).Valid() {
			t.Errorf("width %d should be invalid", w)
		}
	}
}

func TestWidthMask(t *testing.T) {
	cases := map[Width]uint64{
		W1: 0xFF, W2: 0xFFFF, W4: 0xFFFFFFFF, W8: ^uint64(0),
	}
	for w, want := range cases {
		if got := w.Mask(); got != want {
			t.Errorf("mask(%d) = %#x, want %#x", w, got, want)
		}
	}
}

func TestOperandAccessors(t *testing.T) {
	if r, ok := R(5).IsReg(); !ok || r != 5 {
		t.Errorf("R(5).IsReg() = %v, %v", r, ok)
	}
	if _, ok := R(5).IsConst(); ok {
		t.Error("register operand should not be const")
	}
	if c, ok := C(-9).IsConst(); !ok || c != -9 {
		t.Errorf("C(-9).IsConst() = %v, %v", c, ok)
	}
	if _, ok := (Operand{}).IsReg(); ok {
		t.Error("empty operand should not be a register")
	}
}

// TestInstrDefUses checks the operand-source rule: Instr.Def and the flat
// form's Def and SrcSlots agree on what each instruction shape defines and
// reads.
func TestInstrDefUses(t *testing.T) {
	cases := []struct {
		in     *Instr
		def    Reg
		hasDef bool
		uses   []Reg
	}{
		{BinI(Add, 3, R(1), R(2)), 3, true, []Reg{1, 2}},
		{MovI(4, C(7)), 4, true, nil},
		{LoadI(5, R(1), 8, W4, true), 5, true, []Reg{1}},
		{StoreI(R(1), 0, R(2), W2), NoReg, false, []Reg{1, 2}},
		{BranchI(R(9), nil, nil), NoReg, false, []Reg{9}},
		{RetI(R(0)), NoReg, false, []Reg{0}},
		{InsertI(6, R(1), R(2), C(3), W1), 6, true, []Reg{1, 2}},
		{CallI(7, "f", R(1), C(2), R(3)), 7, true, []Reg{1, 3}},
	}
	fn := NewFn("t", 0)
	for _, tc := range cases {
		fn.Entry().Instrs = append(fn.Entry().Instrs, tc.in)
	}
	fp, err := Flatten(NewProgram(fn))
	if err != nil {
		t.Fatal(err)
	}
	ff := &fp.Fns[0]
	for i, tc := range cases {
		d, ok := tc.in.Def()
		if ok != tc.hasDef || (ok && d != tc.def) {
			t.Errorf("%s: Def() = %v,%v want %v,%v", tc.in, d, ok, tc.def, tc.hasDef)
		}
		if fd, fok := ff.Def(int32(i)); fd != d || fok != ok {
			t.Errorf("%s: FlatFn.Def = %v,%v, want %v,%v", tc.in, fd, fok, d, ok)
		}
		var uses []Reg
		ff.SrcSlots(int32(i), func(o *Operand) {
			if r, ok := o.IsReg(); ok {
				uses = append(uses, r)
			}
		})
		if len(uses) != len(tc.uses) {
			t.Errorf("%s: SrcSlots registers = %v, want %v", tc.in, uses, tc.uses)
			continue
		}
		for j := range uses {
			if uses[j] != tc.uses[j] {
				t.Errorf("%s: SrcSlots register %d = %v, want %v", tc.in, j, uses[j], tc.uses[j])
			}
		}
	}
}

func TestSuccs(t *testing.T) {
	f := NewFn("t", 0)
	a := f.Entry()
	b := f.NewBlock("b")
	c := f.NewBlock("c")
	cond := f.NewReg()
	a.Instrs = append(a.Instrs, MovI(cond, C(1)), BranchI(R(cond), b, c))
	b.Instrs = append(b.Instrs, JumpI(c))
	c.Instrs = append(c.Instrs, RetI(Operand{}))
	if s := a.Succs(); len(s) != 2 || s[0] != b || s[1] != c {
		t.Errorf("branch succs wrong: %v", s)
	}
	if s := b.Succs(); len(s) != 1 || s[0] != c {
		t.Errorf("jump succs wrong: %v", s)
	}
	if s := c.Succs(); s != nil {
		t.Errorf("ret should have no succs: %v", s)
	}
}

func TestVerifyCatchesBadShapes(t *testing.T) {
	mk := func() *Fn {
		f := NewFn("t", 1)
		f.Entry().Instrs = append(f.Entry().Instrs, RetI(R(f.Params[0])))
		return f
	}
	if err := mk().Verify(); err != nil {
		t.Fatalf("valid fn rejected: %v", err)
	}

	f := mk()
	f.Entry().Instrs = nil
	if err := f.Verify(); err == nil {
		t.Error("empty block accepted")
	}

	f = mk()
	f.Entry().Instrs = append(f.Entry().Instrs, MovI(f.NewReg(), C(0)))
	if err := f.Verify(); err == nil {
		t.Error("terminator in middle accepted")
	}

	f = mk()
	f.Entry().Instrs = []*Instr{MovI(f.NewReg(), C(0))}
	if err := f.Verify(); err == nil {
		t.Error("missing terminator accepted")
	}

	f = mk()
	f.Entry().Instrs = []*Instr{LoadI(f.NewReg(), R(0), 0, 3, false), RetI(C(0))}
	if err := f.Verify(); err == nil {
		t.Error("invalid width accepted")
	}

	f = mk()
	f.Entry().Instrs = []*Instr{MovI(999, C(0)), RetI(C(0))}
	if err := f.Verify(); err == nil {
		t.Error("register outside pool accepted")
	}

	f = mk()
	other := NewFn("o", 0)
	foreign := other.NewBlock("x")
	f.Entry().Instrs = []*Instr{JumpI(foreign)}
	if err := f.Verify(); err == nil {
		t.Error("jump to foreign block accepted")
	}
}

func TestCloneRegionRewiresInternalEdges(t *testing.T) {
	f := NewFn("t", 1)
	entry := f.Entry()
	header := f.NewBlock("h")
	body := f.NewBlock("b")
	exit := f.NewBlock("e")
	cond := f.NewReg()
	entry.Instrs = []*Instr{JumpI(header)}
	header.Instrs = []*Instr{MovI(cond, C(1)), BranchI(R(cond), body, exit)}
	body.Instrs = []*Instr{JumpI(header)}
	exit.Instrs = []*Instr{RetI(C(0))}
	fp, err := Flatten(NewProgram(f))
	if err != nil {
		t.Fatal(err)
	}
	ff := &fp.Fns[0]

	const h, b, e = 1, 2, 3
	m := fp.CloneRegion(0, []int32{h, b}, ".copy")
	h2, b2 := m[h], m[b]
	if h2 < 4 || b2 < 4 {
		t.Fatal("clone missing blocks")
	}
	term := func(bi int32) FlatInstr {
		ti, _, ok := ff.TermIdx(bi)
		if !ok {
			t.Fatalf("block %d has no terminator", bi)
		}
		return ff.Instr(ti)
	}
	// Internal edge header->body must point at the copy.
	if term(h2).Target != b2 {
		t.Error("internal branch edge not rewired to copy")
	}
	// External edge header->exit stays.
	if term(h2).Else != e {
		t.Error("external edge should still point at the original exit")
	}
	// The back edge in the copied body points at the copied header.
	if term(b2).Target != h2 {
		t.Error("back edge not rewired")
	}
	if got := fp.SymName(ff.Blocks[h2].Name); got != "h.copy" {
		t.Errorf("copied header named %q, want h.copy", got)
	}
	// Mutating the copy must not touch the original.
	ff.A[ff.Blocks[h2].InstrStart] = C(99)
	if v, _ := ff.A[ff.Blocks[h].InstrStart].IsConst(); v != 1 {
		t.Error("clone shares instruction storage with original")
	}
	if err := fp.VerifyFn(0); err != nil {
		t.Error(err)
	}
}

func TestProgramLookupAndReplace(t *testing.T) {
	f1 := NewFn("f", 0)
	f1.Entry().Instrs = []*Instr{RetI(C(1))}
	p := NewProgram(f1)
	if got, ok := p.Lookup("f"); !ok || got != f1 {
		t.Error("lookup failed")
	}
	f2 := NewFn("f", 0)
	f2.Entry().Instrs = []*Instr{RetI(C(2))}
	p.Add(f2)
	if got, _ := p.Lookup("f"); got != f2 {
		t.Error("Add should replace same-named function")
	}
	if len(p.Fns) != 1 {
		t.Errorf("replacement should not grow Fns: %d", len(p.Fns))
	}
}

func TestEvalBinaryAgainstGo(t *testing.T) {
	err := quick.Check(func(a, b int64) bool {
		checks := []struct {
			op   Op
			want int64
		}{
			{Add, a + b}, {Sub, a - b}, {Mul, a * b},
			{And, a & b}, {Or, a | b}, {Xor, a ^ b},
		}
		for _, c := range checks {
			got, ok := EvalBinary(c.op, a, b, true)
			if !ok || got != c.want {
				return false
			}
		}
		if b != 0 {
			if got, ok := EvalBinary(Div, a, b, false); !ok || got != int64(uint64(a)/uint64(b)) {
				return false
			}
		}
		sh := b & 63
		if got, _ := EvalBinary(Shl, a, sh, false); got != a<<uint(sh) {
			return false
		}
		if got, _ := EvalBinary(Shr, a, sh, true); got != a>>uint(sh) {
			return false
		}
		if got, _ := EvalBinary(SetLT, a, b, true); (got == 1) != (a < b) {
			return false
		}
		if got, _ := EvalBinary(SetLT, a, b, false); (got == 1) != (uint64(a) < uint64(b)) {
			return false
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestEvalDivTraps(t *testing.T) {
	if _, ok := EvalBinary(Div, 5, 0, true); ok {
		t.Error("division by zero must not fold")
	}
	if _, ok := EvalBinary(Rem, 5, 0, false); ok {
		t.Error("remainder by zero must not fold")
	}
	// INT64_MIN / -1 wraps rather than trapping the folder.
	if v, ok := EvalBinary(Div, -1<<63, -1, true); !ok || v != -1<<63 {
		t.Errorf("INT64_MIN/-1 = %d, %v", v, ok)
	}
}

func TestExtractInsertRoundTrip(t *testing.T) {
	err := quick.Check(func(wide int64, val int64, offRaw uint8, wSel uint8) bool {
		widths := []Width{W1, W2, W4}
		w := widths[int(wSel)%len(widths)]
		maxOff := 8 - int64(w)
		off := int64(offRaw) % (maxOff + 1)
		inserted := EvalInsert(wide, val, off, w)
		got := EvalExtract(inserted, off, w, false)
		want := val & int64(w.Mask())
		if got != want {
			return false
		}
		// Bytes outside the field are untouched.
		for i := int64(0); i < 8; i++ {
			if i >= off && i < off+int64(w) {
				continue
			}
			if EvalExtract(inserted, i, W1, false) != EvalExtract(wide, i, W1, false) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestExtractSignExtends(t *testing.T) {
	// 0xFF at offset 2, extracted signed as a byte, is -1.
	wide := EvalInsert(0, 0xFF, 2, W1)
	if got := EvalExtract(wide, 2, W1, true); got != -1 {
		t.Errorf("signed extract = %d, want -1", got)
	}
	if got := EvalExtract(wide, 2, W1, false); got != 255 {
		t.Errorf("unsigned extract = %d, want 255", got)
	}
}

func TestExtendMatchesGoConversions(t *testing.T) {
	err := quick.Check(func(v int64) bool {
		return Extend(v, W1, true) == int64(int8(v)) &&
			Extend(v, W1, false) == int64(uint8(v)) &&
			Extend(v, W2, true) == int64(int16(v)) &&
			Extend(v, W2, false) == int64(uint16(v)) &&
			Extend(v, W4, true) == int64(int32(v)) &&
			Extend(v, W4, false) == int64(uint32(v)) &&
			Extend(v, W8, true) == v
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestPrinterShapes(t *testing.T) {
	f := NewFn("dot", 2)
	r := f.NewReg()
	f.Entry().Instrs = []*Instr{
		LoadI(r, R(f.Params[0]), 4, W2, true),
		RetI(R(r)),
	}
	s := f.String()
	for _, want := range []string{"func dot(r0, r1)", "M.2s[r0+4]", "ret r2"} {
		if !strings.Contains(s, want) {
			t.Errorf("printer output missing %q:\n%s", want, s)
		}
	}
	dot := f.Dot()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "entry") {
		t.Errorf("dot output malformed:\n%s", dot)
	}
}
