package rtl

import "fmt"

// VerifyFn checks one flat function against the same invariants Fn.Verify
// enforces on the pointer graph — blocks end in exactly one terminator,
// operand slots match the opcode's shape, registers come from the pool,
// branch targets are real blocks — plus the flat-specific structural ones
// (parallel arrays, contiguous block ranges, call-table consistency). It
// allocates nothing on the success path; failure messages are formatted
// lazily.
func (fp *FlatProgram) VerifyFn(fi int) error {
	f := &fp.Fns[fi]
	if err := f.verifyStructure(fp, fi); err != nil {
		return err
	}
	name := func() string { return fp.symName(f.Name) }
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", name())
	}
	nregs := f.NumRegs()
	for _, p := range f.Params {
		if p < 0 || int(p) >= nregs {
			return fmt.Errorf("%s: param: register %s outside pool of %d", name(), p, nregs)
		}
	}
	nb := int32(len(f.Blocks))
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		if b.InstrEnd == b.InstrStart {
			return fmt.Errorf("%s/%s: empty block", name(), fp.blockName(f, int32(bi)))
		}
		where := func(i int32) string {
			return fmt.Sprintf("%s/%s[%d] %s", name(), fp.blockName(f, int32(bi)), i-b.InstrStart, fp.instrString(f, i))
		}
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			isLast := i == b.InstrEnd-1
			if f.Op[i].IsTerminator() != isLast {
				if isLast {
					return fmt.Errorf("%s: block does not end in terminator", where(i))
				}
				return fmt.Errorf("%s: terminator in middle of block", where(i))
			}
			if err := f.verifyFlatShape(i); err != nil {
				return fmt.Errorf("%s: %w", where(i), err)
			}
			if d, ok := f.Def(i); ok {
				if d < 0 || int(d) >= nregs {
					return fmt.Errorf("%s: dst: register %s outside pool of %d", where(i), d, nregs)
				}
			}
			if err := f.verifySrcRegs(i, nregs); err != nil {
				return fmt.Errorf("%s: %w", where(i), err)
			}
			switch f.Op[i] {
			case Jump:
				if t := f.Target[i]; t < 0 || t >= nb {
					return fmt.Errorf("%s: jump target outside function", where(i))
				}
			case Branch:
				if t := f.Target[i]; t < 0 || t >= nb {
					return fmt.Errorf("%s: branch target outside function", where(i))
				}
				if e := f.Else[i]; e < 0 || e >= nb {
					return fmt.Errorf("%s: branch target outside function", where(i))
				}
			}
		}
	}
	return nil
}

// instrString renders instruction i in the printer's syntax, for verifier
// messages. An edge index past the block table names no block; it prints
// as "phantom".
func (fp *FlatProgram) instrString(f *FlatFn, i int32) string {
	in := Instr{Op: f.Op[i], Dst: f.Dst[i], A: f.A[i], B: f.B[i], C: f.C[i],
		Width: f.Width[i], Signed: f.Signed[i], Disp: f.Disp[i]}
	edge := func(t int32) *Block {
		switch {
		case t < 0:
			return nil
		case int(t) < len(f.Blocks):
			return &Block{Name: fp.blockName(f, t)}
		default:
			return &Block{Name: "phantom"}
		}
	}
	in.Target, in.Else = edge(f.Target[i]), edge(f.Else[i])
	if ci := f.CallIdx[i]; ci >= 0 {
		c := &f.Calls[ci]
		in.Callee = fp.symName(c.Callee)
		in.Args = f.Args[c.ArgStart:c.ArgEnd]
	}
	return in.String()
}

func (fp *FlatProgram) symName(s Sym) string {
	if s >= 0 && int(s) < len(fp.Syms) {
		return fp.Syms[s]
	}
	return fmt.Sprintf("sym#%d", s)
}

func (fp *FlatProgram) blockName(f *FlatFn, bi int32) string {
	b := &f.Blocks[bi]
	if n := fp.symName(b.Name); n != "" {
		return n
	}
	return fmt.Sprintf("b%d", b.ID)
}

// verifyStructure holds the Validate-style index-safety checks, scoped to
// one function so the flat pipeline can checkpoint per fn without
// revalidating the whole program.
func (f *FlatFn) verifyStructure(fp *FlatProgram, fi int) error {
	n := len(f.Op)
	if len(f.Dst) != n || len(f.A) != n || len(f.B) != n || len(f.C) != n ||
		len(f.Width) != n || len(f.Signed) != n || len(f.Disp) != n ||
		len(f.Target) != n || len(f.Else) != n || len(f.CallIdx) != n {
		return fmt.Errorf("fn %d: instruction arrays not parallel", fi)
	}
	prevEnd := int32(0)
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		if b.InstrStart != prevEnd || b.InstrEnd < b.InstrStart || int(b.InstrEnd) > n {
			return fmt.Errorf("fn %d block %d: range [%d,%d) not contiguous at %d", fi, bi, b.InstrStart, b.InstrEnd, prevEnd)
		}
		if b.Name < 0 || int(b.Name) >= len(fp.Syms) {
			return fmt.Errorf("fn %d block %d: name sym out of range", fi, bi)
		}
		prevEnd = b.InstrEnd
	}
	if int(prevEnd) != n {
		return fmt.Errorf("fn %d: %d instructions not covered by blocks", fi, n-int(prevEnd))
	}
	for i := 0; i < n; i++ {
		if f.Op[i] >= numOps {
			return fmt.Errorf("fn %d instr %d: unknown opcode %d", fi, i, f.Op[i])
		}
		ci := f.CallIdx[i]
		if ci < -1 || int(ci) >= len(f.Calls) {
			return fmt.Errorf("fn %d instr %d: call index %d out of range", fi, i, ci)
		}
		if (f.Op[i] == Call) != (ci >= 0) {
			return fmt.Errorf("fn %d instr %d: call index inconsistent with opcode", fi, i)
		}
	}
	for ci := range f.Calls {
		c := &f.Calls[ci]
		if c.Callee < 0 || int(c.Callee) >= len(fp.Syms) {
			return fmt.Errorf("fn %d call %d: callee sym out of range", fi, ci)
		}
		if c.ArgStart < 0 || c.ArgEnd < c.ArgStart || int(c.ArgEnd) > len(f.Args) {
			return fmt.Errorf("fn %d call %d: arg range [%d,%d) invalid", fi, ci, c.ArgStart, c.ArgEnd)
		}
	}
	return nil
}

// verifyFlatShape applies verifyShape's operand-shape rules to instruction
// i.
func (f *FlatFn) verifyFlatShape(i int32) error {
	needDst := f.Dst[i] != NoReg
	needA := f.A[i].Kind != KindNone
	needB := f.B[i].Kind != KindNone
	widthOK := f.Width[i].Valid()
	switch f.Op[i] {
	case Nop, Ret:
		return nil
	case Mov, Neg, Not:
		return shapeErr(needDst, needA, true, true, f.Width[i])
	case Load:
		return shapeErr(needDst, needA, true, widthOK, f.Width[i])
	case Store:
		return shapeErr(true, needA, needB, widthOK, f.Width[i])
	case Extract:
		return shapeErr(needDst, needA, needB, widthOK, f.Width[i])
	case Insert:
		if f.C[i].Kind == KindNone {
			return fmt.Errorf("insert missing operand C")
		}
		return shapeErr(needDst, needA, needB, widthOK, f.Width[i])
	case Jump:
		return nil
	case Branch:
		if !needA {
			return fmt.Errorf("missing operand A")
		}
		return nil
	case Call:
		return nil // callee sym range is covered by verifyStructure
	default:
		if f.Op[i].IsBinary() {
			return shapeErr(needDst, needA, needB, true, f.Width[i])
		}
		return nil
	}
}

func shapeErr(dst, a, b, width bool, w Width) error {
	switch {
	case !dst:
		return fmt.Errorf("missing destination")
	case !a:
		return fmt.Errorf("missing operand A")
	case !b:
		return fmt.Errorf("missing operand B")
	case !width:
		return fmt.Errorf("invalid width %d", w)
	}
	return nil
}

func (f *FlatFn) verifySrcRegs(i int32, nregs int) error {
	bad, found := Reg(0), false
	f.SrcSlots(i, func(o *Operand) {
		if o.Kind == KindReg && (o.Reg < 0 || int(o.Reg) >= nregs) && !found {
			bad, found = o.Reg, true
		}
	})
	if found {
		return fmt.Errorf("register %s outside pool of %d", bad, nregs)
	}
	return nil
}
