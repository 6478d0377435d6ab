package rtl

import "fmt"

// Verify checks the structural invariants every pass must preserve: blocks
// end in exactly one terminator, branch targets belong to the function,
// memory widths are valid, operand slots match the opcode's shape, and all
// registers come from the function's pool. It returns the first violation
// found.
func (f *Fn) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", f.Name)
	}
	inFn := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		inFn[b] = true
	}
	checkReg := func(r Reg) error {
		if r < 0 || int(r) >= f.NumRegs() {
			return fmt.Errorf("register %s outside pool of %d", r, f.NumRegs())
		}
		return nil
	}
	checkOperand := func(o Operand) error {
		if o.Kind == KindReg {
			return checkReg(o.Reg)
		}
		return nil
	}
	for _, p := range f.Params {
		if err := checkReg(p); err != nil {
			return fmt.Errorf("%s: param: %w", f.Name, err)
		}
	}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("%s/%s: empty block", f.Name, b)
		}
		// The location prefix is formatted only on the failure path: building
		// it eagerly per instruction was the single hottest allocation site
		// in a cold compile (verify checkpoints run after every pass).
		where := func(i int, in *Instr) string {
			return fmt.Sprintf("%s/%s[%d] %s", f.Name, b, i, in)
		}
		for i, in := range b.Instrs {
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				if isLast {
					return fmt.Errorf("%s: block does not end in terminator", where(i, in))
				}
				return fmt.Errorf("%s: terminator in middle of block", where(i, in))
			}
			if err := verifyShape(in); err != nil {
				return fmt.Errorf("%s: %w", where(i, in), err)
			}
			if d, ok := in.Def(); ok {
				if err := checkReg(d); err != nil {
					return fmt.Errorf("%s: dst: %w", where(i, in), err)
				}
			}
			var srcErr error
			in.eachSrc(func(o *Operand) {
				if srcErr == nil {
					srcErr = checkOperand(*o)
				}
			})
			if srcErr != nil {
				return fmt.Errorf("%s: %w", where(i, in), srcErr)
			}
			switch in.Op {
			case Jump:
				if !inFn[in.Target] {
					return fmt.Errorf("%s: jump target outside function", where(i, in))
				}
			case Branch:
				if !inFn[in.Target] || !inFn[in.Else] {
					return fmt.Errorf("%s: branch target outside function", where(i, in))
				}
			}
		}
	}
	return nil
}

func verifyShape(in *Instr) error {
	needDst := func() error {
		if in.Dst == NoReg {
			return fmt.Errorf("missing destination")
		}
		return nil
	}
	needA := func() error {
		if in.A.Kind == KindNone {
			return fmt.Errorf("missing operand A")
		}
		return nil
	}
	needB := func() error {
		if in.B.Kind == KindNone {
			return fmt.Errorf("missing operand B")
		}
		return nil
	}
	needWidth := func() error {
		if !in.Width.Valid() {
			return fmt.Errorf("invalid width %d", in.Width)
		}
		return nil
	}
	switch in.Op {
	case Nop, Ret:
		return nil
	case Mov, Neg, Not:
		return firstErr(needDst, needA)
	case Load:
		return firstErr(needDst, needA, needWidth)
	case Store:
		return firstErr(needA, needB, needWidth)
	case Extract:
		return firstErr(needDst, needA, needB, needWidth)
	case Insert:
		if in.C.Kind == KindNone {
			return fmt.Errorf("insert missing operand C")
		}
		return firstErr(needDst, needA, needB, needWidth)
	case Jump:
		return nil
	case Branch:
		return needA()
	case Call:
		if in.Callee == "" {
			return fmt.Errorf("call without callee")
		}
		return nil
	default:
		if in.Op.IsBinary() {
			return firstErr(needDst, needA, needB)
		}
		if in.Op >= numOps {
			return fmt.Errorf("unknown opcode %d", in.Op)
		}
		return nil
	}
}

func firstErr(checks ...func() error) error {
	for _, c := range checks {
		if err := c(); err != nil {
			return err
		}
	}
	return nil
}
