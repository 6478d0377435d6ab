package opt

import (
	"math/bits"

	"macc/internal/cfg"
	"macc/internal/rtl"
)

// This file and flatclean.go are the native flat-form port of the clean-up
// suite: every pass is a line-for-line twin of its pointer-graph
// counterpart in this package, operating on FlatFn's dense arrays through the flat editing
// layer (in-place SetInstr rewrites, kill marks + one Compact sweep where
// the graph pass rebuilds an instruction slice). The twins must stay
// behaviorally identical — the differential tests pin flat-pipeline output
// byte-identical to the graph pipeline — so any change to a graph pass in
// opt.go/gdce.go/collapse.go/peephole.go/addrfold.go must land here too.

func flatFoldInstr(f *rtl.FlatFn, i int32) bool {
	a, aok := f.A[i].IsConst()
	bv, bok := f.B[i].IsConst()
	set := func(v int64) bool {
		in := rtl.MkInstr(rtl.Mov)
		in.Dst = f.Dst[i]
		in.A = rtl.C(v)
		f.SetInstr(i, in)
		return true
	}
	switch f.Op[i] {
	case rtl.Neg:
		if aok {
			return set(-a)
		}
	case rtl.Not:
		if aok {
			return set(^a)
		}
	case rtl.Branch:
		if aok {
			t := f.Target[i]
			if a == 0 {
				t = f.Else[i]
			}
			in := rtl.MkInstr(rtl.Jump)
			in.Target = t
			f.SetInstr(i, in)
			return true
		}
		if f.Target[i] == f.Else[i] {
			in := rtl.MkInstr(rtl.Jump)
			in.Target = f.Target[i]
			f.SetInstr(i, in)
			return true
		}
	case rtl.Extract:
		if aok && bok {
			return set(rtl.EvalExtract(a, bv, f.Width[i], f.Signed[i]))
		}
	case rtl.Insert:
		if cv, cok := f.C[i].IsConst(); aok && bok && cok {
			return set(rtl.EvalInsert(a, bv, cv, f.Width[i]))
		}
	}
	if !f.Op[i].IsBinary() {
		return false
	}
	if aok && bok {
		if v, ok := rtl.EvalBinary(f.Op[i], a, bv, f.Signed[i]); ok {
			return set(v)
		}
		return false
	}
	// Algebraic identities with one constant side.
	isMov := func(o rtl.Operand) bool {
		in := rtl.MkInstr(rtl.Mov)
		in.Dst = f.Dst[i]
		in.A = o
		f.SetInstr(i, in)
		return true
	}
	switch f.Op[i] {
	case rtl.Add:
		if aok && a == 0 {
			return isMov(f.B[i])
		}
		if bok && bv == 0 {
			return isMov(f.A[i])
		}
	case rtl.Sub:
		if bok && bv == 0 {
			return isMov(f.A[i])
		}
		if ra, okA := f.A[i].IsReg(); okA {
			if rb, okB := f.B[i].IsReg(); okB && ra == rb {
				return set(0)
			}
		}
	case rtl.Mul:
		if (aok && a == 0) || (bok && bv == 0) {
			return set(0)
		}
		if aok && a == 1 {
			return isMov(f.B[i])
		}
		if bok && bv == 1 {
			return isMov(f.A[i])
		}
	case rtl.Shl, rtl.Shr:
		if bok && bv == 0 {
			return isMov(f.A[i])
		}
	case rtl.And:
		if (aok && a == 0) || (bok && bv == 0) {
			return set(0)
		}
		if aok && a == -1 {
			return isMov(f.B[i])
		}
		if bok && bv == -1 {
			return isMov(f.A[i])
		}
	case rtl.Or, rtl.Xor:
		if aok && a == 0 {
			return isMov(f.B[i])
		}
		if bok && bv == 0 {
			return isMov(f.A[i])
		}
	}
	return false
}

func flatReduceInstr(f *rtl.FlatFn, i int32) bool {
	cOf := func(o rtl.Operand) (int64, bool) {
		v, ok := o.IsConst()
		if !ok || v <= 0 || v&(v-1) != 0 {
			return 0, false
		}
		return int64(bits.TrailingZeros64(uint64(v))), true
	}
	mk := func(op rtl.Op, a rtl.Operand, b rtl.Operand) bool {
		in := rtl.MkInstr(op)
		in.Dst = f.Dst[i]
		in.A = a
		in.B = b
		f.SetInstr(i, in)
		return true
	}
	switch f.Op[i] {
	case rtl.Mul:
		if sh, ok := cOf(f.B[i]); ok {
			return mk(rtl.Shl, f.A[i], rtl.C(sh))
		}
		if sh, ok := cOf(f.A[i]); ok {
			return mk(rtl.Shl, f.B[i], rtl.C(sh))
		}
	case rtl.Div:
		if f.Signed[i] {
			return false // signed division by 2^k needs rounding fixups
		}
		if sh, ok := cOf(f.B[i]); ok {
			return mk(rtl.Shr, f.A[i], rtl.C(sh))
		}
	case rtl.Rem:
		if f.Signed[i] {
			return false
		}
		if v, ok := f.B[i].IsConst(); ok && v > 0 && v&(v-1) == 0 {
			return mk(rtl.And, f.A[i], rtl.C(v-1))
		}
	}
	return false
}

// FlatThreadJumps mirrors ThreadJumps: redirect edges through jump-only
// trampolines, then drop what became unreachable.
func FlatThreadJumps(fp *rtl.FlatProgram, fi int) bool {
	f := &fp.Fns[fi]
	changed := false
	target := make(map[int32]int32)
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		if b.InstrEnd-b.InstrStart == 1 {
			if ti, op, ok := f.TermIdx(int32(bi)); ok && op == rtl.Jump && f.Target[ti] != int32(bi) {
				target[int32(bi)] = f.Target[ti]
			}
		}
	}
	resolve := func(b int32) int32 {
		seen := map[int32]bool{}
		for {
			t, ok := target[b]
			if !ok || seen[b] {
				return b
			}
			seen[b] = true
			b = t
		}
	}
	for bi := range f.Blocks {
		ti, _, ok := f.TermIdx(int32(bi))
		if !ok {
			continue
		}
		if t := f.Target[ti]; t >= 0 {
			if r := resolve(t); r != t {
				f.Target[ti] = r
				changed = true
			}
		}
		if e := f.Else[ti]; e >= 0 {
			if r := resolve(e); r != e {
				f.Else[ti] = r
				changed = true
			}
		}
	}
	if changed {
		FlatRemoveUnreachable(fp, fi)
	}
	return changed
}

// FlatNormalizeAddresses mirrors NormalizeAddresses.
func FlatNormalizeAddresses(fp *rtl.FlatProgram, fi int) bool {
	f := &fp.Fns[fi]
	changed := false
	for bi := range f.Blocks {
		if flatNormalizeBlock(f, int32(bi)) {
			changed = true
		}
	}
	return changed
}

func flatNormalizeBlock(f *rtl.FlatFn, bi int32) bool {
	changed := false
	aff := make(map[rtl.Reg]affVal)     // reg -> entry(base)+k
	redefined := make(map[rtl.Reg]bool) // regs no longer holding entry value

	lookup := func(r rtl.Reg) (affVal, bool) {
		if v, ok := aff[r]; ok {
			return v, true
		}
		if redefined[r] {
			return affVal{}, false
		}
		return affVal{base: r, k: 0}, true
	}

	b := &f.Blocks[bi]
	for i := b.InstrStart; i < b.InstrEnd; i++ {
		// Rewrite memory references to anchor at the entry value.
		if f.IsMem(i) {
			if base, ok := f.A[i].IsReg(); ok {
				if v, ok := lookup(base); ok && (v.base != base || v.k != 0) {
					f.A[i] = rtl.R(v.base)
					f.Disp[i] += v.k
					changed = true
				}
			}
		}

		d, hasDef := f.Def(i)
		if !hasDef {
			continue
		}

		// Compute the transfer before recording the redefinition.
		var newVal *affVal
		switch f.Op[i] {
		case rtl.Mov:
			if r, ok := f.A[i].IsReg(); ok {
				if v, ok := lookup(r); ok {
					newVal = &v
				}
			}
		case rtl.Add:
			if r, ok := f.A[i].IsReg(); ok {
				if c, okc := f.B[i].IsConst(); okc {
					if v, ok := lookup(r); ok {
						nv := affVal{base: v.base, k: v.k + c}
						newVal = &nv
					}
				}
			}
			if r, ok := f.B[i].IsReg(); ok && newVal == nil {
				if c, okc := f.A[i].IsConst(); okc {
					if v, ok := lookup(r); ok {
						nv := affVal{base: v.base, k: v.k + c}
						newVal = &nv
					}
				}
			}
		case rtl.Sub:
			if r, ok := f.A[i].IsReg(); ok {
				if c, okc := f.B[i].IsConst(); okc {
					if v, ok := lookup(r); ok {
						nv := affVal{base: v.base, k: v.k - c}
						newVal = &nv
					}
				}
			}
		}

		// Canonicalize the instruction itself onto the entry anchor (see
		// normalizeBlock for why).
		if newVal != nil && !(newVal.base == d && newVal.k == 0) {
			rewritten := rtl.MkInstr(rtl.Add)
			rewritten.Dst = d
			rewritten.A = rtl.R(newVal.base)
			rewritten.B = rtl.C(newVal.k)
			if newVal.k == 0 {
				rewritten = rtl.MkInstr(rtl.Mov)
				rewritten.Dst = d
				rewritten.A = rtl.R(newVal.base)
			}
			if !flatSameInstr(f, i, rewritten) {
				f.SetInstr(i, rewritten)
				changed = true
			}
		}

		// Record the redefinition (see normalizeBlock).
		redefined[d] = true
		delete(aff, d)
		for r, v := range aff {
			if v.base == d {
				delete(aff, r)
			}
		}
		if newVal != nil && newVal.base != d && !redefined[newVal.base] {
			aff[d] = *newVal
		}
	}
	return changed
}

func flatSameInstr(f *rtl.FlatFn, i int32, in rtl.FlatInstr) bool {
	return f.Op[i] == in.Op && f.Dst[i] == in.Dst && f.A[i] == in.A && f.B[i] == in.B &&
		f.C[i] == in.C && f.Width[i] == in.Width && f.Signed[i] == in.Signed && f.Disp[i] == in.Disp
}

// FlatHoistInvariants mirrors HoistInvariants for loop l of function fi.
// Each sweep marks the hoisted instructions, compacts them out of the loop
// and splices them, in sweep order, before the preheader's terminator — the
// same sequence of Block.Append calls the graph pass makes, since the
// preheader lies outside the loop and hoisting never moves a call.
func FlatHoistInvariants(fp *rtl.FlatProgram, fi int, l *cfg.FlatLoop) bool {
	if l.Preheader < 0 {
		return false
	}
	f := &fp.Fns[fi]
	defsInLoop := make([]int32, f.NumRegs())
	for _, bi := range l.Blocks {
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			if d, ok := f.Def(i); ok {
				defsInLoop[d]++
			}
		}
	}
	hoistable := func(i int32) bool {
		switch op := f.Op[i]; op {
		case rtl.Mov, rtl.Neg, rtl.Not, rtl.Extract, rtl.Insert:
		case rtl.Div, rtl.Rem:
			if c, ok := f.B[i].IsConst(); !ok || c == 0 {
				return false
			}
		default:
			if !op.IsBinary() {
				return false
			}
		}
		invariant := true
		f.SrcSlots(i, func(o *rtl.Operand) {
			if o.Kind == rtl.KindReg && defsInLoop[o.Reg] != 0 {
				invariant = false
			}
		})
		return invariant
	}
	changed := false
	var kill []bool
	var moved []rtl.FlatInstr
	for {
		moved = moved[:0]
		for _, bi := range l.Blocks {
			b := &f.Blocks[bi]
			for i := b.InstrStart; i < b.InstrEnd; i++ {
				if d, ok := f.Def(i); ok && defsInLoop[d] == 1 && hoistable(i) {
					if kill == nil {
						kill = make([]bool, len(f.Op))
					}
					kill[i] = true
					moved = append(moved, f.Instr(i))
					defsInLoop[d] = 0
				}
			}
		}
		if len(moved) == 0 {
			return changed
		}
		changed = true
		f.Compact(kill)
		clear(kill)
		f.AppendInstr(l.Preheader, moved...)
	}
}
