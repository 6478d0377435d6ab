// Package iv implements induction-variable analysis and the two derived
// transformations the coalescing algorithm depends on (Figure 2 of the
// paper): strength reduction of address expressions into pointer induction
// variables — which gives every memory reference the loop-invariant base +
// constant displacement shape the offset calculation needs — and linear
// function test replacement, which lets EliminateInductionVariables remove
// the integer counter entirely, as in the paper's Figure 1b where the loop
// ends by comparing the array pointer against a precomputed limit.
package iv

import (
	"fmt"
	"sort"

	"macc/internal/rtl"
)

// Helpers shared by the analysis and transformations in flat.go.

func negateCmp(op rtl.Op) rtl.Op {
	switch op {
	case rtl.SetEQ:
		return rtl.SetNE
	case rtl.SetNE:
		return rtl.SetEQ
	case rtl.SetLT:
		return rtl.SetGE
	case rtl.SetLE:
		return rtl.SetGT
	case rtl.SetGT:
		return rtl.SetLE
	case rtl.SetGE:
		return rtl.SetLT
	}
	return op
}

func swapCmp(op rtl.Op) rtl.Op {
	switch op {
	case rtl.SetLT:
		return rtl.SetGT
	case rtl.SetLE:
		return rtl.SetGE
	case rtl.SetGT:
		return rtl.SetLT
	case rtl.SetGE:
		return rtl.SetLE
	}
	return op
}

// affine is a linear form: sum(coeff_i * term_i) + c, where terms are
// registers (invariant or basic IVs).
type affine struct {
	terms map[rtl.Reg]int64
	c     int64
}

func (a affine) clone() affine {
	t := make(map[rtl.Reg]int64, len(a.terms))
	for k, v := range a.terms {
		t[k] = v
	}
	return affine{terms: t, c: a.c}
}

func (a affine) addScaled(b affine, k int64) affine {
	out := a.clone()
	for r, co := range b.terms {
		out.terms[r] += co * k
		if out.terms[r] == 0 {
			delete(out.terms, r)
		}
	}
	out.c += b.c * k
	return out
}

func (a affine) scale(k int64) affine {
	out := affine{terms: make(map[rtl.Reg]int64, len(a.terms)), c: a.c * k}
	for r, co := range a.terms {
		if co*k != 0 {
			out.terms[r] = co * k
		}
	}
	return out
}

const maxDecomposeDepth = 24

// splitIV separates an affine form into (single basic IV, its coefficient,
// invariant remainder), isIV naming the basic IVs. It fails when zero or
// multiple IVs appear.
func splitIV(a affine, isIV func(rtl.Reg) bool) (ivReg rtl.Reg, scale int64, rest affine, ok bool) {
	rest = affine{terms: make(map[rtl.Reg]int64), c: a.c}
	ivReg = rtl.NoReg
	for r, co := range a.terms {
		if isIV(r) {
			if ivReg != rtl.NoReg {
				return rtl.NoReg, 0, affine{}, false
			}
			ivReg = r
			scale = co
		} else {
			rest.terms[r] = co
		}
	}
	if ivReg == rtl.NoReg || scale == 0 {
		return rtl.NoReg, 0, affine{}, false
	}
	return ivReg, scale, rest, true
}

// keyOf canonicalizes the (invariant part, IV, scale) triple so references
// marching through the same array share one pointer IV.
func keyOf(ivReg rtl.Reg, scale int64, rest affine) string {
	type kv struct {
		r rtl.Reg
		c int64
	}
	var kvs []kv
	for r, c := range rest.terms {
		kvs = append(kvs, kv{r, c})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].r < kvs[j].r })
	s := fmt.Sprintf("iv%d*%d", ivReg, scale)
	for _, e := range kvs {
		s += fmt.Sprintf("+r%d*%d", e.r, e.c)
	}
	return s
}

// PtrIV records one pointer induction variable created by StrengthReduce.
type PtrIV struct {
	Reg   rtl.Reg
	Basis rtl.Reg // the basic IV it linearizes
	Scale int64   // bytes of pointer motion per basis unit
	Step  int64   // bytes per loop iteration (Scale * basis step)
	Init  rtl.Reg // register holding the pointer's value at loop entry
}

// emitAffineSum materializes sum(coeff*term) + ivScale*iv into a register
// via the emit callback (without the constant part), naming temporaries
// with newReg, and returns an operand holding the value.
func emitAffineSum(newReg func() rtl.Reg, emit func(op rtl.Op, d rtl.Reg, a, b rtl.Operand),
	rest affine, ivReg rtl.Reg, ivScale int64) rtl.Operand {
	type kv struct {
		r rtl.Reg
		c int64
	}
	kvs := []kv{{ivReg, ivScale}}
	var rs []kv
	for r, c := range rest.terms {
		rs = append(rs, kv{r, c})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].r < rs[j].r })
	kvs = append(kvs, rs...)
	var acc rtl.Operand
	for _, e := range kvs {
		var term rtl.Operand
		if e.c == 1 {
			term = rtl.R(e.r)
		} else {
			t := newReg()
			emit(rtl.Mul, t, rtl.R(e.r), rtl.C(e.c))
			term = rtl.R(t)
		}
		if acc.Kind == rtl.KindNone {
			acc = term
		} else {
			t := newReg()
			emit(rtl.Add, t, acc, term)
			acc = rtl.R(t)
		}
	}
	return acc
}
