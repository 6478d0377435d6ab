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

	"macc/internal/cfg"
	"macc/internal/dataflow"
	"macc/internal/rtl"
	"macc/internal/telemetry"
)

// BasicIV is a register whose only in-loop definitions add a constant.
type BasicIV struct {
	Reg  rtl.Reg
	Step int64 // net change per iteration
	Incs []*rtl.Instr
}

// Control describes the loop's header exit test, normalized so the loop
// continues while "IV cmp Bound" holds.
type Control struct {
	Cmp    *rtl.Instr // the Set* compare in the header
	Branch *rtl.Instr // the header terminator
	IV     rtl.Reg
	Bound  rtl.Operand // loop invariant
	// Op is SetLT/SetLE (counting up) or SetGT/SetGE (counting down) with
	// the IV conceptually on the left-hand side.
	Op     rtl.Op
	Signed bool
}

// Info is the result of analyzing one natural loop.
type Info struct {
	Loop     *cfg.Loop
	Graph    *cfg.Graph
	BasicIVs map[rtl.Reg]*BasicIV
	Control  *Control

	defsInLoop map[rtl.Reg]int
	du         *dataflow.DefUse
	instrLoop  map[*rtl.Instr]*rtl.Block
}

// Analyze inspects a natural loop and finds its invariant registers, basic
// induction variables, and controlling test. It never fails; absent
// features are simply nil/empty.
func Analyze(g *cfg.Graph, l *cfg.Loop, du *dataflow.DefUse) *Info {
	info := &Info{
		Loop:       l,
		Graph:      g,
		BasicIVs:   make(map[rtl.Reg]*BasicIV),
		defsInLoop: make(map[rtl.Reg]int),
		du:         du,
		instrLoop:  make(map[*rtl.Instr]*rtl.Block),
	}
	for _, b := range l.Blocks {
		for _, in := range b.Instrs {
			info.instrLoop[in] = b
			if d, ok := in.Def(); ok {
				info.defsInLoop[d]++
			}
		}
	}
	info.findBasicIVs()
	info.findControl()
	return info
}

// Invariant reports whether register r has no definition inside the loop.
func (info *Info) Invariant(r rtl.Reg) bool { return info.defsInLoop[r] == 0 }

// InvariantOperand reports whether operand o is a constant or an invariant
// register.
func (info *Info) InvariantOperand(o rtl.Operand) bool {
	if r, ok := o.IsReg(); ok {
		return info.Invariant(r)
	}
	return o.Kind == rtl.KindConst
}

// ivStep recognizes "r = r ± const" and returns the signed step.
func ivStep(in *rtl.Instr, r rtl.Reg) (int64, bool) {
	switch in.Op {
	case rtl.Add:
		if ar, ok := in.A.IsReg(); ok && ar == r {
			if c, ok := in.B.IsConst(); ok {
				return c, true
			}
		}
		if br, ok := in.B.IsReg(); ok && br == r {
			if c, ok := in.A.IsConst(); ok {
				return c, true
			}
		}
	case rtl.Sub:
		if ar, ok := in.A.IsReg(); ok && ar == r {
			if c, ok := in.B.IsConst(); ok {
				return -c, true
			}
		}
	}
	return 0, false
}

func (info *Info) findBasicIVs() {
	l, g := info.Loop, info.Graph
	cand := make(map[rtl.Reg]*BasicIV)
	bad := make(map[rtl.Reg]bool)
	for _, b := range l.Blocks {
		for _, in := range b.Instrs {
			d, ok := in.Def()
			if !ok || bad[d] {
				continue
			}
			step, isInc := ivStep(in, d)
			// Every in-loop definition must be an increment executed once
			// per iteration (its block dominates the latch).
			if !isInc || !g.Dominates(b, l.Latch) {
				bad[d] = true
				delete(cand, d)
				continue
			}
			iv := cand[d]
			if iv == nil {
				iv = &BasicIV{Reg: d}
				cand[d] = iv
			}
			iv.Step += step
			iv.Incs = append(iv.Incs, in)
		}
	}
	for r, iv := range cand {
		if iv.Step != 0 && !bad[r] {
			info.BasicIVs[r] = iv
		}
	}
}

func (info *Info) findControl() {
	l := info.Loop
	term := l.Header.Term()
	if term == nil || term.Op != rtl.Branch {
		return
	}
	condReg, ok := term.A.IsReg()
	if !ok {
		return
	}
	// The compare must be the header's definition of the branch condition.
	var cmp *rtl.Instr
	for _, in := range l.Header.Body() {
		if d, ok := in.Def(); ok && d == condReg {
			cmp = in
		}
	}
	if cmp == nil || !cmp.Op.IsCompare() {
		return
	}
	continueOnTrue := l.Contains(term.Target) && !l.Contains(term.Else)
	continueOnFalse := l.Contains(term.Else) && !l.Contains(term.Target)
	if !continueOnTrue && !continueOnFalse {
		return
	}
	op := cmp.Op
	a, b := cmp.A, cmp.B
	if continueOnFalse {
		op = negateCmp(op)
	}
	// resolveIV accepts a basic IV directly, or an offset of one computed
	// in the loop ("t = iv + 7" from an unroll guard). The offset shifts
	// the effective bound by a constant, which every consumer of Control
	// treats as an over-approximation of at most one group of iterations.
	resolveIV := func(r rtl.Reg) (rtl.Reg, bool) {
		if info.BasicIVs[r] != nil {
			return r, true
		}
		if info.defsInLoop[r] != 1 {
			return rtl.NoReg, false
		}
		for _, b := range l.Blocks {
			for _, in := range b.Instrs {
				d, ok := in.Def()
				if !ok || d != r {
					continue
				}
				if in.Op == rtl.Add || in.Op == rtl.Sub {
					if base, ok := in.A.IsReg(); ok && info.BasicIVs[base] != nil {
						if _, isC := in.B.IsConst(); isC {
							return base, true
						}
					}
					if in.Op == rtl.Add {
						if base, ok := in.B.IsReg(); ok && info.BasicIVs[base] != nil {
							if _, isC := in.A.IsConst(); isC {
								return base, true
							}
						}
					}
				}
				return rtl.NoReg, false
			}
		}
		return rtl.NoReg, false
	}
	// Normalize the IV to the left-hand side.
	tryIV := func(side rtl.Operand, other rtl.Operand, o rtl.Op) bool {
		sr, ok := side.IsReg()
		if !ok {
			return false
		}
		r, ok := resolveIV(sr)
		if !ok {
			return false
		}
		iv := info.BasicIVs[r]
		if !info.InvariantOperand(other) {
			return false
		}
		switch o {
		case rtl.SetLT, rtl.SetLE:
			if iv.Step <= 0 {
				return false
			}
		case rtl.SetGT, rtl.SetGE:
			if iv.Step >= 0 {
				return false
			}
		default:
			return false
		}
		info.Control = &Control{
			Cmp: cmp, Branch: term, IV: r, Bound: other, Op: o, Signed: cmp.Signed,
		}
		return true
	}
	if tryIV(a, b, op) {
		return
	}
	tryIV(b, a, swapCmp(op))
}

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

// decompose expresses the value of reg r (at the top of a loop iteration)
// as an affine form over invariant registers and basic IVs. IV-derived
// temporaries must be defined inside the loop by pure single-definition
// instructions; IV increments must live in the latch so every in-body use
// sees the iteration-start value.
func (info *Info) decompose(r rtl.Reg, depth int) (affine, bool) {
	if depth > maxDecomposeDepth {
		return affine{}, false
	}
	if info.Invariant(r) || info.BasicIVs[r] != nil {
		return affine{terms: map[rtl.Reg]int64{r: 1}}, true
	}
	site, ok := info.du.SingleDef(r)
	if !ok {
		return affine{}, false
	}
	if info.instrLoop[site.Instr] == nil {
		// Defined once but outside this loop: invariant after all.
		return affine{terms: map[rtl.Reg]int64{r: 1}}, true
	}
	in := site.Instr
	dec := func(o rtl.Operand) (affine, bool) {
		if c, ok := o.IsConst(); ok {
			return affine{terms: map[rtl.Reg]int64{}, c: c}, true
		}
		or, _ := o.IsReg()
		return info.decompose(or, depth+1)
	}
	switch in.Op {
	case rtl.Mov:
		return dec(in.A)
	case rtl.Add:
		x, ok1 := dec(in.A)
		y, ok2 := dec(in.B)
		if ok1 && ok2 {
			return x.addScaled(y, 1), true
		}
	case rtl.Sub:
		x, ok1 := dec(in.A)
		y, ok2 := dec(in.B)
		if ok1 && ok2 {
			return x.addScaled(y, -1), true
		}
	case rtl.Shl:
		if sh, ok := in.B.IsConst(); ok && sh >= 0 && sh < 32 {
			if x, okx := dec(in.A); okx {
				return x.scale(1 << uint(sh)), true
			}
		}
	case rtl.Mul:
		if k, ok := in.B.IsConst(); ok {
			if x, okx := dec(in.A); okx {
				return x.scale(k), true
			}
		}
		if k, ok := in.A.IsConst(); ok {
			if x, okx := dec(in.B); okx {
				return x.scale(k), true
			}
		}
	}
	return affine{}, false
}

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

// StrengthReduce rewrites every IV-affine memory address in the loop to use
// a pointer induction variable: the invariant part is computed once in the
// preheader, the pointer advances by a constant in the latch, and the
// memory reference becomes base+displacement. Returns the pointer IVs
// created. The loop must have a preheader.
func (info *Info) StrengthReduce(f *rtl.Fn) []*PtrIV {
	l := info.Loop
	if l.Preheader == nil || len(info.BasicIVs) == 0 {
		return nil
	}
	// Collect rewritable references grouped by affine key.
	type ref struct {
		in   *rtl.Instr
		disp int64 // decomposed constant part
	}
	groups := make(map[string][]ref)
	meta := make(map[string]struct {
		ivReg rtl.Reg
		scale int64
		rest  affine
	})
	for _, b := range l.Blocks {
		if b == l.Latch {
			continue // latch runs after the increments; iteration-start values don't apply
		}
		for _, in := range b.Instrs {
			if !in.IsMem() {
				continue
			}
			base, ok := in.A.IsReg()
			if !ok {
				continue
			}
			if info.Invariant(base) || info.BasicIVs[base] != nil {
				continue // already base+disp form
			}
			a, ok := info.decompose(base, 0)
			if !ok {
				continue
			}
			ivReg, scale, rest, ok := splitIV(a, func(r rtl.Reg) bool { return info.BasicIVs[r] != nil })
			if !ok {
				continue
			}
			// All IV increments must be in the latch so the decomposition
			// ("value at iteration start") is valid at this use.
			valid := true
			for _, inc := range info.BasicIVs[ivReg].Incs {
				if info.instrLoop[inc] != l.Latch {
					valid = false
					break
				}
			}
			if !valid {
				continue
			}
			k := keyOf(ivReg, scale, rest)
			groups[k] = append(groups[k], ref{in: in, disp: rest.c})
			meta[k] = struct {
				ivReg rtl.Reg
				scale int64
				rest  affine
			}{ivReg, scale, rest}
		}
	}
	if len(groups) == 0 {
		return nil
	}
	var keys []string
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var ptrs []*PtrIV
	for _, k := range keys {
		m := meta[k]
		refs := groups[k]
		iv := info.BasicIVs[m.ivReg]
		// Preheader: p = sum(coeff*term) + scale*iv  (constant folded out;
		// it rides in each reference's displacement).
		p := f.NewReg()
		emit := func(op rtl.Op, d rtl.Reg, a, b rtl.Operand) { l.Preheader.Append(rtl.BinI(op, d, a, b)) }
		acc := emitAffineSum(f.NewReg, emit, m.rest, m.ivReg, m.scale)
		l.Preheader.Append(rtl.MovI(p, acc))
		// Latch: p += scale*step.
		step := m.scale * iv.Step
		l.Latch.Append(rtl.BinI(rtl.Add, p, rtl.R(p), rtl.C(step)))
		for _, r := range refs {
			r.in.A = rtl.R(p)
			r.in.Disp += r.disp
		}
		ptrs = append(ptrs, &PtrIV{Reg: p, Basis: m.ivReg, Scale: m.scale, Step: step, Init: p})
	}
	return ptrs
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

// ReplaceTest performs linear function test replacement: when the loop's
// controlling comparison tests a basic IV that a pointer IV linearizes, the
// test is rewritten to compare the pointer against a bound computed once in
// the preheader. This is what frees EliminateInductionVariables (dead-IV
// removal in the opt package) to delete the counter. Reports whether the
// test was replaced.
func (info *Info) ReplaceTest(f *rtl.Fn, ptrs []*PtrIV) bool {
	ctl := info.Control
	l := info.Loop
	if ctl == nil || l.Preheader == nil || len(ptrs) == 0 {
		return false
	}
	// Pick a pointer IV based on the controlled basic IV.
	var p *PtrIV
	for _, cand := range ptrs {
		if cand.Basis == ctl.IV {
			p = cand
			break
		}
	}
	if p == nil {
		return false
	}
	// Only strict tests stay exact under multiplication by the scale.
	if ctl.Op != rtl.SetLT && ctl.Op != rtl.SetGT {
		return false
	}
	emit := func(in *rtl.Instr) { l.Preheader.Append(in) }
	// pend = p_init + scale*(bound - iv_entry)
	diff := f.NewReg()
	emit(rtl.BinI(rtl.Sub, diff, ctl.Bound, rtl.R(ctl.IV)))
	scaled := f.NewReg()
	emit(rtl.BinI(rtl.Mul, scaled, rtl.R(diff), rtl.C(p.Scale)))
	pend := f.NewReg()
	emit(rtl.BinI(rtl.Add, pend, rtl.R(p.Init), rtl.R(scaled)))

	op := ctl.Op
	if p.Scale < 0 {
		op = swapCmp(op)
	}
	// Rewrite the compare in place: cond = p OP pend (continue form). When
	// the original continued on false, negate back.
	newOp := op
	if !l.Contains(ctl.Branch.Target) {
		newOp = negateCmp(op)
	}
	ctl.Cmp.Op = newOp
	ctl.Cmp.A = rtl.R(p.Reg)
	ctl.Cmp.B = rtl.R(pend)
	ctl.Cmp.Signed = true
	// Update control info to reflect the pointer-based test.
	info.Control = &Control{
		Cmp: ctl.Cmp, Branch: ctl.Branch, IV: p.Reg, Bound: rtl.R(pend),
		Op: op, Signed: true,
	}
	return true
}

// Remark summarizes this loop's induction-variable analysis as an Analysis
// telemetry remark: how many basic IVs were found, whether the controlling
// trip test was recognized, and the control IV's step. Passes emit it so
// every downstream accept/reject (unrolling, coalescing) can be read
// against the analysis facts it depended on.
func (info *Info) Remark(pass, fn string) telemetry.Remark {
	rem := telemetry.Remark{
		Kind: telemetry.Analysis,
		Pass: pass,
		Fn:   fn,
		Name: "LoopAnalysis",
		Args: map[string]int64{"basic_ivs": int64(len(info.BasicIVs))},
	}
	if info.Loop != nil && info.Loop.Header != nil {
		rem.Loop = info.Loop.Header.Name
	}
	if info.Control != nil {
		rem.Reason = "control:recognized"
		if biv := info.BasicIVs[info.Control.IV]; biv != nil {
			rem.Args["control_step"] = biv.Step
		}
	} else {
		rem.Reason = "control:unrecognized"
	}
	return rem
}
