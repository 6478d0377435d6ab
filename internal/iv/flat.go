package iv

import (
	"sort"

	"macc/internal/cfg"
	"macc/internal/dataflow"
	"macc/internal/rtl"
	"macc/internal/telemetry"
)

// Flat twins of the induction-variable analysis, mirroring Analyze over a
// FlatFn so the flat coalescer sees exactly the IVs, invariants, and
// control test the graph coalescer would. Instructions are identified by
// absolute index instead of pointer.

// FlatBasicIV is BasicIV with instruction indices.
type FlatBasicIV struct {
	Reg  rtl.Reg
	Step int64 // net change per iteration
	Incs []int32
}

// FlatControl is Control with instruction indices.
type FlatControl struct {
	Cmp    int32 // the Set* compare in the header
	Branch int32 // the header terminator
	IV     rtl.Reg
	Bound  rtl.Operand // loop invariant
	Op     rtl.Op
	Signed bool
}

// FlatInfo is Info for one flat natural loop.
type FlatInfo struct {
	Loop     *cfg.FlatLoop
	Graph    *cfg.FlatGraph
	BasicIVs map[rtl.Reg]*FlatBasicIV
	Control  *FlatControl

	defsInLoop map[rtl.Reg]int
}

// AnalyzeFlat mirrors Analyze on the flat form.
func AnalyzeFlat(g *cfg.FlatGraph, l *cfg.FlatLoop) *FlatInfo {
	info := &FlatInfo{
		Loop:       l,
		Graph:      g,
		BasicIVs:   make(map[rtl.Reg]*FlatBasicIV),
		defsInLoop: make(map[rtl.Reg]int),
	}
	f := g.F
	for _, bi := range l.Blocks {
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			if d, ok := f.Def(i); ok {
				info.defsInLoop[d]++
			}
		}
	}
	info.findBasicIVs()
	info.findControl()
	return info
}

// Invariant reports whether register r has no definition inside the loop.
func (info *FlatInfo) Invariant(r rtl.Reg) bool { return info.defsInLoop[r] == 0 }

// InvariantOperand reports whether operand o is a constant or an invariant
// register.
func (info *FlatInfo) InvariantOperand(o rtl.Operand) bool {
	if r, ok := o.IsReg(); ok {
		return info.Invariant(r)
	}
	return o.Kind == rtl.KindConst
}

// flatIVStep recognizes "r = r ± const" at instruction i.
func flatIVStep(f *rtl.FlatFn, i int32, r rtl.Reg) (int64, bool) {
	switch f.Op[i] {
	case rtl.Add:
		if ar, ok := f.A[i].IsReg(); ok && ar == r {
			if c, ok := f.B[i].IsConst(); ok {
				return c, true
			}
		}
		if br, ok := f.B[i].IsReg(); ok && br == r {
			if c, ok := f.A[i].IsConst(); ok {
				return c, true
			}
		}
	case rtl.Sub:
		if ar, ok := f.A[i].IsReg(); ok && ar == r {
			if c, ok := f.B[i].IsConst(); ok {
				return -c, true
			}
		}
	}
	return 0, false
}

func (info *FlatInfo) findBasicIVs() {
	l, g := info.Loop, info.Graph
	f := g.F
	cand := make(map[rtl.Reg]*FlatBasicIV)
	bad := make(map[rtl.Reg]bool)
	for _, bi := range l.Blocks {
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			d, ok := f.Def(i)
			if !ok || bad[d] {
				continue
			}
			step, isInc := flatIVStep(f, i, d)
			// Every in-loop definition must be an increment executed once
			// per iteration (its block dominates the latch).
			if !isInc || !g.Dominates(bi, l.Latch) {
				bad[d] = true
				delete(cand, d)
				continue
			}
			iv := cand[d]
			if iv == nil {
				iv = &FlatBasicIV{Reg: d}
				cand[d] = iv
			}
			iv.Step += step
			iv.Incs = append(iv.Incs, i)
		}
	}
	for r, iv := range cand {
		if iv.Step != 0 && !bad[r] {
			info.BasicIVs[r] = iv
		}
	}
}

func (info *FlatInfo) findControl() {
	l := info.Loop
	f := info.Graph.F
	ti, top, ok := f.TermIdx(l.Header)
	if !ok || top != rtl.Branch {
		return
	}
	condReg, ok := f.A[ti].IsReg()
	if !ok {
		return
	}
	// The compare must be the header's definition of the branch condition.
	cmp := int32(-1)
	hb := &f.Blocks[l.Header]
	for i := hb.InstrStart; i < ti; i++ {
		if d, ok := f.Def(i); ok && d == condReg {
			cmp = i
		}
	}
	if cmp < 0 || !f.Op[cmp].IsCompare() {
		return
	}
	continueOnTrue := l.Contains(f.Target[ti]) && !l.Contains(f.Else[ti])
	continueOnFalse := l.Contains(f.Else[ti]) && !l.Contains(f.Target[ti])
	if !continueOnTrue && !continueOnFalse {
		return
	}
	op := f.Op[cmp]
	a, b := f.A[cmp], f.B[cmp]
	if continueOnFalse {
		op = negateCmp(op)
	}
	// See Info.findControl for the offset-of-IV acceptance rationale.
	resolveIV := func(r rtl.Reg) (rtl.Reg, bool) {
		if info.BasicIVs[r] != nil {
			return r, true
		}
		if info.defsInLoop[r] != 1 {
			return rtl.NoReg, false
		}
		for _, bi := range l.Blocks {
			blk := &f.Blocks[bi]
			for i := blk.InstrStart; i < blk.InstrEnd; i++ {
				d, ok := f.Def(i)
				if !ok || d != r {
					continue
				}
				if f.Op[i] == rtl.Add || f.Op[i] == rtl.Sub {
					if base, ok := f.A[i].IsReg(); ok && info.BasicIVs[base] != nil {
						if _, isC := f.B[i].IsConst(); isC {
							return base, true
						}
					}
					if f.Op[i] == rtl.Add {
						if base, ok := f.B[i].IsReg(); ok && info.BasicIVs[base] != nil {
							if _, isC := f.A[i].IsConst(); isC {
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
		info.Control = &FlatControl{
			Cmp: cmp, Branch: ti, IV: r, Bound: other, Op: o, Signed: f.Signed[cmp],
		}
		return true
	}
	if tryIV(a, b, op) {
		return
	}
	tryIV(b, a, swapCmp(op))
}

// decompose mirrors Info.decompose over a flat def-use table: a definition
// lies inside the loop when its block does.
func (info *FlatInfo) decompose(du *dataflow.FlatDefUse, r rtl.Reg, depth int) (affine, bool) {
	if depth > maxDecomposeDepth {
		return affine{}, false
	}
	if info.Invariant(r) || info.BasicIVs[r] != nil {
		return affine{terms: map[rtl.Reg]int64{r: 1}}, true
	}
	site, ok := du.SingleDef(r)
	if !ok {
		return affine{}, false
	}
	if !info.Loop.Contains(site.Block) {
		// Defined once but outside this loop: invariant after all.
		return affine{terms: map[rtl.Reg]int64{r: 1}}, true
	}
	f, i := info.Graph.F, site.Instr
	dec := func(o rtl.Operand) (affine, bool) {
		if c, ok := o.IsConst(); ok {
			return affine{terms: map[rtl.Reg]int64{}, c: c}, true
		}
		or, _ := o.IsReg()
		return info.decompose(du, or, depth+1)
	}
	switch f.Op[i] {
	case rtl.Mov:
		return dec(f.A[i])
	case rtl.Add:
		x, ok1 := dec(f.A[i])
		y, ok2 := dec(f.B[i])
		if ok1 && ok2 {
			return x.addScaled(y, 1), true
		}
	case rtl.Sub:
		x, ok1 := dec(f.A[i])
		y, ok2 := dec(f.B[i])
		if ok1 && ok2 {
			return x.addScaled(y, -1), true
		}
	case rtl.Shl:
		if sh, ok := f.B[i].IsConst(); ok && sh >= 0 && sh < 32 {
			if x, okx := dec(f.A[i]); okx {
				return x.scale(1 << uint(sh)), true
			}
		}
	case rtl.Mul:
		if k, ok := f.B[i].IsConst(); ok {
			if x, okx := dec(f.A[i]); okx {
				return x.scale(k), true
			}
		}
		if k, ok := f.A[i].IsConst(); ok {
			if x, okx := dec(f.B[i]); okx {
				return x.scale(k), true
			}
		}
	}
	return affine{}, false
}

// inBlock reports whether absolute instruction i lies in block bi.
func inBlock(f *rtl.FlatFn, bi, i int32) bool {
	b := &f.Blocks[bi]
	return i >= b.InstrStart && i < b.InstrEnd
}

// refreshControl re-resolves the control test's absolute indices after
// surgery moved the header's instructions: the compare keeps its position
// relative to the header (nothing is ever inserted ahead of it), and the
// branch is the header's terminator.
func (info *FlatInfo) refreshControl(cmpRel int32) {
	f, h := info.Graph.F, info.Loop.Header
	info.Control.Cmp = f.Blocks[h].InstrStart + cmpRel
	info.Control.Branch, _, _ = f.TermIdx(h)
}

// StrengthReduce mirrors Info.StrengthReduce for function fi, reading
// single definitions from du (computed after the loop's preheader exists).
// The rewrites of the memory references happen before any code is emitted,
// and the preheader and latch code is spliced in one batch per block, so the
// analysis' instruction indices never go stale mid-transformation.
func (info *FlatInfo) StrengthReduce(fp *rtl.FlatProgram, fi int, du *dataflow.FlatDefUse) []*PtrIV {
	l := info.Loop
	if l.Preheader < 0 || len(info.BasicIVs) == 0 {
		return nil
	}
	f := &fp.Fns[fi]
	type ref struct {
		i    int32
		disp int64 // decomposed constant part
	}
	type group struct {
		ivReg rtl.Reg
		scale int64
		rest  affine
		refs  []ref
	}
	groups := make(map[string]*group)
	for _, bi := range l.Blocks {
		if bi == l.Latch {
			continue // latch runs after the increments; iteration-start values don't apply
		}
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			if !f.IsMem(i) {
				continue
			}
			base, ok := f.A[i].IsReg()
			if !ok || info.Invariant(base) || info.BasicIVs[base] != nil {
				continue // already base+disp form
			}
			a, ok := info.decompose(du, base, 0)
			if !ok {
				continue
			}
			ivReg, scale, rest, ok := splitIV(a, func(r rtl.Reg) bool { return info.BasicIVs[r] != nil })
			if !ok {
				continue
			}
			valid := true
			for _, inc := range info.BasicIVs[ivReg].Incs {
				if !inBlock(f, l.Latch, inc) {
					valid = false
					break
				}
			}
			if !valid {
				continue
			}
			k := keyOf(ivReg, scale, rest)
			g := groups[k]
			if g == nil {
				g = &group{}
				groups[k] = g
			}
			g.ivReg, g.scale, g.rest = ivReg, scale, rest
			g.refs = append(g.refs, ref{i: i, disp: rest.c})
		}
	}
	if len(groups) == 0 {
		return nil
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cmpRel := int32(-1)
	if info.Control != nil {
		cmpRel = info.Control.Cmp - f.Blocks[l.Header].InstrStart
	}
	var pre, latch []rtl.FlatInstr
	emit := func(op rtl.Op, d rtl.Reg, a, b rtl.Operand) {
		in := rtl.MkInstr(op)
		in.Dst, in.A, in.B = d, a, b
		pre = append(pre, in)
	}
	var ptrs []*PtrIV
	for _, k := range keys {
		g := groups[k]
		iv := info.BasicIVs[g.ivReg]
		p := f.NewReg()
		acc := emitAffineSum(f.NewReg, emit, g.rest, g.ivReg, g.scale)
		mov := rtl.MkInstr(rtl.Mov)
		mov.Dst, mov.A = p, acc
		pre = append(pre, mov)
		step := g.scale * iv.Step
		inc := rtl.MkInstr(rtl.Add)
		inc.Dst, inc.A, inc.B = p, rtl.R(p), rtl.C(step)
		latch = append(latch, inc)
		for _, r := range g.refs {
			f.A[r.i] = rtl.R(p)
			f.Disp[r.i] += r.disp
		}
		ptrs = append(ptrs, &PtrIV{Reg: p, Basis: g.ivReg, Scale: g.scale, Step: step, Init: p})
	}
	f.AppendInstr(l.Preheader, pre...)
	f.AppendInstr(l.Latch, latch...)
	if info.Control != nil {
		info.refreshControl(cmpRel)
	}
	return ptrs
}

// ReplaceTest mirrors Info.ReplaceTest on the flat form.
func (info *FlatInfo) ReplaceTest(fp *rtl.FlatProgram, fi int, ptrs []*PtrIV) bool {
	ctl := info.Control
	l := info.Loop
	if ctl == nil || l.Preheader < 0 || len(ptrs) == 0 {
		return false
	}
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
	f := &fp.Fns[fi]
	// pend = p_init + scale*(bound - iv_entry)
	diff, scaled, pend := f.NewReg(), f.NewReg(), f.NewReg()
	bin := func(op rtl.Op, d rtl.Reg, a, b rtl.Operand) rtl.FlatInstr {
		in := rtl.MkInstr(op)
		in.Dst, in.A, in.B = d, a, b
		return in
	}
	pre := []rtl.FlatInstr{
		bin(rtl.Sub, diff, ctl.Bound, rtl.R(ctl.IV)),
		bin(rtl.Mul, scaled, rtl.R(diff), rtl.C(p.Scale)),
		bin(rtl.Add, pend, rtl.R(p.Init), rtl.R(scaled)),
	}
	op := ctl.Op
	if p.Scale < 0 {
		op = swapCmp(op)
	}
	newOp := op
	if !l.Contains(f.Target[ctl.Branch]) {
		newOp = negateCmp(op)
	}
	cmp := f.Instr(ctl.Cmp)
	cmp.Op, cmp.A, cmp.B, cmp.Signed = newOp, rtl.R(p.Reg), rtl.R(pend), true
	f.SetInstr(ctl.Cmp, cmp)
	cmpRel := ctl.Cmp - f.Blocks[l.Header].InstrStart
	f.AppendInstr(l.Preheader, pre...)
	info.Control = &FlatControl{IV: p.Reg, Bound: rtl.R(pend), Op: op, Signed: true}
	info.refreshControl(cmpRel)
	return true
}

// Remark mirrors Info.Remark.
func (info *FlatInfo) Remark(pass, fn string) telemetry.Remark {
	rem := telemetry.Remark{
		Kind: telemetry.Analysis,
		Pass: pass,
		Fn:   fn,
		Name: "LoopAnalysis",
		Args: map[string]int64{"basic_ivs": int64(len(info.BasicIVs))},
	}
	if info.Loop != nil {
		g := info.Graph
		rem.Loop = g.P.Syms[g.F.Blocks[info.Loop.Header].Name]
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
