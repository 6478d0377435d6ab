package unroll

import (
	"fmt"

	"macc/internal/cfg"
	"macc/internal/iv"
	"macc/internal/machine"
	"macc/internal/rtl"
)

// Flat twins of Shape, ChooseFactor, and Unroll over block indices. The
// replication mirrors the graph path operation for operation — the same
// NewBlock and NewReg order, the same copy-and-rename walk, the same
// retargeting — so both produce byte-identical functions.

// FlatCanonical is Canonical over block indices.
type FlatCanonical struct {
	Preheader, Header, Body, Latch, Exit int32
}

// FlatShape mirrors Shape for a loop of function f.
func FlatShape(f *rtl.FlatFn, l *cfg.FlatLoop) (FlatCanonical, bool) {
	if len(l.Blocks) != 3 || l.Preheader < 0 {
		return FlatCanonical{}, false
	}
	header, latch := l.Header, l.Latch
	body := int32(-1)
	for _, b := range l.Blocks {
		if b != header && b != latch {
			body = b
		}
	}
	if body < 0 || header == latch {
		return FlatCanonical{}, false
	}
	ht, op, ok := f.TermIdx(header)
	if !ok || op != rtl.Branch {
		return FlatCanonical{}, false
	}
	var exit int32
	switch {
	case f.Target[ht] == body && !l.Contains(f.Else[ht]):
		exit = f.Else[ht]
	case f.Else[ht] == body && !l.Contains(f.Target[ht]):
		exit = f.Target[ht]
	default:
		return FlatCanonical{}, false
	}
	if bt, op, ok := f.TermIdx(body); !ok || op != rtl.Jump || f.Target[bt] != latch {
		return FlatCanonical{}, false
	}
	if lt, op, ok := f.TermIdx(latch); !ok || op != rtl.Jump || f.Target[lt] != header {
		return FlatCanonical{}, false
	}
	return FlatCanonical{
		Preheader: l.Preheader, Header: header, Body: body, Latch: latch, Exit: exit,
	}, true
}

func blockLen(f *rtl.FlatFn, bi int32) int {
	b := &f.Blocks[bi]
	return int(b.InstrEnd - b.InstrStart)
}

// FlatChooseFactor mirrors ChooseFactor.
func FlatChooseFactor(m *machine.Machine, f *rtl.FlatFn, c FlatCanonical, info *iv.FlatInfo) int {
	if info.Control == nil {
		return 1
	}
	factor := 1
	b := &f.Blocks[c.Body]
	for i := b.InstrStart; i < b.InstrEnd; i++ {
		if f.IsMem(i) && f.Width[i] < m.WordBytes {
			if mf := m.MaxCoalesceFactor(f.Width[i]); mf > factor {
				factor = mf
			}
		}
	}
	if factor == 1 {
		return 1
	}
	nh, nb, nl := blockLen(f, c.Header), blockLen(f, c.Body), blockLen(f, c.Latch)
	if (nh+nb+nl)*m.BytesPerInstr <= m.ICacheBytes {
		for factor > 1 && (nh+factor*(nb+nl))*m.BytesPerInstr > m.ICacheBytes {
			factor /= 2
		}
	}
	if factor > 16 {
		factor = 16
	}
	return factor
}

// FlatUnroll mirrors Unroll for function fi: it appends the guard header
// and the replicated body as two fresh blocks and routes the preheader
// through the guard, leaving the rolled loop as the remainder.
func FlatUnroll(fp *rtl.FlatProgram, fi int, c FlatCanonical, info *iv.FlatInfo, factor int) error {
	if factor < 2 {
		return fmt.Errorf("unroll factor %d", factor)
	}
	ctl := info.Control
	if ctl == nil {
		return fmt.Errorf("loop has no recognized trip test")
	}
	if ctl.Op != rtl.SetLT && ctl.Op != rtl.SetGT {
		return fmt.Errorf("trip test %s is not strict", ctl.Op)
	}
	civ := info.BasicIVs[ctl.IV]
	if civ == nil {
		return fmt.Errorf("control register is not a basic IV")
	}
	f := &fp.Fns[fi]
	lb := &f.Blocks[c.Latch]
	for _, bi := range info.BasicIVs {
		for _, inc := range bi.Incs {
			if inc < lb.InstrStart || inc >= lb.InstrEnd {
				return fmt.Errorf("IV %s updated outside the latch", bi.Reg)
			}
		}
	}

	uheader := f.NewBlock(fp.Intern(fp.Syms[f.Blocks[c.Header].Name] + ".unrolled"))
	ubody := f.NewBlock(fp.Intern(fp.Syms[f.Blocks[c.Body].Name] + ".unrolled"))

	// Guard: continue into the unrolled body only if a full group of
	// `factor` iterations remains: IV + (factor-1)*step OP bound.
	last := f.NewReg()
	add := rtl.MkInstr(rtl.Add)
	add.Dst, add.A, add.B = last, rtl.R(ctl.IV), rtl.C(int64(factor-1)*civ.Step)
	cond := f.NewReg()
	cmp := rtl.MkInstr(ctl.Op)
	cmp.Dst, cmp.A, cmp.B, cmp.Signed = cond, rtl.R(last), ctl.Bound, ctl.Signed
	br := rtl.MkInstr(rtl.Branch)
	br.A, br.Target, br.Else = rtl.R(cond), ubody, c.Header
	f.AppendInstr(uheader, add, cmp, br)

	// Body: factor copies of (body work, latch work) with per-copy renaming
	// of defined registers, then mov-backs of the renamed registers (see
	// Unroll). Each copy is appended to the fresh block, the last one, and
	// renamed in place.
	cur := make(map[rtl.Reg]rtl.Reg)
	var renamed []rtl.Reg // in first-rename order
	mapOp := func(o *rtl.Operand) {
		if r, ok := o.IsReg(); ok {
			if nr, exists := cur[r]; exists {
				o.Reg = nr
			}
		}
	}
	copyBlock := func(bi int32) {
		b := f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			if f.Op[i].IsTerminator() {
				continue
			}
			cp := f.Instr(i)
			if cp.CallIdx >= 0 {
				call := f.Calls[cp.CallIdx]
				as := int32(len(f.Args))
				f.Args = append(f.Args, f.Args[call.ArgStart:call.ArgEnd]...)
				cp.CallIdx = int32(len(f.Calls))
				f.Calls = append(f.Calls, rtl.FlatCall{Callee: call.Callee, ArgStart: as, ArgEnd: int32(len(f.Args))})
			}
			f.AppendInstr(ubody, cp)
			ci := f.Blocks[ubody].InstrEnd - 1
			f.SrcSlots(ci, mapOp)
			if d, ok := f.Def(ci); ok {
				if _, seen := cur[d]; !seen {
					renamed = append(renamed, d)
				}
				nd := f.NewReg()
				cur[d] = nd
				f.Dst[ci] = nd
			}
		}
	}
	for k := 0; k < factor; k++ {
		copyBlock(c.Body)
		copyBlock(c.Latch)
	}
	for _, r := range renamed {
		mov := rtl.MkInstr(rtl.Mov)
		mov.Dst, mov.A = r, rtl.R(cur[r])
		f.AppendInstr(ubody, mov)
	}
	jmp := rtl.MkInstr(rtl.Jump)
	jmp.Target = uheader
	f.AppendInstr(ubody, jmp)

	// Route the preheader through the guard.
	if pt, _, ok := f.TermIdx(c.Preheader); ok {
		if f.Target[pt] == c.Header {
			f.Target[pt] = uheader
		}
		if f.Else[pt] == c.Header {
			f.Else[pt] = uheader
		}
	}
	return nil
}
