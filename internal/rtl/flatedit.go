package rtl

// Flat editing layer: index-based mutation primitives over FlatFn so
// optimization passes can run natively on the struct-of-arrays form. The
// idiom mirrors the pointer-graph passes instruction for instruction —
// in-place field rewrites for per-instruction transforms, kill markers plus
// one compaction sweep for deletion passes, and block-range splicing for the
// surgery passes (preheader checks, loop replication) — so a flat pass and
// its graph twin produce byte-identical programs.
//
// Invariants preserved by every primitive here (and checked by VerifyFn /
// Validate): instruction arrays stay parallel, block ranges stay contiguous
// in block order, and (Op==Call) == (CallIdx>=0). The Succs/Preds edge
// tables are derived state; primitives that change control flow leave them
// stale and callers recompute with ComputeEdges when needed (the flat
// analyses read Target/Else directly, so most passes never need the tables).

// FlatInstr is the value form of one instruction, gathered from / scattered
// to the parallel arrays. Target and Else are block indices (-1 none);
// CallIdx indexes FlatFn.Calls (-1 for non-calls).
type FlatInstr struct {
	Op      Op
	Dst     Reg
	A, B, C Operand
	Width   Width
	Signed  bool
	Disp    int64
	Target  int32
	Else    int32
	CallIdx int32
}

// MkInstr returns a FlatInstr with no control-flow edges and no call
// attachment — the flat equivalent of a zero rtl.Instr literal, whose nil
// Target/Else pointers map to -1 indices.
func MkInstr(op Op) FlatInstr {
	return FlatInstr{Op: op, Target: -1, Else: -1, CallIdx: -1}
}

// Instr gathers instruction i into value form.
func (f *FlatFn) Instr(i int32) FlatInstr {
	return FlatInstr{
		Op: f.Op[i], Dst: f.Dst[i], A: f.A[i], B: f.B[i], C: f.C[i],
		Width: f.Width[i], Signed: f.Signed[i], Disp: f.Disp[i],
		Target: f.Target[i], Else: f.Else[i], CallIdx: f.CallIdx[i],
	}
}

// SetInstr scatters value in into instruction slot i. Operands are
// canonicalized exactly as Flatten does, so a flat rewrite and a graph
// rewrite of the same instruction flatten to identical bytes.
func (f *FlatFn) SetInstr(i int32, in FlatInstr) {
	f.Op[i] = in.Op
	f.Dst[i] = in.Dst
	f.A[i] = canonOperand(in.A)
	f.B[i] = canonOperand(in.B)
	f.C[i] = canonOperand(in.C)
	f.Width[i] = in.Width
	f.Signed[i] = in.Signed
	f.Disp[i] = in.Disp
	f.Target[i] = in.Target
	f.Else[i] = in.Else
	f.CallIdx[i] = in.CallIdx
}

// NumRegs mirrors Fn.NumRegs: the size of the virtual register pool.
func (f *FlatFn) NumRegs() int { return int(f.NextReg) }

// NewReg allocates a fresh virtual register, advancing the same counter the
// pointer graph would, so flat and graph transforms name new registers
// identically.
func (f *FlatFn) NewReg() Reg {
	r := f.NextReg
	f.NextReg++
	return r
}

// Def mirrors Instr.Def for instruction i: the register defined, if any.
func (f *FlatFn) Def(i int32) (Reg, bool) {
	if f.Dst[i] != NoReg {
		switch f.Op[i] {
		case Store, Jump, Branch, Ret, Nop:
			return NoReg, false
		}
		return f.Dst[i], true
	}
	return NoReg, false
}

// SrcSlots invokes fn on a pointer to every source operand slot instruction
// i actually uses, mirroring Instr.SrcOperands' opcode shapes — but without
// allocating the slice of pointers, which is one of the graph walk's hottest
// allocation sites.
func (f *FlatFn) SrcSlots(i int32, fn func(o *Operand)) {
	add := func(o *Operand) {
		if o.Kind != KindNone {
			fn(o)
		}
	}
	switch f.Op[i] {
	case Nop, Jump:
	case Mov, Neg, Not, Load, Ret:
		add(&f.A[i])
	case Branch:
		add(&f.A[i])
	case Store:
		add(&f.A[i])
		add(&f.B[i])
	case Extract:
		add(&f.A[i])
		add(&f.B[i])
	case Insert:
		add(&f.A[i])
		add(&f.B[i])
		add(&f.C[i])
	case Call:
		c := &f.Calls[f.CallIdx[i]]
		for ai := c.ArgStart; ai < c.ArgEnd; ai++ {
			add(&f.Args[ai])
		}
	default: // binary ops
		add(&f.A[i])
		add(&f.B[i])
	}
}

// UsesReg reports whether instruction i reads register r.
func (f *FlatFn) UsesReg(i int32, r Reg) bool {
	used := false
	f.SrcSlots(i, func(o *Operand) {
		if o.Kind == KindReg && o.Reg == r {
			used = true
		}
	})
	return used
}

// IsMem reports whether instruction i touches memory.
func (f *FlatFn) IsMem(i int32) bool { return f.Op[i] == Load || f.Op[i] == Store }

// TermIdx returns the index of block bi's terminator and its opcode; ok is
// false for an empty or unterminated block.
func (f *FlatFn) TermIdx(bi int32) (int32, Op, bool) {
	return f.termOf(&f.Blocks[bi])
}

// Intern returns the symbol for name in the program's table, appending it if
// new. A linear scan: the table is small and interning is rare (fresh block
// labels only).
func (fp *FlatProgram) Intern(name string) Sym {
	for i, s := range fp.Syms {
		if s == name {
			return Sym(i)
		}
	}
	fp.Syms = append(fp.Syms, name)
	return Sym(len(fp.Syms) - 1)
}

// NewBlock appends a fresh empty block (at the end of the block table, with
// an empty instruction range at the end of the arrays) and returns its
// index. ID assignment advances NextBlk exactly as Fn.NewBlock does.
func (f *FlatFn) NewBlock(name Sym) int32 {
	end := int32(len(f.Op))
	f.Blocks = append(f.Blocks, FlatBlock{
		ID: f.NextBlk, Name: name, InstrStart: end, InstrEnd: end,
	})
	f.NextBlk++
	return int32(len(f.Blocks) - 1)
}

// SpliceInstrs replaces del instructions at block-relative position rel of
// block bi with ins, shifting later instructions and adjusting every block
// range after the edit. Block indices are stable across a splice, so cached
// Target/Else values and analysis results keyed by block stay valid; only
// absolute instruction offsets move.
func (f *FlatFn) SpliceInstrs(bi int32, rel int32, del int32, ins []FlatInstr) {
	b := &f.Blocks[bi]
	at := b.InstrStart + rel
	grow := int32(len(ins)) - del
	spliceSlice(&f.Op, at, del, len(ins))
	spliceSlice(&f.Dst, at, del, len(ins))
	spliceSlice(&f.A, at, del, len(ins))
	spliceSlice(&f.B, at, del, len(ins))
	spliceSlice(&f.C, at, del, len(ins))
	spliceSlice(&f.Width, at, del, len(ins))
	spliceSlice(&f.Signed, at, del, len(ins))
	spliceSlice(&f.Disp, at, del, len(ins))
	spliceSlice(&f.Target, at, del, len(ins))
	spliceSlice(&f.Else, at, del, len(ins))
	spliceSlice(&f.CallIdx, at, del, len(ins))
	for j, in := range ins {
		f.SetInstr(at+int32(j), in)
	}
	b.InstrEnd += grow
	for i := int(bi) + 1; i < len(f.Blocks); i++ {
		f.Blocks[i].InstrStart += grow
		f.Blocks[i].InstrEnd += grow
	}
}

// spliceSlice opens (or closes) a hole of n-del elements at position at.
func spliceSlice[T any](s *[]T, at, del int32, n int) {
	old := *s
	grow := n - int(del)
	switch {
	case grow > 0:
		var zero T
		for k := 0; k < grow; k++ {
			old = append(old, zero)
		}
		copy(old[int(at)+n:], old[at+del:])
	case grow < 0:
		copy(old[int(at)+n:], old[at+del:])
		old = old[:len(old)+grow]
	}
	*s = old
}

// AppendInstr inserts ins, in order, before block bi's terminator when one
// exists (the flat Block.Append of each in turn), otherwise at the block's
// end.
func (f *FlatFn) AppendInstr(bi int32, ins ...FlatInstr) {
	b := &f.Blocks[bi]
	rel := b.InstrEnd - b.InstrStart
	if _, _, ok := f.termOf(b); ok {
		rel--
	}
	f.SpliceInstrs(bi, rel, 0, ins)
}

// Compact removes every instruction whose kill mark is set — the one
// compaction sweep that follows a marking pass. Block ranges shrink in
// place; the Calls/Args tables are rebuilt from the surviving call
// instructions so call indices stay dense and the (Op==Call) == (CallIdx>=0)
// invariant holds.
func (f *FlatFn) Compact(kill []bool) {
	var newCalls []FlatCall
	var newArgs []Operand
	w := int32(0)
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		start := w
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			if kill[i] {
				continue
			}
			ci := f.CallIdx[i]
			if ci >= 0 {
				c := f.Calls[ci]
				as := int32(len(newArgs))
				newArgs = append(newArgs, f.Args[c.ArgStart:c.ArgEnd]...)
				ci = int32(len(newCalls))
				newCalls = append(newCalls, FlatCall{Callee: c.Callee, ArgStart: as, ArgEnd: int32(len(newArgs))})
			}
			if w != i {
				f.Op[w] = f.Op[i]
				f.Dst[w] = f.Dst[i]
				f.A[w] = f.A[i]
				f.B[w] = f.B[i]
				f.C[w] = f.C[i]
				f.Width[w] = f.Width[i]
				f.Signed[w] = f.Signed[i]
				f.Disp[w] = f.Disp[i]
				f.Target[w] = f.Target[i]
				f.Else[w] = f.Else[i]
			}
			f.CallIdx[w] = ci
			w++
		}
		b.InstrStart, b.InstrEnd = start, w
	}
	f.truncateInstrs(w)
	f.Calls = newCalls
	f.Args = newArgs
}

func (f *FlatFn) truncateInstrs(n int32) {
	f.Op = f.Op[:n]
	f.Dst = f.Dst[:n]
	f.A = f.A[:n]
	f.B = f.B[:n]
	f.C = f.C[:n]
	f.Width = f.Width[:n]
	f.Signed = f.Signed[:n]
	f.Disp = f.Disp[:n]
	f.Target = f.Target[:n]
	f.Else = f.Else[:n]
	f.CallIdx = f.CallIdx[:n]
}

// RemoveBlocks drops every block whose keep mark is clear, together with its
// instruction range, remapping the Target/Else indices of the surviving
// instructions. The caller guarantees no surviving edge points at a dropped
// block (the flat RemoveUnreachable guarantees it by construction).
func (f *FlatFn) RemoveBlocks(keep []bool) {
	remap := make([]int32, len(f.Blocks))
	kill := make([]bool, len(f.Op))
	nb := int32(0)
	for bi := range f.Blocks {
		if keep[bi] {
			remap[bi] = nb
			nb++
			continue
		}
		remap[bi] = -1
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			kill[i] = true
		}
	}
	f.Compact(kill)
	kept := f.Blocks[:0]
	for bi := range f.Blocks {
		if keep[bi] {
			kept = append(kept, f.Blocks[bi])
		}
	}
	f.Blocks = kept
	for i := range f.Target {
		if t := f.Target[i]; t >= 0 {
			f.Target[i] = remap[t]
		}
		if e := f.Else[i]; e >= 0 {
			f.Else[i] = remap[e]
		}
	}
}

// CloneRegion is Fn.CloneRegion on the flat form: append one fresh block per
// region block (in region order, so block-ID assignment matches the graph
// path), then copy the instructions, remapping Target/Else edges that stay
// inside the region and duplicating call payloads so the Calls/Args tables
// keep one entry per call instruction. Returns the original→clone index map.
func (fp *FlatProgram) CloneRegion(fi int, blocks []int32, nameSuffix string) map[int32]int32 {
	f := &fp.Fns[fi]
	m := make(map[int32]int32, len(blocks))
	for _, bi := range blocks {
		name := fp.Intern(fp.Syms[f.Blocks[bi].Name] + nameSuffix)
		m[bi] = f.NewBlock(name)
	}
	for _, bi := range blocks {
		b := f.Blocks[bi]
		ins := make([]FlatInstr, 0, b.InstrEnd-b.InstrStart)
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			ci := f.Instr(i)
			if ci.Target >= 0 {
				if t, ok := m[ci.Target]; ok {
					ci.Target = t
				}
			}
			if ci.Else >= 0 {
				if t, ok := m[ci.Else]; ok {
					ci.Else = t
				}
			}
			if ci.CallIdx >= 0 {
				c := f.Calls[ci.CallIdx]
				as := int32(len(f.Args))
				f.Args = append(f.Args, f.Args[c.ArgStart:c.ArgEnd]...)
				ci.CallIdx = int32(len(f.Calls))
				f.Calls = append(f.Calls, FlatCall{Callee: c.Callee, ArgStart: as, ArgEnd: int32(len(f.Args))})
			}
			ins = append(ins, ci)
		}
		f.SpliceInstrs(m[bi], 0, 0, ins)
	}
	return m
}

// TruncateBlocks removes blocks n.. (used to discard a replicated region
// appended at the end, the flat removeClones). Register and block-ID
// counters deliberately stay advanced, matching the graph path, which never
// rolls them back after an unprofitable replication.
func (f *FlatFn) TruncateBlocks(n int32) {
	if int(n) >= len(f.Blocks) {
		return
	}
	cut := f.Blocks[n].InstrStart
	f.truncateInstrs(cut)
	f.Blocks = f.Blocks[:n]
	// Calls/Args referenced by dropped instructions stay as dead table
	// entries until the next Compact; every live index remains valid.
}

// UnflattenFn materializes one function as a private pointer graph — the
// per-function bridge the flat pipeline uses for passes that still run on
// the graph form. No whole-program validation: the pipeline's verify
// checkpoints guard the image.
func (fp *FlatProgram) UnflattenFn(fi int) *Fn {
	ff := &fp.Fns[fi]
	f := &Fn{
		Name:       fp.Syms[ff.Name],
		Params:     append([]Reg(nil), ff.Params...),
		FrameBytes: int(ff.FrameBytes),
		FrameReg:   ff.FrameReg,
		nextReg:    ff.NextReg,
		nextBlk:    int(ff.NextBlk),
	}
	n := ff.NumInstrs()
	islab := make([]Instr, n)
	bslab := make([]Block, len(ff.Blocks))
	blocks := make([]*Block, len(ff.Blocks))
	for bi := range ff.Blocks {
		blocks[bi] = &bslab[bi]
	}
	for bi := range ff.Blocks {
		fb := &ff.Blocks[bi]
		b := blocks[bi]
		b.ID = int(fb.ID)
		b.Name = fp.Syms[fb.Name]
		nb := int(fb.InstrEnd - fb.InstrStart)
		b.Instrs = make([]*Instr, nb)
		for j := 0; j < nb; j++ {
			i := int(fb.InstrStart) + j
			in := &islab[i]
			in.Op = ff.Op[i]
			in.Dst = ff.Dst[i]
			in.A = ff.A[i]
			in.B = ff.B[i]
			in.C = ff.C[i]
			in.Width = ff.Width[i]
			in.Signed = ff.Signed[i]
			in.Disp = ff.Disp[i]
			if t := ff.Target[i]; t >= 0 {
				in.Target = blocks[t]
			}
			if e := ff.Else[i]; e >= 0 {
				in.Else = blocks[e]
			}
			if ci := ff.CallIdx[i]; ci >= 0 {
				c := &ff.Calls[ci]
				in.Callee = fp.Syms[c.Callee]
				if c.ArgEnd > c.ArgStart {
					in.Args = append([]Operand(nil), ff.Args[c.ArgStart:c.ArgEnd]...)
				}
			}
			b.Instrs[j] = in
		}
	}
	f.Blocks = blocks
	return f
}

// FlattenFnInto re-flattens a bridged function back into slot fi, interning
// any block labels the graph pass introduced. The inverse of UnflattenFn.
func (fp *FlatProgram) FlattenFnInto(fi int, f *Fn) error {
	it := &interner{syms: fp.Syms, idx: make(map[string]Sym, len(fp.Syms))}
	for i, s := range fp.Syms {
		it.idx[s] = Sym(i)
	}
	ff, err := flattenFn(f, it)
	if err != nil {
		return err
	}
	fp.Syms = it.syms
	fp.Fns[fi] = ff
	return nil
}
