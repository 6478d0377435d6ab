package opt

import (
	"sync"

	"macc/internal/cfg"
	"macc/internal/dataflow"
	"macc/internal/rtl"
)

// cleaner is the clean-up suite's per-function working memory. FlatClean
// takes one from a pool and runs every sub-pass and fixpoint round on it:
// register- and instruction-indexed arrays are reused instead of allocated
// per pass and per block, and the FlatGraph is rebuilt only after a
// sub-pass changed the blocks or the terminators' edges (instruction edits
// never do). The exported single-pass entry points run on a pooled cleaner
// too, so the twin tests exercise exactly the code FlatClean runs.
type cleaner struct {
	fp *rtl.FlatProgram
	fi int
	f  *rtl.FlatFn

	g      cfg.FlatGraph
	gFresh bool // g describes f's current blocks and edges
	du     dataflow.FlatDefUse
	// edits counts the sub-passes that changed the function; du is current
	// while duEdits equals it.
	edits, duEdits int
	lv             dataflow.FlatLiveness
	live           dataflow.BitSet

	kill   []bool
	counts []int32 // register-indexed counters
	uses   []int32
	flags  []bool // register-indexed flags

	// FlatPropagateLocal: the known value of each register, and the
	// registers that currently have one.
	val    []rtl.Operand
	active []rtl.Reg

	// FlatCollapseMovChains: the in-block definition site of each
	// register, valid where defGen matches the current block's generation.
	defAt  []int32
	defGen []uint32
	gen    uint32

	cse cseTable
}

var cleaners = sync.Pool{New: func() any { return new(cleaner) }}

// getCleaner takes a cleaner from the pool for function fi. Callers hand it
// back with release on their normal return only: a sub-pass that panics
// (the pipeline recovers pass panics) may leave the scratch inconsistent,
// so that cleaner is simply dropped.
func getCleaner(fp *rtl.FlatProgram, fi int) *cleaner {
	c := cleaners.Get().(*cleaner)
	c.fp, c.fi, c.f = fp, fi, &fp.Fns[fi]
	c.gFresh = false
	c.edits, c.duEdits = 0, -1
	return c
}

func (c *cleaner) release() {
	c.fp, c.f = nil, nil
	c.g.P, c.g.F = nil, nil
	cleaners.Put(c)
}

// graph returns the function's FlatGraph, rebuilding it only when stale.
func (c *cleaner) graph() *cfg.FlatGraph {
	if !c.gFresh {
		c.g.Rebuild(c.fp, c.fi)
		c.gFresh = true
	}
	return &c.g
}

// defUse returns the function's def-use table, recomputing it only when a
// sub-pass changed the function since it was last built.
func (c *cleaner) defUse() *dataflow.FlatDefUse {
	if c.duEdits != c.edits {
		c.du.Compute(c.f)
		c.duEdits = c.edits
	}
	return &c.du
}

// run runs one sub-pass and counts it as an edit when it changed anything.
func (c *cleaner) run(pass func(*cleaner) bool) bool {
	if pass(c) {
		c.edits++
		return true
	}
	return false
}

// killMarks returns a cleared kill-mark slice covering every instruction.
func (c *cleaner) killMarks() []bool {
	c.kill = zeroed(c.kill, len(c.f.Op))
	return c.kill
}

// zeroed returns s with length n and every element zero, reallocating only
// when its capacity is short.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// FlatClean runs the full clean-up pipeline to a bounded fixpoint on the
// flat form, mirroring Clean's exact pass order.
func FlatClean(fp *rtl.FlatProgram, fi int) bool {
	c := getCleaner(fp, fi)
	changedEver := false
	for i := 0; i < 8; i++ {
		changed := false
		changed = c.run((*cleaner).removeUnreachable) || changed
		changed = c.run((*cleaner).foldConstants) || changed
		changed = c.run((*cleaner).propagateLocal) || changed
		changed = c.run((*cleaner).propagateImmutable) || changed
		changed = c.run((*cleaner).localCSE) || changed
		changed = c.run((*cleaner).collapseMovChains) || changed
		changed = c.run((*cleaner).peephole) || changed
		changed = c.run((*cleaner).deadCodeElim) || changed
		changed = c.run((*cleaner).globalDCE) || changed
		changed = c.run((*cleaner).eliminateDeadIVs) || changed
		if !changed {
			break
		}
		changedEver = true
	}
	c.release()
	return changedEver
}

// runOne runs a single sub-pass on a pooled cleaner.
func runOne(fp *rtl.FlatProgram, fi int, pass func(*cleaner) bool) bool {
	c := getCleaner(fp, fi)
	changed := pass(c)
	c.release()
	return changed
}

// FlatRemoveUnreachable drops blocks unreachable from the entry.
func FlatRemoveUnreachable(fp *rtl.FlatProgram, fi int) bool {
	return runOne(fp, fi, (*cleaner).removeUnreachable)
}

// FlatFoldConstants mirrors FoldConstants.
func FlatFoldConstants(fp *rtl.FlatProgram, fi int) bool {
	return runOne(fp, fi, (*cleaner).foldConstants)
}

// FlatPropagateLocal mirrors PropagateLocal.
func FlatPropagateLocal(fp *rtl.FlatProgram, fi int) bool {
	return runOne(fp, fi, (*cleaner).propagateLocal)
}

// FlatPropagateImmutable mirrors PropagateImmutable.
func FlatPropagateImmutable(fp *rtl.FlatProgram, fi int) bool {
	return runOne(fp, fi, (*cleaner).propagateImmutable)
}

// FlatLocalCSE mirrors LocalCSE.
func FlatLocalCSE(fp *rtl.FlatProgram, fi int) bool {
	return runOne(fp, fi, (*cleaner).localCSE)
}

// FlatCollapseMovChains mirrors CollapseMovChains.
func FlatCollapseMovChains(fp *rtl.FlatProgram, fi int) bool {
	return runOne(fp, fi, (*cleaner).collapseMovChains)
}

// FlatPeephole mirrors Peephole.
func FlatPeephole(fp *rtl.FlatProgram, fi int) bool {
	return runOne(fp, fi, (*cleaner).peephole)
}

// FlatDeadCodeElim mirrors DeadCodeElim.
func FlatDeadCodeElim(fp *rtl.FlatProgram, fi int) bool {
	return runOne(fp, fi, (*cleaner).deadCodeElim)
}

// FlatGlobalDCE mirrors GlobalDCE: liveness-based removal, iterated to a
// fixpoint, skipping unreachable blocks.
func FlatGlobalDCE(fp *rtl.FlatProgram, fi int) bool {
	return runOne(fp, fi, (*cleaner).globalDCE)
}

// FlatEliminateDeadIVs mirrors EliminateDeadIVs.
func FlatEliminateDeadIVs(fp *rtl.FlatProgram, fi int) bool {
	return runOne(fp, fi, (*cleaner).eliminateDeadIVs)
}

func (c *cleaner) removeUnreachable() bool {
	f := c.f
	g := c.graph()
	n := 0
	for bi := range f.Blocks {
		if g.Reachable(int32(bi)) {
			n++
		}
	}
	if n == len(f.Blocks) {
		return false
	}
	keep := make([]bool, len(f.Blocks))
	for bi := range f.Blocks {
		keep[bi] = g.Reachable(int32(bi))
	}
	f.RemoveBlocks(keep)
	c.gFresh = false
	return true
}

func (c *cleaner) foldConstants() bool {
	f := c.f
	changed := false
	for i := int32(0); i < int32(len(f.Op)); i++ {
		wasBranch := f.Op[i] == rtl.Branch
		if flatFoldInstr(f, i) {
			changed = true
			if wasBranch {
				c.gFresh = false // a folded branch drops or merges an edge
			}
		}
	}
	return changed
}

func (c *cleaner) propagateLocal() bool {
	f := c.f
	c.val = zeroed(c.val, f.NumRegs())
	val := c.val // reg -> known const or copy source; KindNone when unknown
	changed := false
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			f.SrcSlots(i, func(o *rtl.Operand) {
				if o.Kind == rtl.KindReg {
					if v := val[o.Reg]; v.Kind != rtl.KindNone {
						*o = v
						changed = true
					}
				}
			})
			if d, ok := f.Def(i); ok {
				// Kill anything that referenced the redefined register.
				val[d] = rtl.Operand{}
				live := c.active[:0]
				for _, r := range c.active {
					if v := val[r]; v.Kind == rtl.KindReg && v.Reg == d {
						val[r] = rtl.Operand{}
					} else if v.Kind != rtl.KindNone {
						live = append(live, r)
					}
				}
				c.active = live
				if src := f.A[i]; f.Op[i] == rtl.Mov &&
					(src.Kind == rtl.KindConst || src.Kind == rtl.KindReg && src.Reg != d) {
					val[d] = src
					c.active = append(c.active, d)
				}
			}
		}
		for _, r := range c.active {
			val[r] = rtl.Operand{}
		}
		c.active = c.active[:0]
	}
	return changed
}

func (c *cleaner) propagateImmutable() bool {
	f := c.f
	du := c.defUse()
	g := c.graph()
	changed := false
	for bi := range f.Blocks {
		if !g.Reachable(int32(bi)) {
			continue
		}
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			idx := i - b.InstrStart
			f.SrcSlots(i, func(o *rtl.Operand) {
				r, ok := o.IsReg()
				if !ok {
					return
				}
				site, ok := du.SingleDef(r)
				if !ok || f.Op[site.Instr] != rtl.Mov {
					return
				}
				var repl rtl.Operand
				if c, isC := f.A[site.Instr].IsConst(); isC {
					repl = rtl.C(c)
				} else if sr, isR := f.A[site.Instr].IsReg(); isR && du.Immutable(sr) {
					repl = rtl.R(sr)
				} else {
					return
				}
				if !flatDominatesUse(g, site, int32(bi), idx) {
					return
				}
				*o = repl
				changed = true
			})
		}
	}
	return changed
}

func flatDominatesUse(g *cfg.FlatGraph, site dataflow.FlatDefSite, useBlock, useIdx int32) bool {
	if site.Block == useBlock {
		return site.Index < useIdx
	}
	return g.Dominates(site.Block, useBlock)
}

// localCSE mirrors LocalCSE with an open-addressed value-number table.
// Availability is tracked with a register-indexed kill list instead of a
// full table sweep per definition: killing a register visits only the
// entries that mention it, which turns the graph pass's
// O(defs x available) behaviour into O(defs + mentions) without changing
// which expressions are considered available.
func (c *cleaner) localCSE() bool {
	f := c.f
	t := &c.cse
	t.reset(f)
	changed := false
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		t.newBlock()
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			switch f.Op[i] {
			case rtl.Store, rtl.Call:
				// Conservatively kill remembered loads.
				for _, idx := range t.loads {
					t.entries[idx].dead = true
				}
				t.loads = t.loads[:0]
			}
			d, hasDef := f.Def(i)
			if !hasDef {
				continue
			}
			op := f.Op[i]
			pure := op.IsBinary() || op == rtl.Neg || op == rtl.Not ||
				op == rtl.Extract || op == rtl.Insert || op == rtl.Load
			if !pure {
				t.kill(d)
				continue
			}
			k := cseKey{op: op, a: f.A[i], b: f.B[i], c: f.C[i], w: f.Width[i], signed: f.Signed[i], disp: f.Disp[i]}
			h := k.hash()
			if idx := t.lookup(&k, h); idx >= 0 && t.entries[idx].r != d {
				in := rtl.MkInstr(rtl.Mov)
				in.Dst = d
				in.A = rtl.R(t.entries[idx].r)
				f.SetInstr(i, in)
				t.kill(d)
				changed = true
				continue
			}
			t.kill(d)
			// Self-referential defs (r = r + 1) are not available afterwards.
			if !f.UsesReg(i, d) {
				t.insert(&k, h, d)
			}
		}
		t.endBlock()
	}
	return changed
}

// cseKey is the value-numbering key: an instruction's opcode, operands,
// width, signedness, and displacement.
type cseKey struct {
	op      rtl.Op
	a, b, c rtl.Operand
	w       rtl.Width
	signed  bool
	disp    int64
}

func (k *cseKey) hash() uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(k.op) | uint64(k.w)<<8
	if k.signed {
		h |= 1 << 16
	}
	for _, o := range [...]*rtl.Operand{&k.a, &k.b, &k.c} {
		h = (h ^ uint64(o.Kind)<<32 ^ uint64(uint32(o.Reg))) * m
		h = (h ^ uint64(o.Const)) * m
	}
	h = (h ^ uint64(k.disp)) * m
	return h ^ h>>31
}

type cseEntry struct {
	k    cseKey
	r    rtl.Reg
	dead bool
}

// cseTable is an open-addressed value-number table for one block at a
// time. Slots carry a generation stamp, so starting the next block is O(1);
// retired entries stay in their slots as tombstones until then.
type cseTable struct {
	entries []cseEntry
	loads   []int32 // entry indices holding Load expressions
	byReg   [][]int32
	slots   []int32
	stamps  []uint32
	stamp   uint32
	mask    uint64
}

// reset sizes the table for f: at least twice the longest block's
// instruction count, so probing always finds an empty slot.
func (t *cseTable) reset(f *rtl.FlatFn) {
	longest := int32(0)
	for bi := range f.Blocks {
		if n := f.Blocks[bi].InstrEnd - f.Blocks[bi].InstrStart; n > longest {
			longest = n
		}
	}
	size := 16
	for size < 2*int(longest) {
		size *= 2
	}
	if len(t.slots) < size {
		t.slots = make([]int32, size)
		t.stamps = make([]uint32, size)
		t.stamp = 0
	}
	t.mask = uint64(size - 1)
	if n := f.NumRegs(); len(t.byReg) < n {
		t.byReg = append(t.byReg, make([][]int32, n-len(t.byReg))...)
	}
}

func (t *cseTable) newBlock() {
	t.stamp++
	if t.stamp == 0 { // wrapped: no stale stamp may look current
		clear(t.stamps)
		t.stamp = 1
	}
}

// endBlock drops every entry and clears only the kill lists the block
// touched, keeping their capacity for reuse.
func (t *cseTable) endBlock() {
	for idx := range t.entries {
		e := &t.entries[idx]
		t.byReg[e.r] = t.byReg[e.r][:0]
		for _, o := range [...]rtl.Operand{e.k.a, e.k.b, e.k.c} {
			if r, ok := o.IsReg(); ok {
				t.byReg[r] = t.byReg[r][:0]
			}
		}
	}
	t.entries = t.entries[:0]
	t.loads = t.loads[:0]
}

// lookup returns the index of the live entry for k, or -1.
func (t *cseTable) lookup(k *cseKey, h uint64) int32 {
	for s := h & t.mask; t.stamps[s] == t.stamp; s = (s + 1) & t.mask {
		if e := &t.entries[t.slots[s]]; !e.dead && e.k == *k {
			return t.slots[s]
		}
	}
	return -1
}

// insert makes k available in register d. The caller has killed d, so no
// live entry for k exists.
func (t *cseTable) insert(k *cseKey, h uint64, d rtl.Reg) {
	idx := int32(len(t.entries))
	t.entries = append(t.entries, cseEntry{k: *k, r: d})
	s := h & t.mask
	for t.stamps[s] == t.stamp {
		s = (s + 1) & t.mask
	}
	t.stamps[s], t.slots[s] = t.stamp, idx
	t.byReg[d] = append(t.byReg[d], idx)
	for _, o := range [...]rtl.Operand{k.a, k.b, k.c} {
		if r, ok := o.IsReg(); ok {
			t.byReg[r] = append(t.byReg[r], idx)
		}
	}
	if k.op == rtl.Load {
		t.loads = append(t.loads, idx)
	}
}

// kill retires every entry that computes into or reads register d.
func (t *cseTable) kill(d rtl.Reg) {
	lst := t.byReg[d]
	t.byReg[d] = lst[:0]
	for _, idx := range lst {
		t.entries[idx].dead = true
	}
}

// collapseMovChains mirrors CollapseMovChains: the fused temporary is
// overwritten with a Nop kill-mark exactly as the graph pass does, and one
// Compact sweep at the end drops the marks the graph pass filters per
// block.
func (c *cleaner) collapseMovChains() bool {
	f := c.f
	n := f.NumRegs()
	c.counts = zeroed(c.counts, n)
	c.uses = zeroed(c.uses, n)
	defCount, useCount := c.counts, c.uses
	for i := int32(0); i < int32(len(f.Op)); i++ {
		if d, ok := f.Def(i); ok {
			defCount[d]++
		}
		f.SrcSlots(i, func(o *rtl.Operand) {
			if o.Kind == rtl.KindReg {
				useCount[o.Reg]++
			}
		})
	}
	for _, p := range f.Params {
		defCount[p]++
	}
	if len(c.defAt) < n {
		c.defAt = make([]int32, n)
		c.defGen = make([]uint32, n)
		c.gen = 0
	}

	changed := false
	var kill []bool
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		c.gen++
		if c.gen == 0 { // wrapped: no stale generation may look current
			clear(c.defGen)
			c.gen = 1
		}
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			if f.Op[i] == rtl.Mov {
				if t, ok := f.A[i].IsReg(); ok && defCount[t] == 1 && useCount[t] == 1 && c.defGen[t] == c.gen {
					if di := c.defAt[t]; flatMovable(f, di, i, f.Dst[i]) && flatFusable(f, di) {
						nd := f.Dst[i]
						def := f.Instr(di)
						def.Dst = nd
						f.SetInstr(i, def)
						f.SetInstr(di, rtl.MkInstr(rtl.Nop))
						changed = true
					}
				}
			}
			if d, ok := f.Def(i); ok {
				c.defAt[d], c.defGen[d] = i, c.gen
			}
		}
		if changed {
			for i := b.InstrStart; i < b.InstrEnd; i++ {
				if f.Op[i] == rtl.Nop {
					if kill == nil {
						kill = c.killMarks()
					}
					kill[i] = true
				}
			}
		}
	}
	if kill != nil {
		f.Compact(kill)
	}
	return changed
}

// flatFusable mirrors fusable for the instruction at index i.
func flatFusable(f *rtl.FlatFn, i int32) bool {
	switch f.Op[i] {
	case rtl.Mov, rtl.Neg, rtl.Not, rtl.Extract, rtl.Insert:
		return true
	}
	return f.Op[i].IsBinary()
}

// flatMovable mirrors movable over absolute indices di..j in one block.
func flatMovable(f *rtl.FlatFn, di, j int32, v rtl.Reg) bool {
	var buf [3]rtl.Reg
	srcs := buf[:0]
	f.SrcSlots(di, func(o *rtl.Operand) {
		if o.Kind == rtl.KindReg {
			srcs = append(srcs, o.Reg)
		}
	})
	for k := di + 1; k < j; k++ {
		if d, ok := f.Def(k); ok {
			if d == v {
				return false
			}
			for _, s := range srcs {
				if d == s {
					return false
				}
			}
		}
		if f.UsesReg(k, v) {
			return false
		}
	}
	return true
}

func (c *cleaner) peephole() bool {
	f := c.f
	changed := false
	for i := int32(0); i < int32(len(f.Op)); i++ {
		if flatReduceInstr(f, i) {
			changed = true
		}
	}
	if c.simplifyBranches() {
		changed = true
	}
	return changed
}

// simplifyBranches may reuse the def-use table of an earlier sub-pass even
// after reduceInstr rewrote instructions in this one: strength-reducing a
// multiply, divide, or remainder keeps every definition, use, and position.
func (c *cleaner) simplifyBranches() bool {
	f := c.f
	du := c.defUse()
	changed := false
	for bi := range f.Blocks {
		ti, op, ok := f.TermIdx(int32(bi))
		if !ok || op != rtl.Branch {
			continue
		}
		condReg, ok := f.A[ti].IsReg()
		if !ok {
			continue
		}
		site, ok := du.SingleDef(condReg)
		if !ok || site.Block != int32(bi) || du.UseCount(condReg) != 1 {
			continue
		}
		def := site.Instr
		zeroCmp := func() (rtl.Operand, bool) {
			if v, isC := f.B[def].IsConst(); isC && v == 0 {
				return f.A[def], true
			}
			return rtl.Operand{}, false
		}
		switch f.Op[def] {
		case rtl.SetNE:
			// branch (x != 0) T F  =>  branch x T F
			if x, ok := zeroCmp(); ok {
				f.A[ti] = x
				f.SetInstr(def, rtl.MkInstr(rtl.Nop))
				changed = true
			}
		case rtl.SetEQ:
			// branch (x == 0) T F  =>  branch x F T
			if x, ok := zeroCmp(); ok {
				f.A[ti] = x
				f.Target[ti], f.Else[ti] = f.Else[ti], f.Target[ti]
				f.SetInstr(def, rtl.MkInstr(rtl.Nop))
				changed = true
			}
		}
	}
	if changed {
		// Swapped arms keep every block's successor set, so the graph's
		// reachability, dominators, and liveness stay valid.
		kill := c.killMarks()
		for i := range f.Op {
			if f.Op[i] == rtl.Nop {
				kill[i] = true
			}
		}
		f.Compact(kill)
	}
	return changed
}

func (c *cleaner) deadCodeElim() bool {
	f := c.f
	changedEver := false
	for {
		c.uses = zeroed(c.uses, f.NumRegs())
		use := c.uses
		for i := int32(0); i < int32(len(f.Op)); i++ {
			f.SrcSlots(i, func(o *rtl.Operand) {
				if o.Kind == rtl.KindReg {
					use[o.Reg]++
				}
			})
		}
		var kill []bool
		for i := int32(0); i < int32(len(f.Op)); i++ {
			if d, ok := f.Def(i); ok && use[d] == 0 && flatSideEffectFree(f.Op[i]) {
				if kill == nil {
					kill = c.killMarks()
				}
				kill[i] = true
			}
		}
		if kill == nil {
			return changedEver
		}
		f.Compact(kill)
		changedEver = true
	}
}

func flatSideEffectFree(op rtl.Op) bool {
	switch op {
	case rtl.Store, rtl.Call, rtl.Jump, rtl.Branch, rtl.Ret:
		return false
	}
	return true
}

// globalDCE reuses one graph across its rounds: removing side-effect-free
// instructions never touches a terminator.
func (c *cleaner) globalDCE() bool {
	f := c.f
	g := c.graph()
	changedEver := false
	for {
		c.lv.Compute(g)
		var kill []bool
		for bi := range f.Blocks {
			if !g.Reachable(int32(bi)) {
				continue
			}
			b := &f.Blocks[bi]
			out := c.lv.LiveOutSet(int32(bi))
			c.live = zeroed(c.live, len(out))
			live := c.live
			live.Copy(out)
			for i := b.InstrEnd - 1; i >= b.InstrStart; i-- {
				d, hasDef := f.Def(i)
				if hasDef && !live.Has(int(d)) && flatSideEffectFree(f.Op[i]) {
					if kill == nil {
						kill = c.killMarks()
					}
					kill[i] = true
					continue
				}
				if hasDef {
					live.Clear(int(d))
				}
				f.SrcSlots(i, func(o *rtl.Operand) {
					if o.Kind == rtl.KindReg {
						live.Set(int(o.Reg))
					}
				})
			}
		}
		if kill == nil {
			return changedEver
		}
		f.Compact(kill)
		changedEver = true
	}
}

func (c *cleaner) eliminateDeadIVs() bool {
	f := c.f
	c.flags = zeroed(c.flags, f.NumRegs())
	notSelfOnly := c.flags // set once a register has a use other than a pure self-update
	for i := int32(0); i < int32(len(f.Op)); i++ {
		d, hasDef := f.Def(i)
		f.SrcSlots(i, func(o *rtl.Operand) {
			if o.Kind != rtl.KindReg {
				return
			}
			r := o.Reg
			// A use is harmless only if this instruction redefines the
			// same register as a pure self-update.
			if !(hasDef && d == r && flatIsSelfUpdate(f, i, r)) {
				notSelfOnly[r] = true
			}
		})
	}
	var kill []bool
	for i := int32(0); i < int32(len(f.Op)); i++ {
		if d, ok := f.Def(i); ok && !notSelfOnly[d] && flatIsSelfUpdate(f, i, d) {
			if kill == nil {
				kill = c.killMarks()
			}
			kill[i] = true
		}
	}
	if kill != nil {
		f.Compact(kill)
	}
	return kill != nil
}

func flatIsSelfUpdate(f *rtl.FlatFn, i int32, r rtl.Reg) bool {
	op := f.Op[i]
	if op != rtl.Add && op != rtl.Sub && op != rtl.Mov {
		return false
	}
	d, ok := f.Def(i)
	if !ok || d != r {
		return false
	}
	// Every register operand must be r itself.
	pure := true
	f.SrcSlots(i, func(o *rtl.Operand) {
		if or, ok := o.IsReg(); ok && or != r {
			pure = false
		}
	})
	return pure
}
