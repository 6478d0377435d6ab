package dataflow

import (
	"macc/internal/cfg"
	"macc/internal/rtl"
)

// FlatDefSite locates one definition of a register in a flat function:
// the owning block index, the block-relative position, and the absolute
// instruction index.
type FlatDefSite struct {
	Block int32
	Index int32
	Instr int32
}

// FlatDefUse records, per register, how many definitions and uses a
// FlatFn has and where a single definition lives, tabulated in one
// dense-array scan with no per-instruction allocation.
type FlatDefUse struct {
	defCount []int32
	useCount []int32
	single   []FlatDefSite // valid where defCount==1
	isParam  []bool
}

// ComputeFlatDefUse tabulates the definitions and uses of f.
func ComputeFlatDefUse(f *rtl.FlatFn) *FlatDefUse {
	du := &FlatDefUse{}
	du.Compute(f)
	return du
}

// Compute retabulates du for f, reusing du's arrays when they are large
// enough.
func (du *FlatDefUse) Compute(f *rtl.FlatFn) {
	n := f.NumRegs()
	du.defCount = resize(du.defCount, n)
	du.useCount = resize(du.useCount, n)
	du.single = resize(du.single, n)
	du.isParam = resize(du.isParam, n)
	for _, p := range f.Params {
		du.isParam[p] = true
		du.defCount[p]++
	}
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			f.SrcSlots(i, func(o *rtl.Operand) {
				if o.Kind == rtl.KindReg {
					du.useCount[o.Reg]++
				}
			})
			if d, ok := f.Def(i); ok {
				du.defCount[d]++
				du.single[d] = FlatDefSite{Block: int32(bi), Index: i - b.InstrStart, Instr: i}
			}
		}
	}
}

// resize returns s with length n and every element zeroed, reallocating
// only when its capacity is short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// DefCount returns how many definitions register r has (parameters count
// as one definition).
func (du *FlatDefUse) DefCount(r rtl.Reg) int { return int(du.defCount[r]) }

// UseCount returns how many operand slots read register r.
func (du *FlatDefUse) UseCount(r rtl.Reg) int { return int(du.useCount[r]) }

// IsParam reports whether r is a function parameter.
func (du *FlatDefUse) IsParam(r rtl.Reg) bool { return du.isParam[r] }

// SingleDef returns the lone defining instruction of r, if r has exactly
// one definition and is not a parameter.
func (du *FlatDefUse) SingleDef(r rtl.Reg) (FlatDefSite, bool) {
	if du.isParam[r] || du.defCount[r] != 1 {
		return FlatDefSite{}, false
	}
	return du.single[r], true
}

// Immutable reports whether r is never redefined after its initial value.
func (du *FlatDefUse) Immutable(r rtl.Reg) bool { return du.defCount[r] == 1 }

// FlatLiveness holds per-block live-in/live-out sets for a flat function,
// indexed by block position instead of block pointer.
type FlatLiveness struct {
	liveIn  []BitSet
	liveOut []BitSet

	// Scratch kept for recomputation: per-block use/def sets and the one
	// slab every set of a computation is carved from.
	use, def []BitSet
	slab     BitSet
}

// Compute runs iterative backward liveness over a FlatGraph, to a fixpoint
// in reverse RPO, reusing lv's storage when it is large enough.
func (lv *FlatLiveness) Compute(g *cfg.FlatGraph) {
	f := g.F
	n := f.NumRegs()
	nb := len(f.Blocks)
	words := (n + 63) / 64
	lv.slab = resize(lv.slab, words*(4*nb+1))
	off := 0
	carve := func() BitSet {
		s := lv.slab[off : off+words : off+words]
		off += words
		return s
	}
	lv.liveIn = resize(lv.liveIn, nb)
	lv.liveOut = resize(lv.liveOut, nb)
	lv.use = resize(lv.use, nb)
	lv.def = resize(lv.def, nb)
	use, def := lv.use, lv.def
	for bi := range f.Blocks {
		u, d := carve(), carve()
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			f.SrcSlots(i, func(o *rtl.Operand) {
				if o.Kind == rtl.KindReg && !d.Has(int(o.Reg)) {
					u.Set(int(o.Reg))
				}
			})
			if dr, ok := f.Def(i); ok {
				d.Set(int(dr))
			}
		}
		use[bi], def[bi] = u, d
		lv.liveIn[bi] = carve()
		lv.liveOut[bi] = carve()
	}
	changed := true
	tmp := carve()
	var sbuf [2]int32
	for changed {
		changed = false
		for i := len(g.RPO) - 1; i >= 0; i-- {
			b := g.RPO[i]
			out := lv.liveOut[b]
			for _, s := range cfg.FlatSuccs(f, b, sbuf[:0]) {
				if out.OrInto(lv.liveIn[s]) {
					changed = true
				}
			}
			// in = use ∪ (out − def)
			tmp.Copy(out)
			def[b].ForEach(func(i int) { tmp.Clear(i) })
			tmp.OrInto(use[b])
			if lv.liveIn[b].OrInto(tmp) {
				changed = true
			}
		}
	}
}

// LiveOutSet returns the live-out set of block bi (shared, do not mutate).
func (lv *FlatLiveness) LiveOutSet(bi int32) BitSet { return lv.liveOut[bi] }

// LiveInSet returns the live-in set of block bi (shared, do not mutate).
func (lv *FlatLiveness) LiveInSet(bi int32) BitSet { return lv.liveIn[bi] }
