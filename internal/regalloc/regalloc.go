// Package regalloc implements a Poletto–Sarkar linear-scan register
// allocator with spilling. The paper's machines have 32 general registers,
// and the unrolling that feeds coalescing multiplies live ranges, so
// register pressure is the practical ceiling on the unroll factor; this
// allocator makes that pressure measurable (the ablation benchmarks sweep
// the register file size and watch spill traffic erase the coalescing win).
//
// Conventions after RunFlat(fp, fi, k):
//
//   - the function uses physical registers 0..k-1 only;
//   - parameters arrive in physical registers 0..len(params)-1, matching
//     the simulator's calling convention;
//   - register k-1 is the frame pointer when spills exist (FlatFn.FrameReg);
//     spill slots live at [FP+0, FP+8, ...] and FlatFn.FrameBytes reports the
//     frame size the simulator must reserve;
//   - registers k-2, k-3, ... are scratch for spill reloads: two, or as
//     many as the most spilled registers one instruction reads (a call
//     whose arguments spilled), each reload needing its own.
package regalloc

import (
	"fmt"
	"slices"
	"sort"

	"macc/internal/cfg"
	"macc/internal/dataflow"
	"macc/internal/rtl"
)

// MinRegs is the smallest register file RunFlat accepts: two scratch registers,
// a frame pointer, and at least four allocatable registers.
const MinRegs = 7

// Stats reports what the allocation did.
type Stats struct {
	Physical  int // register file size
	Spilled   int // virtual registers assigned to stack slots
	FrameSize int // bytes of spill frame
	Intervals int // live intervals processed
}

type interval struct {
	vreg       rtl.Reg
	start, end int
	pinned     rtl.Reg // pre-colored physical register (params), or NoReg
	phys       rtl.Reg // assigned physical register, or NoReg when spilled
	slot       int     // spill slot index when phys == NoReg
}

// RunFlat rewrites function fi of fp to use at most k physical registers,
// inserting spill code as needed. Parameters must number at most k-4, and
// fewer when an instruction reads more than two spilled registers.
func RunFlat(fp *rtl.FlatProgram, fi int, k int) (Stats, error) {
	f := &fp.Fns[fi]
	if k < MinRegs {
		return Stats{}, fmt.Errorf("regalloc: need at least %d registers, have %d", MinRegs, k)
	}
	frameReg := rtl.Reg(k - 1)
	ivs, loc := buildIntervals(fp, fi)
	// Reserve two reload registers; when the scan leaves an instruction
	// reading more spilled registers than that, redo it with more reserved.
	// The reserve only grows, so this ends.
	nscratch := 2
	for {
		allocatable := k - 1 - nscratch
		if len(f.Params) >= allocatable {
			return Stats{}, fmt.Errorf("regalloc: %d parameters and %d reload registers exceed %d-register convention",
				len(f.Params), nscratch, k)
		}
		assignLocations(ivs, allocatable)
		need := reloadsNeeded(f, loc)
		if need <= nscratch {
			break
		}
		nscratch = need
	}
	scratch := make([]rtl.Reg, nscratch)
	for i := range scratch {
		scratch[i] = rtl.Reg(k - 2 - i)
	}

	spilled := 0
	maxSlot := -1
	for _, iv := range ivs {
		if iv.phys == rtl.NoReg {
			spilled++
			if iv.slot > maxSlot {
				maxSlot = iv.slot
			}
		}
	}
	rewrite(f, loc, frameReg, scratch)
	frame := 0
	if spilled > 0 {
		frame = (maxSlot + 1) * 8
		f.FrameReg = frameReg
		f.FrameBytes = int64(frame)
	}
	if f.NextReg < rtl.Reg(k) {
		f.NextReg = rtl.Reg(k)
	}
	return Stats{Physical: k, Spilled: spilled, FrameSize: frame, Intervals: len(ivs)}, nil
}

// buildIntervals computes one conservative live interval per virtual
// register over the block layout order, extending intervals across whole
// blocks where liveness says the value crosses them (the standard
// adaptation that keeps linear scan sound on loops). Blocks tile the flat
// instruction arrays in layout order, so an instruction's index is its
// position. It returns the intervals sorted by start and the interval of
// each register (nil for registers never mentioned).
func buildIntervals(fp *rtl.FlatProgram, fi int) ([]*interval, []*interval) {
	g := cfg.NewFlat(fp, fi)
	var lv dataflow.FlatLiveness
	lv.Compute(g)
	f := g.F

	loc := make([]*interval, f.NumRegs())
	var out []*interval
	extend := func(r rtl.Reg, p int) {
		iv := loc[r]
		if iv == nil {
			iv = &interval{vreg: r, start: p, end: p, pinned: rtl.NoReg, phys: rtl.NoReg}
			loc[r] = iv
			out = append(out, iv)
			return
		}
		if p < iv.start {
			iv.start = p
		}
		if p > iv.end {
			iv.end = p
		}
	}
	for i, p := range f.Params {
		extend(p, 0)
		loc[p].pinned = rtl.Reg(i)
	}
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		first, last := int(b.InstrStart), int(b.InstrEnd)-1
		lv.LiveInSet(int32(bi)).ForEach(func(r int) { extend(rtl.Reg(r), first) })
		lv.LiveOutSet(int32(bi)).ForEach(func(r int) { extend(rtl.Reg(r), last) })
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			f.SrcSlots(i, func(o *rtl.Operand) {
				if o.Kind == rtl.KindReg {
					extend(o.Reg, int(i))
				}
			})
			if d, ok := f.Def(i); ok {
				extend(d, int(i))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].vreg < out[j].vreg
	})
	return out, loc
}

// assignLocations runs the linear scan: pinned intervals take their
// pre-colored registers, others take free registers, and when none is free
// the interval with the furthest end is spilled. Earlier assignments are
// discarded.
func assignLocations(ivs []*interval, allocatable int) {
	for _, iv := range ivs {
		iv.phys, iv.slot = rtl.NoReg, 0
	}
	free := make([]bool, allocatable)
	for i := range free {
		free[i] = true
	}
	var active []*interval
	nextSlot := 0

	expire := func(start int) {
		kept := active[:0]
		for _, a := range active {
			if a.end < start {
				if a.phys != rtl.NoReg {
					free[a.phys] = true
				}
			} else {
				kept = append(kept, a)
			}
		}
		active = kept
	}
	addActive := func(iv *interval) {
		active = append(active, iv)
		sort.Slice(active, func(i, j int) bool { return active[i].end < active[j].end })
	}

	for _, iv := range ivs {
		expire(iv.start)
		if iv.pinned != rtl.NoReg {
			// Parameters take their convention register unconditionally;
			// any active interval holding it must move to a spill slot.
			for _, a := range active {
				if a.phys == iv.pinned {
					a.phys = rtl.NoReg
					a.slot = nextSlot
					nextSlot++
				}
			}
			iv.phys = iv.pinned
			free[iv.phys] = false
			addActive(iv)
			continue
		}
		picked := rtl.NoReg
		for r := 0; r < allocatable; r++ {
			if free[r] {
				picked = rtl.Reg(r)
				break
			}
		}
		if picked != rtl.NoReg {
			iv.phys = picked
			free[picked] = false
			addActive(iv)
			continue
		}
		// Spill the active interval ending last (unless pinned), or this one.
		victim := iv
		for i := len(active) - 1; i >= 0; i-- {
			if active[i].pinned == rtl.NoReg && active[i].phys != rtl.NoReg {
				if active[i].end > iv.end {
					victim = active[i]
				}
				break
			}
		}
		if victim != iv {
			iv.phys = victim.phys
			victim.phys = rtl.NoReg
			victim.slot = nextSlot
			nextSlot++
			addActive(iv)
		} else {
			iv.phys = rtl.NoReg
			iv.slot = nextSlot
			nextSlot++
		}
	}
}

// reloadsNeeded returns the most distinct spilled registers one instruction
// of f reads: each is reloaded into its own scratch register.
func reloadsNeeded(f *rtl.FlatFn, loc []*interval) int {
	most := 0
	var seen []rtl.Reg
	for i := int32(0); i < int32(f.NumInstrs()); i++ {
		seen = seen[:0]
		f.SrcSlots(i, func(o *rtl.Operand) {
			if o.Kind != rtl.KindReg || slices.Contains(seen, o.Reg) {
				return
			}
			if iv := loc[o.Reg]; iv != nil && iv.phys == rtl.NoReg {
				seen = append(seen, o.Reg)
			}
		})
		most = max(most, len(seen))
	}
	return most
}

// rewrite renames every operand to its physical register, or routes it
// through a scratch register with a reload/store when spilled. Blocks
// without spill code are renamed in place; the others are re-spliced with
// their reloads and stores.
func rewrite(f *rtl.FlatFn, loc []*interval, frameReg rtl.Reg, scratch []rtl.Reg) {
	type held struct{ vreg, s rtl.Reg }
	var out []rtl.FlatInstr
	var seen []held // spilled sources of one instruction already reloaded
	for bi := int32(0); bi < int32(len(f.Blocks)); bi++ {
		b := &f.Blocks[bi]
		out = out[:0]
		spills := false
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			nextScratch := 0
			seen = seen[:0]
			f.SrcSlots(i, func(o *rtl.Operand) {
				if o.Kind != rtl.KindReg {
					return
				}
				iv := loc[o.Reg]
				if iv == nil {
					return // never-used register (defensive)
				}
				if iv.phys != rtl.NoReg {
					o.Reg = iv.phys
					return
				}
				for _, h := range seen {
					if h.vreg == o.Reg {
						o.Reg = h.s
						return
					}
				}
				s := scratch[nextScratch]
				nextScratch = (nextScratch + 1) % len(scratch)
				reload := rtl.MkInstr(rtl.Load)
				reload.Dst = s
				reload.A = rtl.R(frameReg)
				reload.Disp = int64(iv.slot) * 8
				reload.Width = rtl.W8
				out = append(out, reload)
				spills = true
				seen = append(seen, held{o.Reg, s})
				o.Reg = s
			})
			var store rtl.FlatInstr
			spillDef := false
			if d, ok := f.Def(i); ok {
				switch iv := loc[d]; {
				case iv == nil:
					// dead def; leave as is (DCE normally removed it)
				case iv.phys != rtl.NoReg:
					f.Dst[i] = iv.phys
				default:
					f.Dst[i] = scratch[0]
					store = rtl.MkInstr(rtl.Store)
					store.A = rtl.R(frameReg)
					store.B = rtl.R(scratch[0])
					store.Disp = int64(iv.slot) * 8
					store.Width = rtl.W8
					spillDef, spills = true, true
				}
			}
			out = append(out, f.Instr(i))
			if spillDef {
				out = append(out, store)
			}
		}
		if spills {
			f.SpliceInstrs(bi, 0, b.InstrEnd-b.InstrStart, out)
		}
	}
	for i := range f.Params {
		f.Params[i] = rtl.Reg(i)
	}
}
