package sched

import (
	"sync"

	"macc/internal/machine"
	"macc/internal/rtl"
)

// Flat entry points for the list scheduler. Rather than re-deriving the
// dependence DAG over arrays (and risking a divergent schedule), a block
// body is decoded into a reusable scratch slab of rtl.Instr values and fed
// through the exact DAG build/order/makespan used by the graph path — the
// permutation is then scattered back into the dense arrays. Decode+scatter
// is linear and allocation-free once the scratch is warm, and the resulting
// schedules are identical to Schedule's by construction.

// FlatScratch holds reusable decode buffers and DAG arrays for flat
// scheduling calls.
type FlatScratch struct {
	instrs []rtl.Instr
	views  []*rtl.Instr
	fis    []rtl.FlatInstr
	dag    dag
}

// decodeBody materializes block bi's body (terminator excluded) into the
// scratch and returns the instruction views plus the terminator index (-1
// when the block has none). Call argument slices alias the flat arrays —
// the DAG only reads them.
func (sc *FlatScratch) decodeBody(f *rtl.FlatFn, bi int32) ([]*rtl.Instr, int32) {
	b := &f.Blocks[bi]
	end := b.InstrEnd
	ti := int32(-1)
	if end > b.InstrStart && f.Op[end-1].IsTerminator() {
		ti = end - 1
		end--
	}
	n := int(end - b.InstrStart)
	if cap(sc.instrs) < n {
		sc.instrs = make([]rtl.Instr, n)
		sc.views = make([]*rtl.Instr, n)
	}
	sc.instrs = sc.instrs[:n]
	sc.views = sc.views[:n]
	for j := 0; j < n; j++ {
		i := b.InstrStart + int32(j)
		in := &sc.instrs[j]
		*in = rtl.Instr{
			Op: f.Op[i], Dst: f.Dst[i], A: f.A[i], B: f.B[i], C: f.C[i],
			Width: f.Width[i], Signed: f.Signed[i], Disp: f.Disp[i],
		}
		if ci := f.CallIdx[i]; ci >= 0 {
			c := &f.Calls[ci]
			in.Args = f.Args[c.ArgStart:c.ArgEnd]
		}
		sc.views[j] = in
	}
	return sc.views, ti
}

// EstimateFlat is Estimate for block bi of a flat function.
func EstimateFlat(f *rtl.FlatFn, bi int32, m *machine.Machine, sc *FlatScratch) int {
	body, ti := sc.decodeBody(f, bi)
	_, _, cycles := sc.dag.schedule(body, m)
	if ti >= 0 {
		var term rtl.Instr
		term.Op = f.Op[ti]
		cycles += m.Sched.Of(&term)
	}
	return cycles
}

// ScheduleFlat is Schedule for block bi: the body is reordered in place in
// the dense arrays according to the list schedule.
func ScheduleFlat(f *rtl.FlatFn, bi int32, m *machine.Machine, sc *FlatScratch) int {
	body, ti := sc.decodeBody(f, bi)
	_, ord, cycles := sc.dag.schedule(body, m)
	b := &f.Blocks[bi]
	n := len(body)
	if cap(sc.fis) < n {
		sc.fis = make([]rtl.FlatInstr, n)
	}
	sc.fis = sc.fis[:n]
	for j := 0; j < n; j++ {
		sc.fis[j] = f.Instr(b.InstrStart + int32(j))
	}
	for pos, j := range ord {
		f.SetInstr(b.InstrStart+int32(pos), sc.fis[j])
	}
	if ti >= 0 {
		var term rtl.Instr
		term.Op = f.Op[ti]
		cycles += m.Sched.Of(&term)
	}
	return cycles
}

var scratches = sync.Pool{New: func() any { return new(FlatScratch) }}

// ScheduleFlatFn schedules every block of flat function fi on a pooled
// scratch.
func ScheduleFlatFn(fp *rtl.FlatProgram, fi int, m *machine.Machine) {
	f := &fp.Fns[fi]
	sc := scratches.Get().(*FlatScratch)
	for bi := range f.Blocks {
		ScheduleFlat(f, int32(bi), m, sc)
	}
	scratches.Put(sc)
}
