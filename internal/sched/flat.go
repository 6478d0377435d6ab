package sched

import (
	"sync"

	"macc/internal/machine"
	"macc/internal/rtl"
)

// Entry points for the list scheduler. The DAG build/order/makespan in
// sched.go reads a block body straight from the dense arrays; the
// permutation is then scattered back. Both are linear and allocation-free
// once the scratch is warm.

// FlatScratch holds the reusable DAG arrays and permutation buffer for flat
// scheduling calls.
type FlatScratch struct {
	fis []rtl.FlatInstr
	dag dag
}

// bodyOf returns the start and length of block bi's body (terminator
// excluded) and the terminator's latency (0 when the block has none).
func bodyOf(f *rtl.FlatFn, bi int32, m *machine.Machine) (start int32, n int, term int) {
	b := &f.Blocks[bi]
	end := b.InstrEnd
	if end > b.InstrStart && f.Op[end-1].IsTerminator() {
		end--
		term = m.Sched.Of(f.Op[end], f.Width[end])
	}
	return b.InstrStart, int(end - b.InstrStart), term
}

// EstimateFlat returns the scheduled cycle count of block bi without
// modifying it.
func EstimateFlat(f *rtl.FlatFn, bi int32, m *machine.Machine, sc *FlatScratch) int {
	start, n, term := bodyOf(f, bi, m)
	_, cycles := sc.dag.schedule(f, start, n, m)
	return cycles + term
}

// ScheduleFlat reorders block bi's body in place in the dense arrays
// according to the list schedule and returns the estimated cycle count.
func ScheduleFlat(f *rtl.FlatFn, bi int32, m *machine.Machine, sc *FlatScratch) int {
	start, n, term := bodyOf(f, bi, m)
	ord, cycles := sc.dag.schedule(f, start, n, m)
	if cap(sc.fis) < n {
		sc.fis = make([]rtl.FlatInstr, n)
	}
	sc.fis = sc.fis[:n]
	for j := range sc.fis {
		sc.fis[j] = f.Instr(start + int32(j))
	}
	for pos, j := range ord {
		f.SetInstr(start+int32(pos), sc.fis[j])
	}
	return cycles + term
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
