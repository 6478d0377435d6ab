// Predecoded execution core. Decoding happens once per Sim: each function
// of the flat program image is compiled into a dense []dInstr array that the
// hot loop runs without touching the RTL again.
//
//   - Operands are register-file slots. Constants are interned per function
//     into slots after the virtual registers, and one always-ready zero slot
//     stands in for absent operands, so every operand read is one indexed
//     load and an instruction issues at max(clock, ready[a], ready[b])
//     without a branch (Insert, the one three-operand op, adds ready[c]).
//   - Opcodes are specialized by (op, width, signed): each ALU operation,
//     compare, shift direction and load variant has a straight-line handler;
//     only Div and Rem go through rtl.EvalBinary.
//   - Costs are resolved from the machine's Exec table, including the clock
//     advance (occupancy when pipelined, latency otherwise).
//   - The instruction cache is probed only where a fetch can miss: at a block
//     start, at the first instruction on a new line, and after a Call.
//   - Fuel and the instruction count are charged once per straight-line
//     segment (a block, split after each Call); a mid-segment trap refunds
//     the instructions it did not reach, and a segment longer than the fuel
//     left stops exactly where the budget runs out.
//   - Call-only fields (callee, argument slots) live in a per-function side
//     table, which keeps dInstr to 56 bytes.
//
// Decoding does not allocate per instruction, and the decoded image is
// reused across Reset and every Run.
package sim

import (
	"encoding/binary"
	"fmt"

	"macc/internal/rtl"
)

// xop is an opcode specialized by width and signedness.
type xop uint8

const (
	// xBad is the sentinel after every block: running past a block's last
	// instruction traps without consuming fuel or statistics.
	xBad xop = iota
	xNop
	xMov
	xNeg
	xNot
	xAdd
	xSub
	xMul
	xDivRem // Div and Rem: rtl.EvalBinary, trapping on a zero divisor
	xAnd
	xOr
	xXor
	xShl
	xShrS
	xShrU
	xEQ
	xNE
	xLTS
	xLTU
	xLES
	xLEU
	xGTS
	xGTU
	xGES
	xGEU
	xLd1S
	xLd1U
	xLd2S
	xLd2U
	xLd4S
	xLd4U
	xLd8
	xLoad // any other width
	xSt1
	xSt2
	xSt4
	xSt8
	xStore // any other width
	xExtract
	xInsert
	xJump
	xBranch
	xRet
	xCall
	xUnknown // traps as an unknown opcode
)

// dInstr is one predecoded instruction.
type dInstr struct {
	disp    int64
	a, b, c int32 // source operand slots (the zero slot when unused)
	dst     int32 // destination slot (the sink slot when none)
	lat     int32 // Exec latency: when the result is ready
	adv     int32 // clock advance: occupancy if pipelined, else latency
	iline   int32 // icache line of the static address
	iset    int32 // icache set of that line
	target  int32 // taken-branch block index; Call: index into dFn.calls
	els     int32 // fall-through block index
	op      xop
	rop     rtl.Op // source opcode (Div/Rem, and error messages)
	width   rtl.Width
	signed  bool
	probe   bool // fetching this instruction probes the icache
}

// dCall is the side-table entry of one Call instruction.
type dCall struct {
	callee *dFn // nil traps at execution
	name   string
	args   []int32 // argument operand slots
	seg    int32   // length of the segment after the call
}

// dBlock ties a decoded block to its code range, plus the name and length
// the profiler reports.
type dBlock struct {
	name   string
	start  int32 // index of the block's first instruction in dFn.code
	ninstr int32 // source instructions in the block (sentinels excluded)
	seg    int32 // length of the block's first segment
}

// slot is one register-file entry: a value and the cycle it is ready.
type slot struct {
	v, r int64
}

// dFn is one predecoded function.
type dFn struct {
	name       string
	params     []rtl.Reg // slots of the parameters
	init       []slot    // initial register file: zeros, zero/sink slots, constants
	frameBytes int64
	frameReg   int32
	code       []dInstr
	blocks     []dBlock // real blocks followed by one phantom entry
	calls      []dCall
	execs      []int64 // per-block execution counts; nil unless profiling
}

// image is a fully decoded program.
type image struct {
	fns []dFn
}

// fn returns the named function, or nil.
func (img *image) fn(name string) *dFn {
	for i := range img.fns {
		if img.fns[i].name == name {
			return &img.fns[i]
		}
	}
	return nil
}

// Fixed slots after a function's virtual registers; interned constants
// follow them.
const (
	zeroOff = 0 // always 0 and always ready: absent operands
	sinkOff = 1 // written by instructions that define no register
	nFixed  = 2
)

// decodeScratch is the per-decode working state, reused across functions.
type decodeScratch struct {
	consts map[int64]int32
	vals   []int64
}

// specialize maps a source opcode to its specialized handler.
func specialize(op rtl.Op, w rtl.Width, signed bool) xop {
	pick := func(s, u xop) xop {
		if signed {
			return s
		}
		return u
	}
	switch op {
	case rtl.Nop:
		return xNop
	case rtl.Mov:
		return xMov
	case rtl.Neg:
		return xNeg
	case rtl.Not:
		return xNot
	case rtl.Add:
		return xAdd
	case rtl.Sub:
		return xSub
	case rtl.Mul:
		return xMul
	case rtl.Div, rtl.Rem:
		return xDivRem
	case rtl.And:
		return xAnd
	case rtl.Or:
		return xOr
	case rtl.Xor:
		return xXor
	case rtl.Shl:
		return xShl
	case rtl.Shr:
		return pick(xShrS, xShrU)
	case rtl.SetEQ:
		return xEQ
	case rtl.SetNE:
		return xNE
	case rtl.SetLT:
		return pick(xLTS, xLTU)
	case rtl.SetLE:
		return pick(xLES, xLEU)
	case rtl.SetGT:
		return pick(xGTS, xGTU)
	case rtl.SetGE:
		return pick(xGES, xGEU)
	case rtl.Load:
		switch w {
		case rtl.W1:
			return pick(xLd1S, xLd1U)
		case rtl.W2:
			return pick(xLd2S, xLd2U)
		case rtl.W4:
			return pick(xLd4S, xLd4U)
		case rtl.W8:
			return xLd8
		}
		return xLoad
	case rtl.Store:
		switch w {
		case rtl.W1:
			return xSt1
		case rtl.W2:
			return xSt2
		case rtl.W4:
			return xSt4
		case rtl.W8:
			return xSt8
		}
		return xStore
	case rtl.Extract:
		return xExtract
	case rtl.Insert:
		return xInsert
	case rtl.Jump:
		return xJump
	case rtl.Branch:
		return xBranch
	case rtl.Ret:
		return xRet
	case rtl.Call:
		return xCall
	}
	return xUnknown
}

// segLen returns the length of the straight-line segment starting at pc:
// up to and including the next control transfer or Call, or up to the
// sentinel that ends a block without one.
func segLen(code []dInstr, pc int32) int32 {
	n := int32(0)
	for ; ; pc++ {
		switch code[pc].op {
		case xBad:
			return n
		case xJump, xBranch, xRet, xCall:
			return n + 1
		}
		n++
	}
}

// numRegs is the size of f's virtual register file: its register counter,
// widened to cover every register the code names, so a malformed image
// cannot index past the frame.
func numRegs(f *rtl.FlatFn) int32 {
	n := int32(f.NextReg)
	see := func(r rtl.Reg) {
		if int32(r) >= n {
			n = int32(r) + 1
		}
	}
	for _, p := range f.Params {
		see(p)
	}
	see(f.FrameReg)
	for i := range f.Op {
		see(f.Dst[i])
		for _, o := range [...]rtl.Operand{f.A[i], f.B[i], f.C[i]} {
			if o.Kind == rtl.KindReg {
				see(o.Reg)
			}
		}
	}
	for _, o := range f.Args {
		if o.Kind == rtl.KindReg {
			see(o.Reg)
		}
	}
	return n
}

// decodeFlat compiles a flat program image against the machine model.
// Static addresses are assigned function by function, block by block,
// instruction by instruction (sentinels get no address), which fixes the
// instruction-cache geometry.
func (s *Sim) decodeFlat(fp *rtl.FlatProgram) *image {
	img := &image{fns: make([]dFn, len(fp.Fns))}
	for i := range fp.Fns {
		img.fns[i].name = fp.SymName(fp.Fns[i].Name)
	}
	sc := &decodeScratch{consts: make(map[int64]int32)}
	addr := int64(0)
	for fi := range fp.Fns {
		addr = s.decodeFn(img, &img.fns[fi], &fp.Fns[fi], fp, sc, addr)
	}
	return img
}

// decodeFn decodes one function whose first instruction sits at addr and
// returns the address after its last.
func (s *Sim) decodeFn(img *image, df *dFn, f *rtl.FlatFn, fp *rtl.FlatProgram, sc *decodeScratch, addr int64) int64 {
	nregs := numRegs(f)
	zero, sink := nregs+zeroOff, nregs+sinkOff
	clear(sc.consts)
	sc.vals = sc.vals[:0]
	operand := func(o rtl.Operand) int32 {
		switch o.Kind {
		case rtl.KindReg:
			if o.Reg >= 0 {
				return int32(o.Reg)
			}
		case rtl.KindConst:
			if k, ok := sc.consts[o.Const]; ok {
				return k
			}
			k := nregs + nFixed + int32(len(sc.vals))
			sc.consts[o.Const] = k
			sc.vals = append(sc.vals, o.Const)
			return k
		}
		return zero
	}

	df.params = f.Params
	df.frameBytes = f.FrameBytes
	df.frameReg = int32(f.FrameReg)
	if df.frameReg < 0 {
		df.frameReg = sink
	}
	nblk := int32(len(f.Blocks))
	df.code = make([]dInstr, 0, len(f.Op)+len(f.Blocks)+1)
	df.blocks = make([]dBlock, 0, nblk+1)
	df.calls = make([]dCall, 0, len(f.Calls))
	argSlots := make([]int32, 0, len(f.Args))
	block := func(t int32) int32 {
		switch {
		case t < 0:
			return 0 // no edge (the instruction does not branch)
		case t >= nblk:
			return nblk // off the function: the phantom block
		}
		return t
	}

	costs := &s.mach.Exec
	pipelined := s.mach.Pipelined
	nsets := int64(len(s.icache))
	bpi := int64(s.mach.BytesPerInstr)
	for bi := range f.Blocks {
		fb := &f.Blocks[bi]
		df.blocks = append(df.blocks, dBlock{
			name:   fp.SymName(fb.Name),
			start:  int32(len(df.code)),
			ninstr: fb.InstrEnd - fb.InstrStart,
		})
		prevLine := int64(-1)
		for i := fb.InstrStart; i < fb.InstrEnd; i++ {
			op, w := f.Op[i], f.Width[i]
			line := addr / icacheLineBytes
			lat := costs.Of(op, w)
			adv := lat
			if pipelined {
				adv = costs.OccOf(op, w)
			}
			d := dInstr{
				disp:   f.Disp[i],
				a:      zero,
				b:      zero,
				c:      zero,
				dst:    sink,
				lat:    int32(lat),
				adv:    int32(adv),
				iline:  int32(line),
				iset:   int32(line % nsets),
				target: block(f.Target[i]),
				els:    block(f.Else[i]),
				op:     specialize(op, w, f.Signed[i]),
				rop:    op,
				width:  w,
				signed: f.Signed[i],
				// Between two probes no other fetch can touch the icache:
				// control only enters a block at its start (prevLine is -1
				// there), and only a Call runs other code mid-block.
				probe: line != prevLine,
			}
			if op == rtl.Jump {
				d.els = d.target
			}
			if r := f.Dst[i]; r >= 0 {
				d.dst = int32(r)
			}
			switch n := op.SrcSlots(); {
			case n > 2:
				d.c = operand(f.C[i])
				fallthrough
			case n > 1:
				d.b = operand(f.B[i])
				fallthrough
			case n > 0:
				d.a = operand(f.A[i])
			}
			prevLine = line
			if op == rtl.Call {
				c := dCall{}
				if ci := f.CallIdx[i]; ci >= 0 {
					fc := &f.Calls[ci]
					c.name = fp.SymName(fc.Callee)
					c.callee = img.fn(c.name)
					start := len(argSlots)
					for _, a := range f.Args[fc.ArgStart:fc.ArgEnd] {
						argSlots = append(argSlots, operand(a))
					}
					c.args = argSlots[start:len(argSlots):len(argSlots)]
				}
				d.target = int32(len(df.calls))
				df.calls = append(df.calls, c)
				prevLine = -1 // the callee may evict the line
			}
			df.code = append(df.code, d)
			addr += bpi
		}
		df.code = append(df.code, dInstr{op: xBad, a: zero, b: zero, c: zero, dst: sink})
	}
	df.blocks = append(df.blocks, dBlock{start: int32(len(df.code))})
	df.code = append(df.code, dInstr{op: xBad, a: zero, b: zero, c: zero, dst: sink})

	for bi := range df.blocks {
		df.blocks[bi].seg = segLen(df.code, df.blocks[bi].start)
	}
	for pc := range df.code {
		if d := &df.code[pc]; d.op == xCall {
			df.calls[d.target].seg = segLen(df.code, int32(pc)+1)
		}
	}
	df.init = make([]slot, int(nregs)+nFixed+len(sc.vals))
	for k, v := range sc.vals {
		df.init[int(nregs)+nFixed+k].v = v
	}
	return addr
}

// charge takes the fuel for the segment of n instructions starting at pc.
// It returns -1 when the fuel covers the segment, and otherwise the pc at
// which the fuel runs out, having charged the instructions before it.
func (s *Sim) charge(pc, n int32) int32 {
	if int64(n) <= s.fuel {
		s.fuel -= int64(n)
		return -1
	}
	stop := pc + int32(s.fuel)
	s.fuel = 0
	return stop
}

// fault returns trap t raised by the instruction at pc, refunding the fuel
// charged for the rest of its segment so the instruction count stays exact.
func (s *Sim) fault(code []dInstr, pc, stop int32, t *Trap) (int64, int64, error) {
	end := stop
	if end < 0 {
		end = pc + segLen(code, pc)
	}
	s.fuel += int64(end - pc - 1)
	return 0, 0, t
}

// b2i converts a comparison outcome to the 0/1 value Set* defines.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// dhit reports whether an in-bounds access of w bytes at addr hits within
// one resident D-cache line. It is the inline fast path; every other access
// is charged by dcacheAccess.
func (s *Sim) dhit(addr, w int64) bool {
	line := addr >> 4
	return (addr&(dcacheLineBytes-1))+w <= dcacheLineBytes && s.dfast[line&s.dmask] == line
}

// exec is the hot loop: it interprets one decoded function over its
// register file sl and returns the function's result and clock. Cycle
// accounting: an instruction issues when its operands are ready, advances
// the clock by its occupancy (pipelined) or latency, and its result is
// ready after its latency; cache stalls add to the clock, and for loads to
// the result's ready time.
func (s *Sim) exec(df *dFn, sl []slot, depth int) (int64, int64, error) {
	// Few locals live across the loop: everything used only by some
	// handlers is read through s, which keeps the loop's state in
	// registers.
	code := df.code
	clock := int64(0)
	pc := df.blocks[0].start
	if s.profiling {
		df.execs[0]++
	}
	stop := s.charge(pc, df.blocks[0].seg) // pc at which the fuel runs out, or -1
	for {
		if pc == stop {
			return 0, 0, &Trap{Kind: TrapFuel, Fn: df.name}
		}
		d := &code[pc]
		if d.probe && s.icache[d.iset] != d.iline {
			s.icache[d.iset] = d.iline
			s.stats.ICacheMisses++
			clock += s.ipenalty
		}
		issue := max(clock, sl[d.a].r, sl[d.b].r) // only Insert reads c
		clock = issue + int64(d.adv)
		done := issue + int64(d.lat)

		switch d.op {
		case xBad:
			return 0, 0, &Trap{Kind: TrapBadProgram, Fn: df.name, Msg: "block without terminator"}
		case xNop:
		case xMov:
			sl[d.dst] = slot{sl[d.a].v, done}
		case xNeg:
			sl[d.dst] = slot{-sl[d.a].v, done}
		case xNot:
			sl[d.dst] = slot{^sl[d.a].v, done}
		case xAdd:
			sl[d.dst] = slot{sl[d.a].v + sl[d.b].v, done}
		case xSub:
			sl[d.dst] = slot{sl[d.a].v - sl[d.b].v, done}
		case xMul:
			sl[d.dst] = slot{sl[d.a].v * sl[d.b].v, done}
		case xDivRem:
			v, ok := rtl.EvalBinary(d.rop, sl[d.a].v, sl[d.b].v, d.signed)
			if !ok {
				return s.fault(code, pc, stop, &Trap{Kind: TrapDivideByZero, Fn: df.name})
			}
			sl[d.dst] = slot{v, done}
		case xAnd:
			sl[d.dst] = slot{sl[d.a].v & sl[d.b].v, done}
		case xOr:
			sl[d.dst] = slot{sl[d.a].v | sl[d.b].v, done}
		case xXor:
			sl[d.dst] = slot{sl[d.a].v ^ sl[d.b].v, done}
		case xShl:
			sl[d.dst] = slot{sl[d.a].v << (uint64(sl[d.b].v) & 63), done}
		case xShrS:
			sl[d.dst] = slot{sl[d.a].v >> (uint64(sl[d.b].v) & 63), done}
		case xShrU:
			sl[d.dst] = slot{int64(uint64(sl[d.a].v) >> (uint64(sl[d.b].v) & 63)), done}
		case xEQ:
			sl[d.dst] = slot{b2i(sl[d.a].v == sl[d.b].v), done}
		case xNE:
			sl[d.dst] = slot{b2i(sl[d.a].v != sl[d.b].v), done}
		case xLTS:
			sl[d.dst] = slot{b2i(sl[d.a].v < sl[d.b].v), done}
		case xLTU:
			sl[d.dst] = slot{b2i(uint64(sl[d.a].v) < uint64(sl[d.b].v)), done}
		case xLES:
			sl[d.dst] = slot{b2i(sl[d.a].v <= sl[d.b].v), done}
		case xLEU:
			sl[d.dst] = slot{b2i(uint64(sl[d.a].v) <= uint64(sl[d.b].v)), done}
		case xGTS:
			sl[d.dst] = slot{b2i(sl[d.a].v > sl[d.b].v), done}
		case xGTU:
			sl[d.dst] = slot{b2i(uint64(sl[d.a].v) > uint64(sl[d.b].v)), done}
		case xGES:
			sl[d.dst] = slot{b2i(sl[d.a].v >= sl[d.b].v), done}
		case xGEU:
			sl[d.dst] = slot{b2i(uint64(sl[d.a].v) >= uint64(sl[d.b].v)), done}

		// Loads and stores: one bounds-and-alignment test (amask is zero
		// on machines that allow misalignment); a failing access takes the
		// trap path.
		case xLd1S:
			addr := sl[d.a].v + d.disp
			if uint64(addr) >= s.lim[1] {
				return s.fault(code, pc, stop, s.checkAddr(df.name, addr, 1))
			}
			s.loadsW[1]++
			if !s.dhit(addr, 1) {
				stall := s.dcacheAccess(addr, 1)
				clock, done = clock+stall, done+stall
			}
			sl[d.dst] = slot{int64(int8(s.Mem[addr])), done}
		case xLd1U:
			addr := sl[d.a].v + d.disp
			if uint64(addr) >= s.lim[1] {
				return s.fault(code, pc, stop, s.checkAddr(df.name, addr, 1))
			}
			s.loadsW[1]++
			if !s.dhit(addr, 1) {
				stall := s.dcacheAccess(addr, 1)
				clock, done = clock+stall, done+stall
			}
			sl[d.dst] = slot{int64(s.Mem[addr]), done}
		case xLd2S:
			addr := sl[d.a].v + d.disp
			if uint64(addr) >= s.lim[2] || addr&1&s.amask != 0 {
				return s.fault(code, pc, stop, s.checkAddr(df.name, addr, 2))
			}
			s.loadsW[2]++
			if !s.dhit(addr, 2) {
				stall := s.dcacheAccess(addr, 2)
				clock, done = clock+stall, done+stall
			}
			sl[d.dst] = slot{int64(int16(binary.LittleEndian.Uint16(s.Mem[addr:]))), done}
		case xLd2U:
			addr := sl[d.a].v + d.disp
			if uint64(addr) >= s.lim[2] || addr&1&s.amask != 0 {
				return s.fault(code, pc, stop, s.checkAddr(df.name, addr, 2))
			}
			s.loadsW[2]++
			if !s.dhit(addr, 2) {
				stall := s.dcacheAccess(addr, 2)
				clock, done = clock+stall, done+stall
			}
			sl[d.dst] = slot{int64(binary.LittleEndian.Uint16(s.Mem[addr:])), done}
		case xLd4S:
			addr := sl[d.a].v + d.disp
			if uint64(addr) >= s.lim[4] || addr&3&s.amask != 0 {
				return s.fault(code, pc, stop, s.checkAddr(df.name, addr, 4))
			}
			s.loadsW[4]++
			if !s.dhit(addr, 4) {
				stall := s.dcacheAccess(addr, 4)
				clock, done = clock+stall, done+stall
			}
			sl[d.dst] = slot{int64(int32(binary.LittleEndian.Uint32(s.Mem[addr:]))), done}
		case xLd4U:
			addr := sl[d.a].v + d.disp
			if uint64(addr) >= s.lim[4] || addr&3&s.amask != 0 {
				return s.fault(code, pc, stop, s.checkAddr(df.name, addr, 4))
			}
			s.loadsW[4]++
			if !s.dhit(addr, 4) {
				stall := s.dcacheAccess(addr, 4)
				clock, done = clock+stall, done+stall
			}
			sl[d.dst] = slot{int64(binary.LittleEndian.Uint32(s.Mem[addr:])), done}
		case xLd8:
			addr := sl[d.a].v + d.disp
			if uint64(addr) >= s.lim[8] || addr&7&s.amask != 0 {
				return s.fault(code, pc, stop, s.checkAddr(df.name, addr, 8))
			}
			s.loadsW[8]++
			if !s.dhit(addr, 8) {
				stall := s.dcacheAccess(addr, 8)
				clock, done = clock+stall, done+stall
			}
			sl[d.dst] = slot{int64(binary.LittleEndian.Uint64(s.Mem[addr:])), done}
		case xLoad:
			addr := sl[d.a].v + d.disp
			v, trap := s.load(df.name, addr, d.width, d.signed)
			if trap != nil {
				return s.fault(code, pc, stop, trap)
			}
			s.loadsW[d.width]++
			stall := s.dcacheAccess(addr, d.width)
			clock += stall
			sl[d.dst] = slot{v, done + stall}
		case xSt1:
			addr := sl[d.a].v + d.disp
			if uint64(addr) >= s.lim[1] {
				return s.fault(code, pc, stop, s.checkAddr(df.name, addr, 1))
			}
			s.Mem[addr] = byte(sl[d.b].v)
			s.markDirty(addr, 1)
			s.storesW[1]++
			if !s.dhit(addr, 1) {
				clock += s.dcacheAccess(addr, 1)
			}
		case xSt2:
			addr := sl[d.a].v + d.disp
			if uint64(addr) >= s.lim[2] || addr&1&s.amask != 0 {
				return s.fault(code, pc, stop, s.checkAddr(df.name, addr, 2))
			}
			binary.LittleEndian.PutUint16(s.Mem[addr:], uint16(sl[d.b].v))
			s.markDirty(addr, 2)
			s.storesW[2]++
			if !s.dhit(addr, 2) {
				clock += s.dcacheAccess(addr, 2)
			}
		case xSt4:
			addr := sl[d.a].v + d.disp
			if uint64(addr) >= s.lim[4] || addr&3&s.amask != 0 {
				return s.fault(code, pc, stop, s.checkAddr(df.name, addr, 4))
			}
			binary.LittleEndian.PutUint32(s.Mem[addr:], uint32(sl[d.b].v))
			s.markDirty(addr, 4)
			s.storesW[4]++
			if !s.dhit(addr, 4) {
				clock += s.dcacheAccess(addr, 4)
			}
		case xSt8:
			addr := sl[d.a].v + d.disp
			if uint64(addr) >= s.lim[8] || addr&7&s.amask != 0 {
				return s.fault(code, pc, stop, s.checkAddr(df.name, addr, 8))
			}
			binary.LittleEndian.PutUint64(s.Mem[addr:], uint64(sl[d.b].v))
			s.markDirty(addr, 8)
			s.storesW[8]++
			if !s.dhit(addr, 8) {
				clock += s.dcacheAccess(addr, 8)
			}
		case xStore:
			addr := sl[d.a].v + d.disp
			if trap := s.store(df.name, addr, d.width, sl[d.b].v); trap != nil {
				return s.fault(code, pc, stop, trap)
			}
			s.storesW[d.width]++
			clock += s.dcacheAccess(addr, d.width)

		case xExtract:
			sl[d.dst] = slot{rtl.EvalExtract(sl[d.a].v, sl[d.b].v, d.width, d.signed), done}
		case xInsert:
			issue = max(issue, sl[d.c].r)
			clock = issue + int64(d.adv)
			sl[d.dst] = slot{rtl.EvalInsert(sl[d.a].v, sl[d.b].v, sl[d.c].v, d.width), issue + int64(d.lat)}

		case xJump, xBranch:
			s.stats.Branches++
			bi := d.target // a Jump's condition is the zero slot and its els its target
			if sl[d.a].v == 0 {
				bi = d.els
			}
			if s.profiling {
				df.execs[bi]++
			}
			b := &df.blocks[bi]
			pc = b.start
			stop = s.charge(pc, b.seg)
			continue
		case xRet:
			return sl[d.a].v, clock, nil
		case xCall:
			c := &df.calls[d.target]
			for _, a := range c.args {
				issue = max(issue, sl[a].r)
			}
			done = issue + int64(d.lat)
			if c.callee == nil {
				return s.fault(code, pc, stop, &Trap{Kind: TrapBadProgram, Fn: df.name,
					Msg: "call to undefined function " + c.name})
			}
			args := s.argbuf[:0]
			for _, a := range c.args {
				args = append(args, sl[a].v)
			}
			s.argbuf = args
			rv, sub, err := s.invoke(c.callee, args, depth+1)
			if err != nil {
				return 0, 0, err
			}
			clock = done + sub
			sl[d.dst] = slot{rv, clock}
			pc++
			stop = s.charge(pc, c.seg)
			continue
		default:
			return s.fault(code, pc, stop, &Trap{Kind: TrapBadProgram, Fn: df.name,
				Msg: "unknown opcode " + d.rop.String()})
		}
		pc++
	}
}

// invoke calls df with args at the given call depth: it checks the call,
// sets up the register file and the stack frame, and runs the body.
func (s *Sim) invoke(df *dFn, args []int64, depth int) (int64, int64, error) {
	if depth > maxCallDepth {
		return 0, 0, &Trap{Kind: TrapBadProgram, Fn: df.name, Msg: "call depth exceeded"}
	}
	if len(args) != len(df.params) {
		return 0, 0, &Trap{Kind: TrapBadProgram, Fn: df.name,
			Msg: fmt.Sprintf("expected %d arguments, got %d", len(df.params), len(args))}
	}
	sl := s.frames.get(df.init)
	defer s.frames.put(sl)
	for i, p := range df.params {
		sl[p].v = args[i]
	}
	if df.frameBytes > 0 {
		s.stackTop -= df.frameBytes
		if s.stackTop < 0 {
			return 0, 0, &Trap{Kind: TrapOutOfBounds, Fn: df.name, Addr: s.stackTop,
				Msg: "stack overflow"}
		}
		s.frameLow = min(s.frameLow, s.stackTop)
		sl[df.frameReg].v = s.stackTop
		defer func() { s.stackTop += df.frameBytes }()
	}
	return s.exec(df, sl, depth)
}

// frameCache recycles register files across calls and Runs, so a
// measurement loop does not reallocate one per simulated call.
type frameCache struct {
	free [][]slot
}

// get returns a register file initialized from init.
func (c *frameCache) get(init []slot) []slot {
	var fr []slot
	if n := len(c.free); n > 0 && cap(c.free[n-1]) >= len(init) {
		fr = c.free[n-1][:len(init)]
		c.free = c.free[:n-1]
	} else {
		fr = make([]slot, len(init))
	}
	copy(fr, init)
	return fr
}

func (c *frameCache) put(fr []slot) { c.free = append(c.free, fr) }
