package core

import (
	"math/bits"
	"sort"

	"macc/internal/iv"
	"macc/internal/machine"
	"macc/internal/rtl"
)

// emitChecks generates the run-time alias and alignment tests into
// preheader block ph of f (the paper's InsertAlignmentCheckInPreheader and
// InsertAliasingChecksInPreheader). It returns the combined "all checks
// pass" condition (Kind None when no checks were necessary), and the number
// of instructions, alias pairs, and alignment tests emitted.
//
// Alias checking compares the byte ranges two partitions sweep during the
// loop: with T an over-approximate trip count, partition X with entry
// pointer pX, step sX, and displacement envelope [minD, maxD+w) covers
// [pX+minD, pX+T*sX+maxD+w+|sX|) for forward motion (mirrored for
// backward). Two ranges are safe when one ends before the other begins.
// The over-approximation only ever sends execution to the safe loop.
func emitChecks(f *rtl.FlatFn, ph int32, parts map[rtl.Reg]*partition, m *machine.Machine,
	chunks []*chunk, info *iv.FlatInfo) (okCond rtl.Operand, nInstrs, nPairs, nAligns int, ok bool) {

	// Check instructions are pure ALU ops (no control flow, no calls):
	// each defines a fresh register from two operands.
	emit := func(op rtl.Op, signed bool, a, b rtl.Operand) rtl.Operand {
		in := rtl.MkInstr(op)
		in.Dst = f.NewReg()
		in.A = a
		in.B = b
		in.Signed = signed
		f.AppendInstr(ph, in)
		nInstrs++
		return rtl.R(in.Dst)
	}

	var acc rtl.Operand
	combine := func(cond rtl.Operand) {
		if acc.Kind == rtl.KindNone {
			acc = cond
			return
		}
		acc = emit(rtl.And, false, acc, cond)
	}

	// Alignment checks: ((base + minDisp) & (wide-1)) == 0, deduplicated.
	if m.MustAlign {
		type alignKey struct {
			base rtl.Reg
			wide rtl.Width
			res  int64
		}
		seen := make(map[alignKey]bool)
		for _, c := range chunks {
			res := ((c.minDisp % int64(c.wide)) + int64(c.wide)) % int64(c.wide)
			k := alignKey{c.part.base, c.wide, res}
			if seen[k] {
				continue
			}
			seen[k] = true
			addr := rtl.R(c.part.base)
			if c.minDisp != 0 {
				addr = emit(rtl.Add, false, addr, rtl.C(c.minDisp))
			}
			masked := emit(rtl.And, false, addr, rtl.C(int64(c.wide)-1))
			combine(emit(rtl.SetEQ, false, masked, rtl.C(0)))
			nAligns++
		}
	}

	// Alias pairs.
	type pairKey struct{ a, b rtl.Reg }
	pairs := make(map[pairKey]bool)
	for _, c := range chunks {
		for other := range c.needsAliasCheck {
			a, b := c.part.base, other
			if a > b {
				a, b = b, a
			}
			pairs[pairKey{a, b}] = true
		}
	}
	if len(pairs) > 0 {
		if info.Control == nil {
			return rtl.Operand{}, nInstrs, 0, nAligns, false
		}
		ctlIV, bound := info.Control.IV, info.Control.Bound
		ctlStep, isIV := ivStep(info, ctlIV)
		if !isIV {
			return rtl.Operand{}, nInstrs, 0, nAligns, false
		}
		// T = (bound - iv) / |step|  (signed; a non-positive result means
		// the loop will not run, and the guard prevents entry anyway).
		var diff rtl.Operand
		if ctlStep > 0 {
			diff = emit(rtl.Sub, false, bound, rtl.R(ctlIV))
		} else {
			diff = emit(rtl.Sub, false, rtl.R(ctlIV), bound)
		}
		abs := ctlStep
		if abs < 0 {
			abs = -abs
		}
		var trips rtl.Operand
		if abs&(abs-1) == 0 {
			trips = emit(rtl.Shr, true, diff, rtl.C(int64(bits.TrailingZeros64(uint64(abs)))))
		} else {
			trips = emit(rtl.Div, true, diff, rtl.C(abs))
		}

		// Each partition's swept range [lo, hi), emitted once per base from
		// the envelope classifyPartitions recorded.
		type sweep struct{ lo, hi rtl.Operand }
		ranges := make(map[rtl.Reg]sweep)
		boundsOf := func(base rtl.Reg) sweep {
			if r, ok := ranges[base]; ok {
				return r
			}
			p, b := parts[base], rtl.R(base)
			// delta = T * step
			delta := rtl.C(0)
			if p.step != 0 {
				delta = emit(rtl.Mul, false, trips, rtl.C(p.step))
			}
			// With T iterations the last access of a forward partition is
			// at base+(T-1)*step+maxDisp and touches maxWidth bytes; since
			// displacements stay below one step, base+T*step bounds it
			// exactly, keeping adjacent arrays distinguishable (the
			// paper's own check is the exact "b + n <= a" form).
			var r sweep
			switch {
			case p.step > 0:
				r.lo = emit(rtl.Add, false, b, rtl.C(p.minDisp))
				r.hi = emit(rtl.Add, false, b, delta)
				if extra := p.maxDisp + p.maxWidth - p.step; extra > 0 {
					r.hi = emit(rtl.Add, false, r.hi, rtl.C(extra))
				}
			case p.step < 0:
				r.lo = emit(rtl.Add, false, emit(rtl.Add, false, b, delta), rtl.C(p.minDisp))
				r.hi = emit(rtl.Add, false, b, rtl.C(p.maxDisp+p.maxWidth))
			default:
				r.lo = emit(rtl.Add, false, b, rtl.C(p.minDisp))
				r.hi = emit(rtl.Add, false, b, rtl.C(p.maxDisp+p.maxWidth))
			}
			ranges[base] = r
			return r
		}

		var keys []pairKey
		for k := range pairs {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].a != keys[j].a {
				return keys[i].a < keys[j].a
			}
			return keys[i].b < keys[j].b
		})
		for _, k := range keys {
			ra, rb := boundsOf(k.a), boundsOf(k.b)
			c1 := emit(rtl.SetLE, true, ra.hi, rb.lo)
			c2 := emit(rtl.SetLE, true, rb.hi, ra.lo)
			combine(emit(rtl.Or, false, c1, c2))
			nPairs++
		}
	}
	return acc, nInstrs, nPairs, nAligns, true
}
