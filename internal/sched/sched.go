// Package sched implements the dependence-DAG list scheduler vpo applies to
// basic blocks. The coalescer's profitability analysis (Figure 3 of the
// paper) calls EstimateFlat on the original loop body and on the coalesced
// copy and keeps whichever needs fewer cycles, so the scheduler's cost
// model is the machine's Sched table — what the compiler believes, which on
// the 68030 deliberately diverges from what the simulator delivers.
package sched

import (
	"macc/internal/machine"
	"macc/internal/rtl"
)

type node struct {
	idx      int
	lat      int // result latency under the scheduler's cost table
	occ      int // issue slots held on a pipelined machine
	preds    []pred
	nsucc    []int
	priority int // longest latency path to any sink
	indeg    int
}

type pred struct {
	idx int
	lat int // cycles that must elapse between issue of pred and this
}

// dag is the scheduler's working memory for one block at a time: the
// dependence nodes (whose edge lists keep their capacity) and the
// register-indexed last-definition and last-use tables, reused block after
// block so a warm scheduler allocates nothing.
type dag struct {
	nodes    []node
	lastDef  []int // reg -> instr index of last definition, -1 none
	lastUses [][]int
	touched  []rtl.Reg // registers whose table entries are set
	memOps   []int
	regs     []rtl.Reg
	indeg    []int
	ready    []int
	out      []int
	issueAt  []int
}

// track makes r's table entries addressable and remembers to reset them
// before the next block.
func (d *dag) track(r rtl.Reg) {
	for int(r) >= len(d.lastDef) {
		d.lastDef = append(d.lastDef, -1)
		d.lastUses = append(d.lastUses, nil)
	}
	d.touched = append(d.touched, r)
}

// uses sets d.regs to the registers instruction i of f reads.
func (d *dag) uses(f *rtl.FlatFn, i int32) {
	d.regs = d.regs[:0]
	f.SrcSlots(i, func(o *rtl.Operand) {
		if o.Kind == rtl.KindReg {
			d.regs = append(d.regs, o.Reg)
		}
	})
}

// build constructs dependence edges over the n instructions of f starting
// at start (a block body, terminator excluded): register RAW/WAR/WAW,
// memory ordering with base+displacement disambiguation, and call barriers.
// Node j is instruction start+j.
func (d *dag) build(f *rtl.FlatFn, start int32, n int, costs *machine.Costs) []node {
	if cap(d.nodes) < n {
		d.nodes = append(d.nodes[:cap(d.nodes)], make([]node, n-cap(d.nodes))...)
	}
	nodes := d.nodes[:n]
	for j := range nodes {
		i := start + int32(j)
		op, w := f.Op[i], f.Width[i]
		nodes[j] = node{idx: j, lat: costs.Of(op, w), occ: costs.OccOf(op, w),
			preds: nodes[j].preds[:0], nsucc: nodes[j].nsucc[:0]}
	}
	addEdge := func(from, to, lat int) {
		if from == to {
			return
		}
		nodes[to].preds = append(nodes[to].preds, pred{idx: from, lat: lat})
		nodes[from].nsucc = append(nodes[from].nsucc, to)
		nodes[to].indeg++
	}
	for _, r := range d.touched {
		d.lastDef[r] = -1
		d.lastUses[r] = d.lastUses[r][:0]
	}
	d.touched = d.touched[:0]
	for j := 0; j < n; j++ {
		d.uses(f, start+int32(j))
		if dst, ok := f.Def(start + int32(j)); ok {
			d.regs = append(d.regs, dst)
		}
		for _, r := range d.regs {
			d.track(r)
		}
	}
	d.memOps = d.memOps[:0]
	lastDef, lastUses := d.lastDef, d.lastUses
	lastBarrier := -1

	defsBetween := func(r rtl.Reg, i, j int) bool {
		for k := i + 1; k <= j; k++ {
			if d, ok := f.Def(start + int32(k)); ok && d == r {
				return true
			}
		}
		return false
	}
	overlaps := func(a, b int32) bool {
		ra, okA := f.A[a].IsReg()
		rb, okB := f.A[b].IsReg()
		if !okA || !okB || ra != rb {
			return true // different or unknown bases: assume aliasing
		}
		aLo, aHi := f.Disp[a], f.Disp[a]+int64(f.Width[a])
		bLo, bHi := f.Disp[b], f.Disp[b]+int64(f.Width[b])
		return aLo < bHi && bLo < aHi
	}

	for i := 0; i < n; i++ {
		fi := start + int32(i)
		op := f.Op[fi]
		// Register RAW edges.
		d.uses(f, fi)
		for _, r := range d.regs {
			if di := lastDef[r]; di >= 0 {
				addEdge(di, i, nodes[di].lat)
			}
		}
		// Register WAR and WAW edges.
		dst, hasDef := f.Def(fi)
		if hasDef {
			for _, ui := range lastUses[dst] {
				addEdge(ui, i, 0)
			}
			if di := lastDef[dst]; di >= 0 {
				addEdge(di, i, 0)
			}
		}
		// Memory ordering.
		if op == rtl.Call {
			for _, mi := range d.memOps {
				addEdge(mi, i, 0)
			}
			if lastBarrier >= 0 {
				addEdge(lastBarrier, i, 0)
			}
			lastBarrier = i
		}
		isMem := f.IsMem(fi)
		if lastBarrier >= 0 && isMem {
			addEdge(lastBarrier, i, 0)
		}
		if isMem {
			for _, mi := range d.memOps {
				prev := start + int32(mi)
				if f.Op[prev] == rtl.Load && op == rtl.Load {
					continue // loads commute
				}
				// A store is involved: keep order unless provably disjoint.
				if br, ok := f.A[fi].IsReg(); ok {
					if pbr, ok2 := f.A[prev].IsReg(); ok2 && br == pbr && defsBetween(br, mi, i) {
						addEdge(mi, i, 0) // base changed: cannot disambiguate
						continue
					}
				}
				if overlaps(prev, fi) {
					lat := 0
					if f.Op[prev] == rtl.Store && op == rtl.Load {
						lat = nodes[mi].lat // store-to-load forwarding delay
					}
					addEdge(mi, i, lat)
				}
			}
			d.memOps = append(d.memOps, i)
		}

		// Update tables.
		for _, r := range d.regs {
			lastUses[r] = append(lastUses[r], i)
		}
		if hasDef {
			lastDef[dst] = i
			lastUses[dst] = lastUses[dst][:0]
		}
	}

	// Priorities: longest path (by latency) to a sink, computed backwards.
	for i := n - 1; i >= 0; i-- {
		nd := &nodes[i]
		nd.priority = nd.lat
		for _, s := range nd.nsucc {
			// Edge latency is stored on the successor's pred entry; use the
			// conservative producer latency for the path metric.
			if p := nodes[s].priority + nd.lat; p > nd.priority {
				nd.priority = p
			}
		}
	}
	return nodes
}

// order produces a list schedule: repeatedly issue the ready node with the
// longest critical path, tie-broken by original position (stability).
func (d *dag) order(nodes []node) []int {
	d.indeg = d.indeg[:0]
	d.ready = d.ready[:0]
	for i := range nodes {
		d.indeg = append(d.indeg, nodes[i].indeg)
		if nodes[i].indeg == 0 {
			d.ready = append(d.ready, i)
		}
	}
	indeg := d.indeg
	out := d.out[:0]
	for len(d.ready) > 0 {
		// The ready node first in (priority desc, position asc) order; the
		// order is total, so picking it is what sorting the list would do.
		best := 0
		for k := 1; k < len(d.ready); k++ {
			a, b := &nodes[d.ready[k]], &nodes[d.ready[best]]
			if a.priority > b.priority || (a.priority == b.priority && a.idx < b.idx) {
				best = k
			}
		}
		pick := d.ready[best]
		last := len(d.ready) - 1
		d.ready[best] = d.ready[last]
		d.ready = d.ready[:last]
		out = append(out, pick)
		for _, s := range nodes[pick].nsucc {
			indeg[s]--
			if indeg[s] == 0 {
				d.ready = append(d.ready, s)
			}
		}
	}
	d.out = out
	return out
}

// makespan simulates in-order single-issue execution of the given order and
// returns the cycle count, mirroring the simulator's pipeline model.
func (d *dag) makespan(nodes []node, ord []int, pipelined bool) int {
	d.issueAt = append(d.issueAt[:0], make([]int, len(nodes))...)
	issueAt := d.issueAt
	clock := 0
	for _, i := range ord {
		nd := &nodes[i]
		start := clock
		for _, p := range nd.preds {
			if t := issueAt[p.idx] + p.lat; t > start {
				start = t
			}
		}
		issueAt[i] = start
		if pipelined {
			clock = start + nd.occ
		} else {
			clock = start + nd.lat
		}
	}
	// Account for the block's terminator/branch overhead.
	return clock
}

// schedule builds the DAG of the n instructions at start, orders it, and
// returns the order with its cycle count (terminator excluded).
func (d *dag) schedule(f *rtl.FlatFn, start int32, n int, m *machine.Machine) ([]int, int) {
	nodes := d.build(f, start, n, &m.Sched)
	ord := d.order(nodes)
	return ord, d.makespan(nodes, ord, m.Pipelined)
}
