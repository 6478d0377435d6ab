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
	in       *rtl.Instr
	idx      int
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

// build constructs dependence edges over the block body (terminator
// excluded): register RAW/WAR/WAW, memory ordering with base+displacement
// disambiguation, and call barriers.
func (d *dag) build(instrs []*rtl.Instr, costs *machine.Costs) []node {
	n := len(instrs)
	if cap(d.nodes) < n {
		d.nodes = append(d.nodes[:cap(d.nodes)], make([]node, n-cap(d.nodes))...)
	}
	nodes := d.nodes[:n]
	for i, in := range instrs {
		nodes[i] = node{in: in, idx: i, preds: nodes[i].preds[:0], nsucc: nodes[i].nsucc[:0]}
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
	for _, in := range instrs {
		d.regs = in.Uses(d.regs[:0])
		if dst, ok := in.Def(); ok {
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
			if d, ok := instrs[k].Def(); ok && d == r {
				return true
			}
		}
		return false
	}
	overlaps := func(a, b *rtl.Instr) bool {
		ra, okA := a.A.IsReg()
		rb, okB := b.A.IsReg()
		if !okA || !okB || ra != rb {
			return true // different or unknown bases: assume aliasing
		}
		aLo, aHi := a.Disp, a.Disp+int64(a.Width)
		bLo, bHi := b.Disp, b.Disp+int64(b.Width)
		return aLo < bHi && bLo < aHi
	}

	for i, in := range instrs {
		// Register RAW edges.
		d.regs = in.Uses(d.regs[:0])
		for _, r := range d.regs {
			if di := lastDef[r]; di >= 0 {
				addEdge(di, i, costs.Of(instrs[di]))
			}
		}
		// Register WAR and WAW edges.
		dst, hasDef := in.Def()
		if hasDef {
			for _, ui := range lastUses[dst] {
				addEdge(ui, i, 0)
			}
			if di := lastDef[dst]; di >= 0 {
				addEdge(di, i, 0)
			}
		}
		// Memory ordering.
		if in.Op == rtl.Call {
			for _, mi := range d.memOps {
				addEdge(mi, i, 0)
			}
			if lastBarrier >= 0 {
				addEdge(lastBarrier, i, 0)
			}
			lastBarrier = i
		}
		if lastBarrier >= 0 && in.IsMem() {
			addEdge(lastBarrier, i, 0)
		}
		if in.IsMem() {
			for _, mi := range d.memOps {
				prev := instrs[mi]
				if prev.Op == rtl.Load && in.Op == rtl.Load {
					continue // loads commute
				}
				// A store is involved: keep order unless provably disjoint.
				if br, ok := in.A.IsReg(); ok {
					if pbr, ok2 := prev.A.IsReg(); ok2 && br == pbr && defsBetween(br, mi, i) {
						addEdge(mi, i, 0) // base changed: cannot disambiguate
						continue
					}
				}
				if overlaps(prev, in) {
					lat := 0
					if prev.Op == rtl.Store && in.Op == rtl.Load {
						lat = costs.Of(prev) // store-to-load forwarding delay
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
		nd.priority = costs.Of(nd.in)
		for _, s := range nd.nsucc {
			// Edge latency is stored on the successor's pred entry; use the
			// conservative producer latency for the path metric.
			if p := nodes[s].priority + costs.Of(nd.in); p > nd.priority {
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
func (d *dag) makespan(nodes []node, ord []int, costs *machine.Costs, pipelined bool) int {
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
			clock = start + costs.OccOf(nd.in)
		} else {
			clock = start + costs.Of(nd.in)
		}
	}
	// Account for the block's terminator/branch overhead.
	return clock
}

// schedule builds the block's DAG, orders it, and returns the order with
// its cycle count (terminator excluded).
func (d *dag) schedule(body []*rtl.Instr, m *machine.Machine) ([]node, []int, int) {
	nodes := d.build(body, &m.Sched)
	ord := d.order(nodes)
	return nodes, ord, d.makespan(nodes, ord, &m.Sched, m.Pipelined)
}
