// Package cfg provides control-flow analyses over flat rtl functions:
// predecessor maps, reverse postorder, dominator trees, and natural-loop
// detection with preheader insertion. The coalescing algorithm of the paper
// is driven by "for each loop in the current function" (Figure 2), and its
// run-time checks are emitted into loop preheaders, so these analyses are
// its substrate.
package cfg

import (
	"sort"

	"macc/internal/rtl"
)

// FlatGraph caches derived control-flow structure for one flat function:
// DFS predecessors, reverse postorder, Cooper–Harvey–Kennedy dominators, and
// natural-loop discovery, with block indices identifying blocks. Successors
// are read straight from the terminators' Target/Else fields, so the graph
// never depends on the (possibly stale) Succs/Preds edge tables. It becomes
// stale when the function's blocks or terminators change; refresh it with
// Rebuild. The traversal orders are deterministic (terminator order), so
// loops, predecessors, and preheaders are always discovered in the same
// order.
type FlatGraph struct {
	P  *rtl.FlatProgram
	F  *rtl.FlatFn
	Fi int
	// Preds lists each block's predecessors in DFS discovery order.
	Preds [][]int32
	// RPO is the reverse postorder over reachable blocks.
	RPO []int32
	// rpoIndex maps a block index to its position in RPO (-1 unreachable).
	rpoIndex []int32
	// idom maps each reachable block to its immediate dominator (-1 when
	// not computed; the entry maps to itself).
	idom []int32
	// post is the DFS postorder scratch, kept for Rebuild.
	post []int32
}

// FlatSuccs appends block bi's successor indices to buf, in terminator
// order (Jump: Target; Branch: Target then Else).
func FlatSuccs(f *rtl.FlatFn, bi int32, buf []int32) []int32 {
	ti, op, ok := f.TermIdx(bi)
	if !ok {
		return buf
	}
	switch op {
	case rtl.Jump:
		buf = append(buf, f.Target[ti])
	case rtl.Branch:
		buf = append(buf, f.Target[ti], f.Else[ti])
	}
	return buf
}

// NewFlat computes predecessors, reverse postorder, and dominators for
// function fi of fp.
func NewFlat(fp *rtl.FlatProgram, fi int) *FlatGraph {
	g := &FlatGraph{}
	g.Rebuild(fp, fi)
	return g
}

// Rebuild recomputes g for function fi of fp, reusing g's arrays when they
// are large enough — the cheap way to refresh a graph made stale by block
// or terminator edits.
func (g *FlatGraph) Rebuild(fp *rtl.FlatProgram, fi int) {
	f := &fp.Fns[fi]
	nb := len(f.Blocks)
	g.P, g.F, g.Fi = fp, f, fi
	if cap(g.Preds) < nb {
		g.Preds = append(g.Preds[:cap(g.Preds)], make([][]int32, nb-cap(g.Preds))...)
	}
	g.Preds = g.Preds[:nb]
	for i := range g.Preds {
		g.Preds[i] = g.Preds[i][:0]
	}
	g.rpoIndex = fill(g.rpoIndex, nb, -1)
	g.idom = fill(g.idom, nb, -1)
	g.post = g.post[:0]
	if nb > 0 {
		g.dfs(0)
	}
	g.RPO = g.RPO[:0]
	for i := len(g.post) - 1; i >= 0; i-- {
		g.rpoIndex[g.post[i]] = int32(len(g.RPO))
		g.RPO = append(g.RPO, g.post[i])
	}
	g.computeDominators()
}

// dfs visits b and its unvisited successors depth first, in terminator
// order, recording predecessors in discovery order and the postorder.
// rpoIndex doubles as the visited mark (-2) until the numbering pass.
func (g *FlatGraph) dfs(b int32) {
	g.rpoIndex[b] = -2
	// Per-frame successor buffer: the recursion below would clobber a
	// shared one before the second successor is visited.
	var sbuf [2]int32
	for _, s := range FlatSuccs(g.F, b, sbuf[:0]) {
		g.Preds[s] = append(g.Preds[s], b)
		if g.rpoIndex[s] == -1 {
			g.dfs(s)
		}
	}
	g.post = append(g.post, b)
}

// fill returns s with length n and every element set to v.
func fill(s []int32, n int, v int32) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// Reachable reports whether block bi is reachable from the entry.
func (g *FlatGraph) Reachable(bi int32) bool { return g.rpoIndex[bi] >= 0 }

func (g *FlatGraph) computeDominators() {
	if len(g.RPO) == 0 {
		return
	}
	entry := g.RPO[0]
	g.idom[entry] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range g.RPO[1:] {
			newIdom := int32(-1)
			for _, p := range g.Preds[b] {
				if g.idom[p] < 0 {
					continue // predecessor not yet processed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = g.intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && g.idom[b] != newIdom {
				g.idom[b] = newIdom
				changed = true
			}
		}
	}
}

func (g *FlatGraph) intersect(a, b int32) int32 {
	for a != b {
		for g.rpoIndex[a] > g.rpoIndex[b] {
			a = g.idom[a]
		}
		for g.rpoIndex[b] > g.rpoIndex[a] {
			b = g.idom[b]
		}
	}
	return a
}

// Dominates reports whether block a dominates block b (reflexively).
func (g *FlatGraph) Dominates(a, b int32) bool {
	if !g.Reachable(a) || !g.Reachable(b) {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := g.idom[b]
		if next == b {
			return false
		}
		b = next
	}
}

// FlatLoop is one natural loop, its blocks identified by index.
type FlatLoop struct {
	Header int32
	Latch  int32
	Blocks []int32
	// Preheader is the unique out-of-loop predecessor of the header once
	// EnsurePreheader has run; -1 before that.
	Preheader int32
	Exits     []int32

	inLoop []bool
}

// Contains reports whether block bi belongs to the loop.
func (l *FlatLoop) Contains(bi int32) bool { return int(bi) < len(l.inLoop) && l.inLoop[bi] }

// FindLoops returns the natural loops, merged by header and sorted
// innermost-first (fewer blocks, then header RPO position).
func (g *FlatGraph) FindLoops() []*FlatLoop {
	byHeader := make(map[int32]*FlatLoop)
	var sbuf [2]int32
	for _, b := range g.RPO {
		for _, s := range FlatSuccs(g.F, b, sbuf[:0]) {
			if g.Dominates(s, b) {
				// back edge b -> s
				l := byHeader[s]
				if l == nil {
					l = &FlatLoop{Header: s, Latch: b, Preheader: -1, inLoop: make([]bool, len(g.F.Blocks))}
					l.inLoop[s] = true
					byHeader[s] = l
				}
				l.collect(g, b)
			}
		}
	}
	var loops []*FlatLoop
	for _, l := range byHeader {
		for b := range l.inLoop {
			if l.inLoop[b] {
				l.Blocks = append(l.Blocks, int32(b))
			}
		}
		sort.Slice(l.Blocks, func(i, j int) bool {
			return g.rpoIndex[l.Blocks[i]] < g.rpoIndex[l.Blocks[j]]
		})
		l.findExits(g)
		loops = append(loops, l)
	}
	sort.Slice(loops, func(i, j int) bool {
		if len(loops[i].Blocks) != len(loops[j].Blocks) {
			return len(loops[i].Blocks) < len(loops[j].Blocks)
		}
		return g.rpoIndex[loops[i].Header] < g.rpoIndex[loops[j].Header]
	})
	return loops
}

func (l *FlatLoop) collect(g *FlatGraph, latch int32) {
	stack := []int32{latch}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if l.inLoop[b] {
			continue
		}
		l.inLoop[b] = true
		for _, p := range g.Preds[b] {
			if !l.inLoop[p] && g.Reachable(p) {
				stack = append(stack, p)
			}
		}
	}
}

func (l *FlatLoop) findExits(g *FlatGraph) {
	seen := make(map[int32]bool)
	l.Exits = nil
	var sbuf [2]int32
	for _, b := range l.Blocks {
		for _, s := range FlatSuccs(g.F, b, sbuf[:0]) {
			if !l.inLoop[s] && !seen[s] {
				seen[s] = true
				l.Exits = append(l.Exits, s)
			}
		}
	}
}

// EnsurePreheader gives l a preheader: reuse a lone fall-through outside
// predecessor, or append a fresh forwarding block labelled
// "<header>.preheader" and retarget the outside predecessors' terminators. Block indices of existing blocks are
// stable; the FlatGraph is stale afterwards if a block was inserted.
func (g *FlatGraph) EnsurePreheader(l *FlatLoop) int32 {
	var outside []int32
	for _, p := range g.Preds[l.Header] {
		if !l.Contains(p) {
			outside = append(outside, p)
		}
	}
	if len(outside) == 1 {
		p := outside[0]
		var sbuf [2]int32
		if succs := FlatSuccs(g.F, p, sbuf[:0]); len(succs) == 1 && succs[0] == l.Header {
			l.Preheader = p
			return p
		}
	}
	name := g.P.Intern(g.P.Syms[g.F.Blocks[l.Header].Name] + ".preheader")
	ph := g.F.NewBlock(name)
	jmp := rtl.MkInstr(rtl.Jump)
	jmp.Target = l.Header
	g.F.SpliceInstrs(ph, 0, 0, []rtl.FlatInstr{jmp})
	for _, p := range outside {
		ti, _, ok := g.F.TermIdx(p)
		if !ok {
			continue
		}
		if g.F.Target[ti] == l.Header {
			g.F.Target[ti] = ph
		}
		if g.F.Else[ti] == l.Header {
			g.F.Else[ti] = ph
		}
	}
	// The new block grew the block table; keep the membership set sized.
	l.inLoop = append(l.inLoop, false)
	l.Preheader = ph
	return ph
}
