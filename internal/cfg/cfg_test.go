package cfg_test

import (
	"testing"

	"macc/internal/cfg"
	"macc/internal/flattest"
	"macc/internal/rtl"
)

// buildLoopFn constructs the canonical counted loop:
// entry -> header -> {body -> latch -> header | exit}.
func buildLoopFn() (*rtl.Fn, map[string]*rtl.Block) {
	f := rtl.NewFn("loopy", 1)
	entry := f.Entry()
	header := f.NewBlock("header")
	body := f.NewBlock("body")
	latch := f.NewBlock("latch")
	exit := f.NewBlock("exit")

	i := f.NewReg()
	cond := f.NewReg()
	entry.Instrs = []*rtl.Instr{rtl.MovI(i, rtl.C(0)), rtl.JumpI(header)}
	header.Instrs = []*rtl.Instr{
		rtl.SBinI(rtl.SetLT, cond, rtl.R(i), rtl.R(f.Params[0])),
		rtl.BranchI(rtl.R(cond), body, exit),
	}
	body.Instrs = []*rtl.Instr{rtl.JumpI(latch)}
	latch.Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Add, i, rtl.R(i), rtl.C(1)),
		rtl.JumpI(header),
	}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(i))}
	return f, map[string]*rtl.Block{
		"entry": entry, "header": header, "body": body, "latch": latch, "exit": exit,
	}
}

// graph flattens f and builds its FlatGraph, returning a block-name lookup.
func graph(t *testing.T, f *rtl.Fn) (*cfg.FlatGraph, func(string) int32) {
	t.Helper()
	fp := flattest.Flat(t, f)
	return cfg.NewFlat(fp, 0), func(name string) int32 { return flattest.Block(t, fp, 0, name) }
}

func TestPredsAndReachability(t *testing.T) {
	f, bs := buildLoopFn()
	g, blk := graph(t, f)
	if len(g.Preds[blk("header")]) != 2 {
		t.Errorf("header preds = %d, want 2", len(g.Preds[blk("header")]))
	}
	for name := range bs {
		if !g.Reachable(blk(name)) {
			t.Errorf("%s should be reachable", name)
		}
	}
	dead := f.NewBlock("dead")
	dead.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(0))}
	g, blk = graph(t, f)
	if g.Reachable(blk("dead")) {
		t.Error("dead block reported reachable")
	}
}

// strictDominators lists the blocks that strictly dominate b, by name.
func strictDominators(g *cfg.FlatGraph, b int32) map[string]bool {
	doms := map[string]bool{}
	for a := range g.F.Blocks {
		if int32(a) != b && g.Dominates(int32(a), b) {
			doms[g.P.SymName(g.F.Blocks[a].Name)] = true
		}
	}
	return doms
}

func TestDominators(t *testing.T) {
	f, _ := buildLoopFn()
	g, blk := graph(t, f)
	entry, header, body, latch, exit :=
		blk("entry"), blk("header"), blk("body"), blk("latch"), blk("exit")

	cases := []struct {
		a, b int32
		want bool
	}{
		{entry, exit, true},
		{header, body, true},
		{header, latch, true},
		{header, exit, true},
		{body, latch, true},
		{body, exit, false}, // exit reachable from header directly
		{latch, header, false},
		{body, body, true},
	}
	for _, c := range cases {
		if got := g.Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	// idom(body) is header: body's strict dominators are entry and header.
	if d := strictDominators(g, body); len(d) != 2 || !d["entry"] || !d["header"] {
		t.Errorf("strict dominators of body = %v, want entry and header", d)
	}
	if d := strictDominators(g, entry); len(d) != 0 {
		t.Errorf("entry has strict dominators %v", d)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	f := rtl.NewFn("d", 1)
	a := f.Entry()
	b := f.NewBlock("b")
	c := f.NewBlock("c")
	d := f.NewBlock("d")
	a.Instrs = []*rtl.Instr{rtl.BranchI(rtl.R(f.Params[0]), b, c)}
	b.Instrs = []*rtl.Instr{rtl.JumpI(d)}
	c.Instrs = []*rtl.Instr{rtl.JumpI(d)}
	d.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(0))}
	g, blk := graph(t, f)
	if doms := strictDominators(g, blk("d")); len(doms) != 1 || !doms["entry"] {
		t.Errorf("strict dominators of the join = %v, want the entry alone", doms)
	}
	if g.Dominates(blk("b"), blk("d")) || g.Dominates(blk("c"), blk("d")) {
		t.Error("diamond arms must not dominate the join")
	}
}

func TestFindLoops(t *testing.T) {
	f, _ := buildLoopFn()
	g, blk := graph(t, f)
	loops := g.FindLoops()
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != blk("header") || l.Latch != blk("latch") {
		t.Errorf("wrong header/latch: %v/%v", l.Header, l.Latch)
	}
	if len(l.Blocks) != 3 {
		t.Errorf("loop has %d blocks, want 3 (header, body, latch)", len(l.Blocks))
	}
	if l.Contains(blk("exit")) || l.Contains(blk("entry")) {
		t.Error("loop contains out-of-loop blocks")
	}
	if len(l.Exits) != 1 || l.Exits[0] != blk("exit") {
		t.Errorf("exits = %v", l.Exits)
	}
}

func TestNestedLoopsInnermostFirst(t *testing.T) {
	// entry -> oh -> ih -> ib -> ih (inner back) ; ih -> ol -> oh (outer back); oh -> exit
	f := rtl.NewFn("nest", 1)
	entry := f.Entry()
	oh := f.NewBlock("outerHeader")
	ih := f.NewBlock("innerHeader")
	ib := f.NewBlock("innerBody")
	ol := f.NewBlock("outerLatch")
	exit := f.NewBlock("exit")
	c1, c2, c3 := f.NewReg(), f.NewReg(), f.NewReg()
	entry.Instrs = []*rtl.Instr{rtl.MovI(c1, rtl.C(1)), rtl.MovI(c2, rtl.C(1)), rtl.MovI(c3, rtl.C(1)), rtl.JumpI(oh)}
	oh.Instrs = []*rtl.Instr{rtl.BranchI(rtl.R(c1), ih, exit)}
	ih.Instrs = []*rtl.Instr{rtl.BranchI(rtl.R(c2), ib, ol)}
	ib.Instrs = []*rtl.Instr{rtl.JumpI(ih)}
	ol.Instrs = []*rtl.Instr{rtl.JumpI(oh)}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(0))}

	g, blk := graph(t, f)
	loops := g.FindLoops()
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	if loops[0].Header != blk("innerHeader") {
		t.Error("innermost loop must come first")
	}
	if loops[1].Header != blk("outerHeader") {
		t.Error("outer loop second")
	}
	if !loops[1].Contains(blk("innerHeader")) || !loops[1].Contains(blk("innerBody")) {
		t.Error("outer loop must contain the inner loop's blocks")
	}
}

func TestEnsurePreheaderReusesLonePred(t *testing.T) {
	f, _ := buildLoopFn()
	g, blk := graph(t, f)
	l := g.FindLoops()[0]
	ph := g.EnsurePreheader(l)
	if ph != blk("entry") {
		t.Errorf("expected the entry block to serve as preheader, got %v", ph)
	}
	if l.Preheader != ph {
		t.Error("preheader not recorded")
	}
}

func TestEnsurePreheaderInsertsBlock(t *testing.T) {
	// Give the header two outside predecessors so a forwarding block is
	// required.
	f, bs := buildLoopFn()
	extra := f.NewBlock("extra")
	extra.Instrs = []*rtl.Instr{rtl.JumpI(bs["header"])}
	cond := f.NewReg()
	bs["entry"].Instrs = []*rtl.Instr{
		rtl.MovI(bs["entry"].Instrs[0].Dst, rtl.C(0)),
		rtl.MovI(cond, rtl.C(1)),
		rtl.BranchI(rtl.R(cond), extra, bs["header"]),
	}
	fp := flattest.Flat(t, f)
	g := cfg.NewFlat(fp, 0)
	header := flattest.Block(t, fp, 0, "header")
	var l *cfg.FlatLoop
	for _, cand := range g.FindLoops() {
		if cand.Header == header {
			l = cand
		}
	}
	if l == nil {
		t.Fatal("loop not found")
	}
	ff := &fp.Fns[0]
	before := len(ff.Blocks)
	ph := g.EnsurePreheader(l)
	if len(ff.Blocks) != before+1 {
		t.Fatal("no forwarding block inserted")
	}
	term := func(b int32) rtl.FlatInstr {
		ti, _, ok := ff.TermIdx(b)
		if !ok {
			t.Fatalf("block %d has no terminator", b)
		}
		return ff.Instr(ti)
	}
	if pt := term(ph); pt.Op != rtl.Jump || pt.Target != header {
		t.Error("preheader must jump to the header")
	}
	// Both outside edges now route through the preheader.
	if term(flattest.Block(t, fp, 0, "entry")).Else != ph || term(flattest.Block(t, fp, 0, "extra")).Target != ph {
		t.Error("outside edges not rerouted through preheader")
	}
	// The back edge must NOT be rerouted.
	if term(flattest.Block(t, fp, 0, "latch")).Target != header {
		t.Error("back edge must still target the header")
	}
	if err := fp.VerifyFn(0); err != nil {
		t.Errorf("function invalid after preheader insertion: %v", err)
	}
}
