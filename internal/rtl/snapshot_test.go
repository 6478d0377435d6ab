package rtl

import (
	"testing"
)

// snapFn builds a one-function flat program with arithmetic, memory
// traffic, a call, and control flow so every instruction shape passes
// through the snapshot.
func snapFn(t *testing.T) *FlatProgram {
	t.Helper()
	f := NewFn("f", 2)
	a, b := f.Params[0], f.Params[1]
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")
	r1, r2, r3 := f.NewReg(), f.NewReg(), f.NewReg()
	f.Entry().Instrs = append(f.Entry().Instrs,
		MovI(r1, C(0)),
		JumpI(loop))
	loop.Instrs = append(loop.Instrs,
		LoadI(r2, R(a), 4, W2, true),
		BinI(Add, r1, R(r1), R(r2)),
		StoreI(R(b), 0, R(r1), W8),
		&Instr{Op: Call, Dst: r3, Callee: "g", Args: []Operand{R(r1), C(7)}},
		BinI(SetLT, r3, R(r1), C(100)),
		BranchI(R(r3), loop, exit))
	exit.Instrs = append(exit.Instrs, RetI(R(r1)))
	fp, err := Flatten(NewProgram(f))
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// fnString prints function 0 of fp.
func fnString(fp *FlatProgram) string { return fp.UnflattenFn(0).String() }

// redirectEdges points every terminator edge at block from, outside block
// skip, at block to instead.
func redirectEdges(f *FlatFn, from, to, skip int32) {
	for bi := range f.Blocks {
		if ti, _, ok := f.TermIdx(int32(bi)); ok && int32(bi) != skip {
			if f.Target[ti] == from {
				f.Target[ti] = to
			}
			if f.Else[ti] == from {
				f.Else[ti] = to
			}
		}
	}
}

// blockInstrs gathers block bi's instructions in value form.
func blockInstrs(f *FlatFn, bi int32) []FlatInstr {
	b := f.Blocks[bi]
	var ins []FlatInstr
	for i := b.InstrStart; i < b.InstrEnd; i++ {
		ins = append(ins, f.Instr(i))
	}
	return ins
}

// mutations is a catalogue of pass-like edits on function 0. Each tolerates
// an arbitrary current shape (the composed tests apply them to
// already-mutated functions), mutating only when the structure it targets
// exists.
var mutations = []struct {
	name string
	do   func(fp *FlatProgram)
}{
	{"in-place operand rewrite", func(fp *FlatProgram) {
		f := &fp.Fns[0]
		for _, b := range f.Blocks {
			if b.InstrEnd-b.InstrStart > 1 {
				f.A[b.InstrStart+1] = C(42)
				return
			}
		}
	}},
	{"in-place opcode flip", func(fp *FlatProgram) {
		f := &fp.Fns[0]
		for i := range f.Op {
			if f.Op[i] == Add {
				f.Op[i] = Sub
				return
			}
		}
	}},
	{"call args rewrite", func(fp *FlatProgram) {
		f := &fp.Fns[0]
		for i := range f.Op {
			if ci := f.CallIdx[i]; ci >= 0 {
				if c := f.Calls[ci]; c.ArgEnd-c.ArgStart > 1 {
					f.Args[c.ArgStart+1] = C(99)
					return
				}
			}
		}
	}},
	{"instruction insert", func(fp *FlatProgram) {
		f := &fp.Fns[0]
		mov := MkInstr(Mov)
		mov.Dst, mov.A = f.NewReg(), C(5)
		f.SpliceInstrs(int32(len(f.Blocks)-1), 0, 0, []FlatInstr{mov})
	}},
	{"instruction remove", func(fp *FlatProgram) {
		f := &fp.Fns[0]
		if b := f.Blocks[len(f.Blocks)-1]; b.InstrEnd-b.InstrStart > 1 {
			f.SpliceInstrs(int32(len(f.Blocks)-1), 0, 1, nil)
		}
	}},
	{"drop terminator", func(fp *FlatProgram) {
		f := &fp.Fns[0]
		if b := f.Blocks[len(f.Blocks)-1]; b.InstrEnd > b.InstrStart {
			f.SpliceInstrs(int32(len(f.Blocks)-1), b.InstrEnd-b.InstrStart-1, 1, nil)
		}
	}},
	{"retarget branch", func(fp *FlatProgram) {
		f := &fp.Fns[0]
		for bi := range f.Blocks {
			if ti, op, ok := f.TermIdx(int32(bi)); ok && op == Branch {
				f.Target[ti] = int32(len(f.Blocks) - 1)
				return
			}
		}
	}},
	{"new block and rewire", func(fp *FlatProgram) {
		f := &fp.Fns[0]
		last := int32(len(f.Blocks) - 1)
		nb := f.NewBlock(fp.Intern("detour"))
		jmp := MkInstr(Jump)
		jmp.Target = last
		f.SpliceInstrs(nb, 0, 0, []FlatInstr{jmp})
		redirectEdges(f, last, nb, nb)
	}},
	{"remove block", func(fp *FlatProgram) {
		f := &fp.Fns[0]
		if len(f.Blocks) < 3 {
			return
		}
		redirectEdges(f, 1, 2, -1)
		keep := make([]bool, len(f.Blocks))
		for i := range keep {
			keep[i] = i != 1
		}
		f.RemoveBlocks(keep)
	}},
	{"reorder blocks", func(fp *FlatProgram) {
		f := &fp.Fns[0]
		if len(f.Blocks) < 3 {
			return
		}
		ins1, ins2 := blockInstrs(f, 1), blockInstrs(f, 2)
		f.SpliceInstrs(1, 0, int32(len(ins1)), ins2)
		f.SpliceInstrs(2, 0, int32(len(ins2)), ins1)
		b1, b2 := &f.Blocks[1], &f.Blocks[2]
		b1.Name, b2.Name = b2.Name, b1.Name
		b1.ID, b2.ID = b2.ID, b1.ID
		swap := func(e []int32) {
			for i, t := range e {
				switch t {
				case 1:
					e[i] = 2
				case 2:
					e[i] = 1
				}
			}
		}
		swap(f.Target)
		swap(f.Else)
	}},
	{"frame and params", func(fp *FlatProgram) {
		f := &fp.Fns[0]
		f.FrameBytes = 64
		f.FrameReg = f.NewReg()
		if len(f.Params) > 1 {
			f.Params = f.Params[:1]
		}
	}},
	{"rename registers", func(fp *FlatProgram) {
		f := &fp.Fns[0]
		for i := range f.Op {
			if f.Dst[i] == 2 {
				f.Dst[i] = 9
			}
			f.SrcSlots(int32(i), func(o *Operand) {
				if o.Kind == KindReg && o.Reg == 2 {
					o.Reg = 9
				}
			})
		}
		if f.NextReg < 10 {
			f.NextReg = 10
		}
	}},
}

// TestSnapshotRestoreIsByteIdentical proves rollback through the flat
// snapshot reproduces the captured function exactly, for every mutation
// shape.
func TestSnapshotRestoreIsByteIdentical(t *testing.T) {
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			fp := snapFn(t)
			want := fnString(fp)
			nsyms := len(fp.Syms)
			snap := NewFlatSnapshot(fp, 0)
			m.do(fp)
			snap.Restore()
			if got := fnString(fp); got != want {
				t.Errorf("restore not byte-identical after %s:\n--- got ---\n%s--- want ---\n%s", m.name, got, want)
			}
			if len(fp.Syms) != nsyms {
				t.Errorf("restore left %d symbols, want %d", len(fp.Syms), nsyms)
			}
			if err := fp.VerifyFn(0); err != nil {
				t.Errorf("restored function does not verify: %v", err)
			}
		})
	}
}

// TestSnapshotUpdateAdvancesBaseline: a committed mutation becomes the new
// rollback point, and a later failed mutation rolls back to it — the
// pipeline's snapshot-after-success, restore-after-failure protocol.
func TestSnapshotUpdateAdvancesBaseline(t *testing.T) {
	for _, good := range mutations {
		for _, bad := range mutations {
			t.Run(good.name+"/then/"+bad.name, func(t *testing.T) {
				fp := snapFn(t)
				snap := NewFlatSnapshot(fp, 0)
				good.do(fp)
				snap.Update()
				want := fnString(fp)
				bad.do(fp)
				snap.Restore()
				if got := fnString(fp); got != want {
					t.Errorf("rollback after committed %q + failed %q:\n--- got ---\n%s--- want ---\n%s",
						good.name, bad.name, got, want)
				}
			})
		}
	}
}

// TestSnapshotRepeatedRestore: the snapshot stays valid across multiple
// rollbacks, as the pipeline needs when several passes fail in sequence.
func TestSnapshotRepeatedRestore(t *testing.T) {
	fp := snapFn(t)
	want := fnString(fp)
	snap := NewFlatSnapshot(fp, 0)
	for i := 0; i < 3; i++ {
		for _, m := range mutations {
			m.do(fp)
		}
		snap.Restore()
		if got := fnString(fp); got != want {
			t.Fatalf("round %d: restore diverged:\n%s", i, got)
		}
	}
}

// TestSnapshotCleanUpdateIsFree: committing a pass that changed nothing
// must cost zero allocations — the capture reuses the image's arrays.
func TestSnapshotCleanUpdateIsFree(t *testing.T) {
	fp := snapFn(t)
	snap := NewFlatSnapshot(fp, 0)
	allocs := testing.AllocsPerRun(100, func() {
		if dirty := snap.Update(); dirty != 0 {
			t.Fatalf("clean function reported %d dirty blocks", dirty)
		}
	})
	if allocs != 0 {
		t.Errorf("clean Update allocates %v objects per run, want 0", allocs)
	}
}

// TestSnapshotDirtyCount: Update counts only the blocks that changed.
func TestSnapshotDirtyCount(t *testing.T) {
	fp := snapFn(t)
	f := &fp.Fns[0]
	snap := NewFlatSnapshot(fp, 0)
	f.A[f.Blocks[1].InstrStart+1] = C(42)
	if dirty := snap.Update(); dirty != 1 {
		t.Errorf("one-block edit recaptured %d blocks, want 1", dirty)
	}
	if dirty := snap.Update(); dirty != 0 {
		t.Errorf("second Update recaptured %d blocks, want 0", dirty)
	}
}

// TestSnapshotMatchesClone cross-checks the snapshot against an
// independent deep copy, a materialized pointer graph, under composed
// mutations.
func TestSnapshotMatchesClone(t *testing.T) {
	fp := snapFn(t)
	snap := NewFlatSnapshot(fp, 0)
	ref := fp.UnflattenFn(0)
	for _, m := range mutations {
		m.do(fp)
	}
	snap.Restore()
	if got, want := fnString(fp), ref.String(); got != want {
		t.Errorf("snapshot restore diverges from the deep copy:\n--- snapshot ---\n%s--- copy ---\n%s", got, want)
	}
}
