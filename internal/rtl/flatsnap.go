package rtl

// FlatSnapshot is the flat pipeline's rollback journal: a last-known-good
// image of one function captured by copying its dense arrays — no block
// graph cloning, no per-instruction pointers, just range copies. Restore
// writes the image back over the live function; Update recaptures after a
// pass succeeds and reports how many blocks actually changed (the same
// dirty metric the graph journal feeds telemetry).
//
// The snapshot also records the program symbol-table length: symbols are
// append-only, so rolling back a failed pass that interned fresh block
// labels is a truncation, keeping the table byte-identical to a run in
// which the pass never executed.
type FlatSnapshot struct {
	p     *FlatProgram
	fi    int
	img   FlatFn
	nsyms int
}

// NewFlatSnapshot captures function fi of p.
func NewFlatSnapshot(p *FlatProgram, fi int) *FlatSnapshot {
	s := &FlatSnapshot{p: p, fi: fi}
	s.capture()
	return s
}

// capture copies the live function into the image, reusing the image's
// arrays: the live function never aliases them (Restore writes out fresh
// copies), so overwriting them in place is safe.
func (s *FlatSnapshot) capture() {
	f, img := &s.p.Fns[s.fi], &s.img
	img.Name = f.Name
	img.Params = append(img.Params[:0], f.Params...)
	img.FrameBytes = f.FrameBytes
	img.FrameReg = f.FrameReg
	img.NextReg = f.NextReg
	img.NextBlk = f.NextBlk
	img.Blocks = append(img.Blocks[:0], f.Blocks...)
	img.Succs = append(img.Succs[:0], f.Succs...)
	img.Preds = append(img.Preds[:0], f.Preds...)
	img.Op = append(img.Op[:0], f.Op...)
	img.Dst = append(img.Dst[:0], f.Dst...)
	img.A = append(img.A[:0], f.A...)
	img.B = append(img.B[:0], f.B...)
	img.C = append(img.C[:0], f.C...)
	img.Width = append(img.Width[:0], f.Width...)
	img.Signed = append(img.Signed[:0], f.Signed...)
	img.Disp = append(img.Disp[:0], f.Disp...)
	img.Target = append(img.Target[:0], f.Target...)
	img.Else = append(img.Else[:0], f.Else...)
	img.CallIdx = append(img.CallIdx[:0], f.CallIdx...)
	img.Calls = append(img.Calls[:0], f.Calls...)
	img.Args = append(img.Args[:0], f.Args...)
	s.nsyms = len(s.p.Syms)
}

// Restore rolls the live function back to the captured image and truncates
// any symbols interned since the capture. The image itself stays pristine
// (fresh copies are written out), so a snapshot survives repeated restores.
func (s *FlatSnapshot) Restore() {
	img := &s.img
	s.p.Fns[s.fi] = FlatFn{
		Name:       img.Name,
		Params:     append([]Reg(nil), img.Params...),
		FrameBytes: img.FrameBytes,
		FrameReg:   img.FrameReg,
		NextReg:    img.NextReg,
		NextBlk:    img.NextBlk,
		Blocks:     append([]FlatBlock(nil), img.Blocks...),
		Succs:      append([]int32(nil), img.Succs...),
		Preds:      append([]int32(nil), img.Preds...),
		Op:         append([]Op(nil), img.Op...),
		Dst:        append([]Reg(nil), img.Dst...),
		A:          append([]Operand(nil), img.A...),
		B:          append([]Operand(nil), img.B...),
		C:          append([]Operand(nil), img.C...),
		Width:      append([]Width(nil), img.Width...),
		Signed:     append([]bool(nil), img.Signed...),
		Disp:       append([]int64(nil), img.Disp...),
		Target:     append([]int32(nil), img.Target...),
		Else:       append([]int32(nil), img.Else...),
		CallIdx:    append([]int32(nil), img.CallIdx...),
		Calls:      append([]FlatCall(nil), img.Calls...),
		Args:       append([]Operand(nil), img.Args...),
	}
	s.p.Syms = s.p.Syms[:s.nsyms]
}

// Update recaptures the live function as the new last-known-good image and
// returns the number of blocks whose contents changed since the previous
// capture (new blocks count as dirty).
func (s *FlatSnapshot) Update() int {
	f := &s.p.Fns[s.fi]
	dirty := 0
	for bi := range f.Blocks {
		if bi >= len(s.img.Blocks) || !s.blockEqual(f, bi) {
			dirty++
		}
	}
	s.capture()
	return dirty
}

func (s *FlatSnapshot) blockEqual(f *FlatFn, bi int) bool {
	nb, ob := &f.Blocks[bi], &s.img.Blocks[bi]
	if *nb != *ob {
		return false
	}
	for i := nb.InstrStart; i < nb.InstrEnd; i++ {
		if f.Op[i] != s.img.Op[i] || f.Dst[i] != s.img.Dst[i] ||
			f.A[i] != s.img.A[i] || f.B[i] != s.img.B[i] || f.C[i] != s.img.C[i] ||
			f.Width[i] != s.img.Width[i] || f.Signed[i] != s.img.Signed[i] ||
			f.Disp[i] != s.img.Disp[i] || f.Target[i] != s.img.Target[i] ||
			f.Else[i] != s.img.Else[i] {
			return false
		}
		ci, oci := f.CallIdx[i], s.img.CallIdx[i]
		if (ci >= 0) != (oci >= 0) {
			return false
		}
		if ci >= 0 {
			c, oc := &f.Calls[ci], &s.img.Calls[oci]
			if c.Callee != oc.Callee || c.ArgEnd-c.ArgStart != oc.ArgEnd-oc.ArgStart {
				return false
			}
			for k := int32(0); k < c.ArgEnd-c.ArgStart; k++ {
				if f.Args[c.ArgStart+k] != s.img.Args[oc.ArgStart+k] {
					return false
				}
			}
		}
	}
	return true
}
