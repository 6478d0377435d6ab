// Package flattest is the shared helper for unit tests of flat passes and
// analyses: tests keep building their inputs with the rtl builders and
// asserting on printed RTL, and this package carries a function across —
// build with rtl, Flatten, run the flat entry point, Unflatten.
package flattest

import (
	"testing"

	"macc/internal/rtl"
)

// Flat flattens f alone as a one-function program (f itself is not
// touched), failing the test on error.
func Flat(t testing.TB, f *rtl.Fn) *rtl.FlatProgram {
	t.Helper()
	return FlatProgram(t, rtl.NewProgram(f))
}

// FlatProgram flattens rp, failing the test on error.
func FlatProgram(t testing.TB, rp *rtl.Program) *rtl.FlatProgram {
	t.Helper()
	fp, err := rtl.Flatten(rp)
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	return fp
}

// Apply flattens f, runs pass on the flat copy, and returns the
// materialized result; f itself is not touched.
func Apply(t testing.TB, f *rtl.Fn, pass func(fp *rtl.FlatProgram, fi int)) *rtl.Fn {
	t.Helper()
	fp := Flat(t, f)
	pass(fp, 0)
	return Unflatten(t, fp).Fns[0]
}

// Unflatten materializes fp, failing the test on error.
func Unflatten(t testing.TB, fp *rtl.FlatProgram) *rtl.Program {
	t.Helper()
	rp, err := fp.Unflatten()
	if err != nil {
		t.Fatalf("unflatten: %v", err)
	}
	return rp
}

// Block returns the index of the block labelled name in function fi.
func Block(t testing.TB, fp *rtl.FlatProgram, fi int, name string) int32 {
	t.Helper()
	f := &fp.Fns[fi]
	for bi := range f.Blocks {
		if fp.SymName(f.Blocks[bi].Name) == name {
			return int32(bi)
		}
	}
	t.Fatalf("no block %q in %s", name, fp.SymName(f.Name))
	return -1
}
