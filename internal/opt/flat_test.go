package opt_test

import (
	"testing"

	"macc/internal/machine"
	"macc/internal/opt"
	"macc/internal/pipeline"
	"macc/internal/rtl"
	"macc/internal/rtlgen"
)

// runSubPass applies pass to a flat copy of each generated function and
// requires a verifying result whose simulated behaviour — return value and
// final memory over several argument sets — matches the untransformed
// function's, and an unchanged function whenever the pass reports no
// change. The printed output of every sub-pass on these seeds is pinned
// byte for byte by the "generated N sub" rows of the root package's
// testdata/compile_golden.txt.
func runSubPass(t *testing.T, name string, pass func(*rtl.FlatProgram, int) bool) {
	t.Helper()
	seeds := int64(120)
	if testing.Short() {
		seeds = 20
	}
	m := machine.M68030() // tolerant of any alignment
	args := [][]int64{{0, 0, 0}, {1, 2, 3}, {511, 1023, 7}}
	for seed := int64(1); seed <= seeds; seed++ {
		fn, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		prog := rtl.NewProgram(fn)
		want, err := pipeline.Behavior(prog, m, rtlgen.MemWindow*2, "f", args)
		if err != nil {
			t.Fatalf("seed %d: behaviour: %v", seed, err)
		}
		fp, err := rtl.Flatten(prog)
		if err != nil {
			t.Fatalf("seed %d: flatten: %v", seed, err)
		}
		changed := pass(fp, 0)
		if err := fp.VerifyFn(0); err != nil {
			t.Fatalf("%s seed %d: verify: %v", name, seed, err)
		}
		back, err := fp.Unflatten()
		if err != nil {
			t.Fatalf("%s seed %d: unflatten: %v", name, seed, err)
		}
		if !changed && back.String() != prog.String() {
			t.Fatalf("%s seed %d: reported no change but rewrote the function:\n%s", name, seed, back)
		}
		got, err := pipeline.BehaviorFlat(fp, m, rtlgen.MemWindow*2, "f", args)
		if err != nil {
			t.Fatalf("%s seed %d: behaviour after the pass: %v", name, seed, err)
		}
		if got != want {
			t.Fatalf("%s seed %d: behaviour changed:\n--- before ---\n%s\n--- after ---\n%s", name, seed, prog, back)
		}
	}
}

// TestFlatPassTwins runs every clean-up sub-pass against its behavioural
// twin, the function before the pass.
func TestFlatPassTwins(t *testing.T) {
	cases := []struct {
		name string
		pass func(*rtl.FlatProgram, int) bool
	}{
		{"RemoveUnreachable", opt.FlatRemoveUnreachable},
		{"FoldConstants", opt.FlatFoldConstants},
		{"PropagateLocal", opt.FlatPropagateLocal},
		{"PropagateImmutable", opt.FlatPropagateImmutable},
		{"LocalCSE", opt.FlatLocalCSE},
		{"CollapseMovChains", opt.FlatCollapseMovChains},
		{"Peephole", opt.FlatPeephole},
		{"DeadCodeElim", opt.FlatDeadCodeElim},
		{"GlobalDCE", opt.FlatGlobalDCE},
		{"EliminateDeadIVs", opt.FlatEliminateDeadIVs},
		{"ThreadJumps", opt.FlatThreadJumps},
		{"NormalizeAddresses", opt.FlatNormalizeAddresses},
		{"Clean", opt.FlatClean},
		{"Clean+ThreadJumps", func(fp *rtl.FlatProgram, fi int) bool {
			c := opt.FlatClean(fp, fi)
			return opt.FlatThreadJumps(fp, fi) || c
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { runSubPass(t, tc.name, tc.pass) })
	}
}
