package macc_test

// Differential tests for the flat pass pipeline: an optimized compile must
// behave like its references — the Go reference results for the paper
// kernels, the unoptimized program for random generated ones — and its flat
// image must reproduce the materialized program exactly.

import (
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/core"
	"macc/internal/machine"
	"macc/internal/pipeline"
	"macc/internal/rtl"
	"macc/internal/rtl/codec"
	"macc/internal/rtlgen"
)

// flatDiffConfigs extends the cache differential matrix with variants that
// exercise the regalloc stage and strict mode.
func flatDiffConfigs() map[string]macc.Config {
	cfgs := diffConfigs()
	ra := macc.DefaultConfig()
	ra.Registers = 16
	cfgs["regalloc"] = ra
	strict := macc.DefaultConfig()
	strict.Strict = true
	cfgs["strict"] = strict
	return cfgs
}

// TestFlatPipelineDifferentialKernels sweeps every paper kernel against
// every config variant and checks the compile's two outputs against each
// other and against the Go references: the flat image must survive a codec
// round trip printing byte-identical RTL to the materialized program, and
// a program loaded from the decoded image must compute the reference
// results with the same cycles and memory references as the compile
// itself. The printed RTL of every variant is pinned separately by
// testdata/compile_golden.txt.
func TestFlatPipelineDifferentialKernels(t *testing.T) {
	for cfgName, cfg := range flatDiffConfigs() {
		cfg := cfg
		t.Run(cfgName, func(t *testing.T) {
			for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
				p, err := macc.Compile(bm.Src, cfg)
				if err != nil {
					t.Fatalf("%s: compile: %v", bm.Name, err)
				}
				if p.Flat == nil {
					t.Fatalf("%s: optimized compile carries no flat image", bm.Name)
				}
				dec, err := codec.DecodeProgram(codec.EncodeProgram(p.Flat))
				if err != nil {
					t.Fatalf("%s: codec round trip: %v", bm.Name, err)
				}
				loaded, err := macc.FromFlat(dec, cfg.Machine)
				if err != nil {
					t.Fatalf("%s: load image: %v", bm.Name, err)
				}
				if want, got := p.RTL.String(), loaded.RTL.String(); want != got {
					t.Fatalf("%s: flat image prints different RTL:\n--- compile ---\n%s\n--- image ---\n%s",
						bm.Name, want, got)
				}
				want, got := runBench(t, bm, p), runBench(t, bm, loaded)
				if want.Ret != got.Ret || want.Cycles != got.Cycles || want.MemRefs() != got.MemRefs() {
					t.Fatalf("%s: behaviour differs: ret %d/%d cycles %d/%d refs %d/%d",
						bm.Name, want.Ret, got.Ret, want.Cycles, got.Cycles,
						want.MemRefs(), got.MemRefs())
				}
			}
		})
	}
}

// TestFlatPipelineDifferentialRandomRTL drives 200 random generated
// programs through the optimizer and compares the behaviour fingerprint
// over several argument sets with the unoptimized program's. (Register
// allocation is left out: its spill frame lies in the fingerprinted memory;
// rtlgen's equivalence tests check it over the program's window.)
func TestFlatPipelineDifferentialRandomRTL(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 25
	}
	m := machine.Alpha()
	argSets := [][]int64{{0, 0, 0}, {1, 2, 3}, {511, 1023, 7}}
	cfg := macc.DefaultConfig()
	cfg.Machine = m
	for seed := int64(1); seed <= seeds; seed++ {
		fn, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		rp := rtl.NewProgram(fn)
		want, err := pipeline.Behavior(rp, m, rtlgen.MemWindow*2, "f", argSets)
		if err != nil {
			t.Fatalf("seed %d: unoptimized behaviour: %v", seed, err)
		}
		p, err := macc.CompileRTL(rp, cfg)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		if p.Diagnostics.Degraded() {
			t.Fatalf("seed %d: degraded: %s", seed, p.Diagnostics)
		}
		got, err := pipeline.Behavior(p.RTL, m, rtlgen.MemWindow*2, "f", argSets)
		if err != nil {
			t.Fatalf("seed %d: optimized behaviour: %v", seed, err)
		}
		if got != want {
			t.Fatalf("seed %d: behaviour fingerprint %s, unoptimized %s", seed, got, want)
		}
	}
}

// TestOptimizeFlatFromDecodedImage pins the cmd/macc -in=bin -reopt path:
// encode an unoptimized program through the binary codec, decode it, run
// OptimizeFlat over the image, and require output byte-identical to a
// direct source compile with the same configuration.
func TestOptimizeFlatFromDecodedImage(t *testing.T) {
	cfg := macc.DefaultConfig()
	plain := cfg
	plain.Optimize = false
	plain.Unroll = false
	plain.Coalesce = core.Options{}
	plain.Schedule = false
	for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
		unopt, err := macc.Compile(bm.Src, plain)
		if err != nil {
			t.Fatalf("%s: unoptimized compile: %v", bm.Name, err)
		}
		fp, err := rtl.Flatten(unopt.RTL)
		if err != nil {
			t.Fatalf("%s: flatten: %v", bm.Name, err)
		}
		dec, err := codec.DecodeProgram(codec.EncodeProgram(fp))
		if err != nil {
			t.Fatalf("%s: codec round trip: %v", bm.Name, err)
		}
		reopt, err := macc.OptimizeFlat(dec, cfg)
		if err != nil {
			t.Fatalf("%s: OptimizeFlat: %v", bm.Name, err)
		}
		direct, err := macc.Compile(bm.Src, cfg)
		if err != nil {
			t.Fatalf("%s: direct compile: %v", bm.Name, err)
		}
		if got, want := reopt.RTL.String(), direct.RTL.String(); got != want {
			t.Fatalf("%s: re-optimized image differs from direct compile:\n--- direct ---\n%s\n--- reopt ---\n%s",
				bm.Name, want, got)
		}
		if reopt.Flat == nil {
			t.Fatalf("%s: OptimizeFlat dropped the flat image", bm.Name)
		}
	}
}
