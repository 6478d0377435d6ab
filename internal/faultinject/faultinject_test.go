package faultinject_test

import (
	"errors"
	"testing"

	"macc/internal/faultinject"
	"macc/internal/flattest"
	"macc/internal/machine"
	"macc/internal/opt"
	"macc/internal/pipeline"
	"macc/internal/rtl"
	"macc/internal/rtlgen"
)

func genFn(t *testing.T, seed int64) *rtl.Fn {
	t.Helper()
	f, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// branchyFn guarantees control flow so RetargetBranch always has a victim:
//
//	f(a,b,c) { if (a) M[64] = b; else M[64] = c; return M[64] }
func branchyFn() *rtl.Fn {
	f := rtl.NewFn("f", 3)
	then := f.NewBlock("then")
	els := f.NewBlock("else")
	join := f.NewBlock("join")
	f.Entry().Instrs = append(f.Entry().Instrs, rtl.BranchI(rtl.R(f.Params[0]), then, els))
	then.Instrs = append(then.Instrs,
		rtl.StoreI(rtl.C(64), 0, rtl.R(f.Params[1]), rtl.W8), rtl.JumpI(join))
	els.Instrs = append(els.Instrs,
		rtl.StoreI(rtl.C(64), 0, rtl.R(f.Params[2]), rtl.W8), rtl.JumpI(join))
	r := f.NewReg()
	join.Instrs = append(join.Instrs,
		rtl.LoadI(r, rtl.C(64), 0, rtl.W8, true), rtl.RetI(rtl.R(r)))
	return f
}

var testArgs = [][]int64{{0, 0, 0}, {1, 2, 3}, {255, 1023, -7}}

func behavior(t *testing.T, fp *rtl.FlatProgram) string {
	t.Helper()
	b, err := pipeline.BehaviorFlat(fp, machine.M68030(), rtlgen.MemWindow*2, "f", testArgs)
	if err != nil {
		t.Fatalf("behavior: %v", err)
	}
	return b
}

// victim is a pass named "victim" whose Run is inner.
func victim(inner func(*rtl.FlatProgram, int) error) pipeline.FlatPass {
	return pipeline.FlatPass{Name: "victim", Run: inner}
}

func noop(*rtl.FlatProgram, int) error { return nil }

// checkStructuralFaults injects every checkpoint-visible fault, as a direct
// mutation of the struct-of-arrays form, after inner runs as the victim
// pass, and asserts the hardened pipeline's contract: the fault is caught
// by VerifyFn, the flat snapshot rolls the function back to a byte-identical
// image with bit-identical simulator behaviour — undoing inner's own work
// too — and the incident names the sabotaged pass.
func checkStructuralFaults(t *testing.T, inner func(*rtl.FlatProgram, int) error) {
	kinds := []faultinject.Kind{
		faultinject.Panic, faultinject.ClobberReg,
		faultinject.DropTerminator, faultinject.RetargetBranch,
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			fired := 0
			for seed := int64(0); seed < 20; seed++ {
				f := genFn(t, seed)
				if seed == 0 {
					f = branchyFn() // every kind has a victim here
				}
				fp := flattest.Flat(t, f)
				want := behavior(t, fp)
				orig := f.String()

				inj := &faultinject.Injector{Pass: "victim", Kind: kind, Seed: seed}
				diags := &pipeline.Diagnostics{}
				passes := []pipeline.FlatPass{inj.Wrap(victim(inner))}
				if err := pipeline.RunFlat(fp, 0, passes, pipeline.Options{Diags: diags}); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !inj.Fired() {
					// The seed's function had no eligible victim (e.g. no
					// branch to retarget); the compile must stay clean.
					if diags.Degraded() {
						t.Fatalf("seed %d: incident without an injection: %+v", seed, diags.Incidents)
					}
					continue
				}
				fired++
				if len(diags.Incidents) != 1 || diags.Incidents[0].Pass != "victim" {
					t.Fatalf("seed %d: fault not caught/attributed: %+v", seed, diags.Incidents)
				}
				if flattest.Unflatten(t, fp).Fns[0].String() != orig {
					t.Fatalf("seed %d: function not rolled back", seed)
				}
				if behavior(t, fp) != want {
					t.Fatalf("seed %d: behaviour not bit-identical after rollback", seed)
				}
			}
			if fired < 3 {
				t.Fatalf("injector fired on only %d/20 seeds", fired)
			}
		})
	}
}

// TestStructuralFaultsAreCaughtAndRolledBack sabotages a pass that does
// real work (the clean-up suite), so rollback must undo the pass as well as
// the fault.
func TestStructuralFaultsAreCaughtAndRolledBack(t *testing.T) {
	checkStructuralFaults(t, func(fp *rtl.FlatProgram, fi int) error {
		opt.FlatClean(fp, fi)
		return nil
	})
}

// TestFlatStructuralFaultsAreCaughtAndRolledBack sabotages a pass that
// changes nothing, so every difference the checkpoint sees is the fault's.
func TestFlatStructuralFaultsAreCaughtAndRolledBack(t *testing.T) {
	checkStructuralFaults(t, noop)
}

// TestFlipOpIsSilentButBisectable: the semantic fault passes the verifier
// (a silent miscompile), so the pipeline cannot catch it — but differential
// bisection attributes it.
func TestFlipOpIsSilentButBisectable(t *testing.T) {
	// Find a seed whose function has a flippable op that actually changes
	// behaviour; the injection itself must stay checkpoint-invisible.
	var (
		orig *rtl.Fn
		want string
		seed int64
	)
	for seed = 0; ; seed++ {
		if seed == 30 {
			t.Fatal("no seed in 0..29 produced a divergent flip")
		}
		orig = genFn(t, seed)
		fp := flattest.Flat(t, orig)
		want = behavior(t, fp)
		inj := &faultinject.Injector{Pass: "victim", Kind: faultinject.FlipOp, Seed: seed}
		diags := &pipeline.Diagnostics{}
		passes := []pipeline.FlatPass{
			{Name: "pre", Run: noop}, inj.Wrap(victim(noop)), {Name: "post", Run: noop},
		}
		if err := pipeline.RunFlat(fp, 0, passes, pipeline.Options{Diags: diags}); err != nil {
			t.Fatal(err)
		}
		if diags.Degraded() {
			t.Fatalf("seed %d: flip-op should evade the structural checkpoint, got %+v", seed, diags.Incidents)
		}
		if err := fp.VerifyFn(0); err != nil {
			t.Fatalf("seed %d: flip-op must keep the function verifiable: %v", seed, err)
		}
		if inj.Fired() && behavior(t, fp) != want {
			break
		}
	}

	// A fresh injector reproduces the same corruption during bisection and
	// the differential predicate pins it on the sabotaged pass.
	inj2 := &faultinject.Injector{Pass: "victim", Kind: faultinject.FlipOp, Seed: seed}
	passes2 := []pipeline.FlatPass{
		{Name: "pre", Run: noop}, inj2.Wrap(victim(noop)), {Name: "post", Run: noop},
	}
	bad := func(fp *rtl.FlatProgram, _ int) error {
		if behavior(t, fp) != want {
			return errors.New("diverges from reference")
		}
		return nil
	}
	res, err := pipeline.Bisect(rtl.NewProgram(orig), 0, passes2, bad)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() || res.Pass != "victim" {
		t.Fatalf("bisect = %v, want victim", res)
	}
}

// TestDeterminism: equal seeds corrupt identically, so every failure
// reproduces exactly.
func TestDeterminism(t *testing.T) {
	corrupt := func() string {
		fp := flattest.Flat(t, genFn(t, 7))
		inj := &faultinject.Injector{Pass: "p", Kind: faultinject.ClobberReg, Seed: 42}
		inj.Wrap(pipeline.FlatPass{Name: "p", Run: noop}).Run(fp, 0)
		return flattest.Unflatten(t, fp).String()
	}
	if corrupt() != corrupt() {
		t.Error("same seed must inject the same corruption")
	}
}

func TestWrapLeavesOtherPassesAlone(t *testing.T) {
	inj := &faultinject.Injector{Pass: "victim", Kind: faultinject.Panic}
	p := pipeline.FlatPass{Name: "other", Run: noop}
	if err := inj.Wrap(p).Run(flattest.Flat(t, genFn(t, 0)), 0); err != nil {
		t.Fatal(err)
	}
	if inj.Fired() {
		t.Error("injector fired on a pass it does not target")
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range faultinject.Kinds() {
		got, err := faultinject.ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := faultinject.ParseKind("nonsense"); err == nil {
		t.Error("ParseKind must reject unknown kinds")
	}
}

// TestFlatFlipOpIsSilent: the semantic fault must evade the verifier —
// the pipeline keeps the corrupted image, visible only to differential
// execution.
func TestFlatFlipOpIsSilent(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		fp := flattest.Flat(t, genFn(t, seed))
		inj := &faultinject.Injector{Pass: "victim", Kind: faultinject.FlipOp, Seed: seed}
		diags := &pipeline.Diagnostics{}
		passes := []pipeline.FlatPass{
			inj.Wrap(victim(noop)),
		}
		if err := pipeline.RunFlat(fp, 0, passes, pipeline.Options{Diags: diags}); err != nil {
			t.Fatal(err)
		}
		if diags.Degraded() {
			t.Fatalf("seed %d: flip-op should evade the flat checkpoint, got %+v", seed, diags.Incidents)
		}
		if err := fp.VerifyFn(0); err != nil {
			t.Fatalf("seed %d: flip-op must keep the image verifiable: %v", seed, err)
		}
		if inj.Fired() {
			return
		}
	}
	t.Fatal("no seed in 0..29 had a flippable op")
}
