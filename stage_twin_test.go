package macc_test

// Stage-level twins: each loop stage of the compile pipeline (clean, licm,
// strength-reduce, unroll's replication) is applied once through its graph
// body and once through its flat body to the same function, and the two
// must agree byte for byte. A divergence then names its stage instead of
// surfacing only in the end-to-end flat-vs-graph differentials.

import (
	"fmt"
	"reflect"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/machine"
	"macc/internal/minic"
	"macc/internal/opt"
	"macc/internal/rtl"
	"macc/internal/rtlgen"
	"macc/internal/telemetry"
)

// stageTwin is one stage's graph body and flat body. Each returns a
// rendering of its result (whether it changed the function, or the unroll
// factors it staged) for comparison.
type stageTwin struct {
	name  string
	graph func(cfg macc.Config, f *rtl.Fn) string
	flat  func(cfg macc.Config, fp *rtl.FlatProgram, fi int) string
}

func stageTwins() []stageTwin {
	return []stageTwin{
		{"clean",
			func(_ macc.Config, f *rtl.Fn) string {
				c := opt.Clean(f)
				return fmt.Sprint(opt.ThreadJumps(f) || c)
			},
			func(_ macc.Config, fp *rtl.FlatProgram, fi int) string {
				c := opt.FlatClean(fp, fi)
				return fmt.Sprint(opt.FlatThreadJumps(fp, fi) || c)
			}},
		{"licm",
			func(_ macc.Config, f *rtl.Fn) string { return fmt.Sprint(macc.RunLICM(f)) },
			func(_ macc.Config, fp *rtl.FlatProgram, fi int) string { return fmt.Sprint(macc.RunLICMFlat(fp, fi)) }},
		{"strength-reduce",
			func(cfg macc.Config, f *rtl.Fn) string {
				return fmt.Sprint(macc.RunStrengthReduce(f, cfg.Telemetry))
			},
			func(cfg macc.Config, fp *rtl.FlatProgram, fi int) string {
				return fmt.Sprint(macc.RunStrengthReduceFlat(fp, fi, cfg.Telemetry))
			}},
		{"unroll",
			func(cfg macc.Config, f *rtl.Fn) string { return fmt.Sprint(macc.RunUnrollLoops(cfg, f)) },
			func(cfg macc.Config, fp *rtl.FlatProgram, fi int) string {
				return fmt.Sprint(macc.RunUnrollLoopsFlat(cfg, fp, fi))
			}},
	}
}

// twinStage applies st to f through the graph body and to a flat copy of f
// through the flat body, failing on any difference in result, printed RTL,
// or remark stream, or when the flat result does not verify. f is left in
// its graph-transformed state.
func twinStage(t *testing.T, what string, st stageTwin, m *machine.Machine, f *rtl.Fn) {
	t.Helper()
	fp, err := rtl.Flatten(rtl.NewProgram(f.Clone()))
	if err != nil {
		t.Fatalf("%s: flatten: %v", what, err)
	}
	gRec, fRec := telemetry.NewRecorder(), telemetry.NewRecorder()
	gCfg := macc.Config{Machine: m, Telemetry: gRec}
	fCfg := macc.Config{Machine: m, Telemetry: fRec}
	gRes := st.graph(gCfg, f)
	fRes := st.flat(fCfg, fp, 0)
	if gRes != fRes {
		t.Fatalf("%s: %s result differs: graph %s, flat %s", what, st.name, gRes, fRes)
	}
	if err := fp.VerifyFn(0); err != nil {
		t.Fatalf("%s: %s: flat verify: %v", what, st.name, err)
	}
	back, err := fp.Unflatten()
	if err != nil {
		t.Fatalf("%s: %s: unflatten: %v", what, st.name, err)
	}
	if want, got := rtl.NewProgram(f).String(), back.String(); want != got {
		t.Fatalf("%s: %s printed different RTL:\n--- graph ---\n%s\n--- flat ---\n%s", what, st.name, want, got)
	}
	if gr, fr := gRec.Remarks(), fRec.Remarks(); !reflect.DeepEqual(gr, fr) {
		t.Fatalf("%s: %s remark streams differ:\ngraph %+v\nflat  %+v", what, st.name, gr, fr)
	}
}

// twinFn runs every stage twin on fresh copies of f, then once more along
// the pipeline, each stage fed the previous stage's output.
func twinFn(t *testing.T, what string, m *machine.Machine, f *rtl.Fn) {
	t.Helper()
	if err := f.Verify(); err != nil {
		t.Fatalf("%s: input does not verify: %v", what, err)
	}
	for _, st := range stageTwins() {
		twinStage(t, what+" (front-end input)", st, m, f.Clone())
	}
	chain := f.Clone()
	for _, st := range stageTwins() {
		twinStage(t, what+" (pipeline input)", st, m, chain)
	}
}

func TestStageTwinsKernels(t *testing.T) {
	for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
		rp, err := minic.Compile(bm.Src)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		for _, m := range machine.All() {
			for _, f := range rp.Fns {
				twinFn(t, fmt.Sprintf("%s/%s/%s", bm.Name, m.Name, f.Name), m, f)
			}
		}
	}
}

func TestStageTwinsCorpus(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 25
	}
	m := machine.Alpha()
	for _, p := range rtlgen.Corpus(1, n) {
		rp, err := minic.Compile(p.Src)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, f := range rp.Fns {
			twinFn(t, p.Name+"/"+f.Name, m, f)
		}
	}
}

func TestStageTwinsGenerated(t *testing.T) {
	seeds := int64(120)
	if testing.Short() {
		seeds = 20
	}
	m := machine.Alpha()
	for seed := int64(1); seed <= seeds; seed++ {
		f, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		twinFn(t, fmt.Sprintf("seed %d", seed), m, f)
	}
}

// TestPassListsAgree pins the flat and graph pass lists to the same stage
// names in the same order, and Passes to the list a compile runs: telemetry
// spans, remarks, and incident reports name stages by these strings.
func TestPassListsAgree(t *testing.T) {
	for _, unrollOn := range []bool{false, true} {
		for _, coalesce := range []bool{false, true} {
			for _, schedule := range []bool{false, true} {
				for _, regs := range []int{0, 16} {
					cfg := macc.Config{Optimize: true, Unroll: unrollOn, Schedule: schedule, Registers: regs}
					cfg.Coalesce.Loads = coalesce
					graph, flat := macc.PassListNames(cfg)
					if !reflect.DeepEqual(graph, flat) {
						t.Fatalf("%+v: graph passes %v, flat passes %v", cfg, graph, flat)
					}
					if got := macc.Passes(cfg); !reflect.DeepEqual(got, flat) {
						t.Fatalf("%+v: Passes = %v, compile runs %v", cfg, got, flat)
					}
					cfg.GraphPipeline = true
					if got := macc.Passes(cfg); !reflect.DeepEqual(got, graph) {
						t.Fatalf("%+v: Passes = %v, graph compile runs %v", cfg, got, graph)
					}
				}
			}
		}
	}
	if got := macc.Passes(macc.Config{}); got != nil {
		t.Fatalf("Passes without Optimize = %v, want none", got)
	}
}
