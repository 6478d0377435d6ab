package macc_test

// Stage twins: a compile run one stage at a time — each stage on its own
// over a fresh flat image of the previous stage's materialized output — must
// agree with the whole pipeline run in one go: byte-identical printed RTL,
// the same coalescing reports and unroll factors, and the same remarks. A
// divergence names a stage that depends on state the pipeline carries
// between stages, or a flatten/unflatten round trip that is not lossless
// mid-pipeline.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/core"
	"macc/internal/machine"
	"macc/internal/minic"
	"macc/internal/rtl"
	"macc/internal/rtlgen"
	"macc/internal/telemetry"
)

// sortedRemarks renders a remark stream order-insensitively: the whole
// pipeline emits function by function, the staged run stage by stage.
func sortedRemarks(rec *telemetry.Recorder) []string {
	var out []string
	for _, r := range rec.Remarks() {
		out = append(out, r.String())
	}
	sort.Strings(out)
	return out
}

// twinStages compiles rp under cfg both ways and fails on any difference.
func twinStages(t *testing.T, what string, rp *rtl.Program, cfg macc.Config) {
	t.Helper()
	wholeRec := telemetry.NewRecorder()
	wholeCfg := cfg
	wholeCfg.Telemetry = wholeRec
	whole, err := macc.CompileRTL(rp, wholeCfg)
	if err != nil {
		t.Fatalf("%s: compile: %v", what, err)
	}

	stagedRec := telemetry.NewRecorder()
	stagedCfg := cfg
	stagedCfg.Telemetry = stagedRec
	cur := rp
	var reports []core.LoopReport
	unrolled := map[string]int{}
	for _, stage := range macc.Passes(cfg) {
		p, err := macc.RunStage(cur, stagedCfg, stage)
		if err != nil {
			t.Fatalf("%s: stage %s: %v", what, stage, err)
		}
		if p.Diagnostics.Degraded() {
			t.Fatalf("%s: stage %s rolled back: %s", what, stage, p.Diagnostics)
		}
		reports = append(reports, p.Reports...)
		for fn, factor := range p.Unrolled {
			unrolled[fn] = factor
		}
		cur = p.RTL
	}

	if want, got := whole.RTL.String(), cur.String(); want != got {
		t.Fatalf("%s: staged run printed different RTL:\n--- pipeline ---\n%s\n--- staged ---\n%s", what, want, got)
	}
	if !reflect.DeepEqual(whole.Reports, reports) {
		t.Fatalf("%s: coalescing reports differ:\npipeline %+v\nstaged   %+v", what, whole.Reports, reports)
	}
	if !reflect.DeepEqual(whole.Unrolled, unrolled) {
		t.Fatalf("%s: unroll factors differ: pipeline %v, staged %v", what, whole.Unrolled, unrolled)
	}
	if w, s := sortedRemarks(wholeRec), sortedRemarks(stagedRec); !reflect.DeepEqual(w, s) {
		t.Fatalf("%s: remark streams differ:\npipeline %v\nstaged   %v", what, w, s)
	}
}

func TestStageTwinsKernels(t *testing.T) {
	for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
		rp, err := minic.Compile(bm.Src)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		for _, m := range machine.All() {
			cfg := macc.DefaultConfig()
			cfg.Machine = m
			cfg.Registers = 16
			twinStages(t, fmt.Sprintf("%s/%s", bm.Name, m.Name), rp, cfg)
		}
	}
}

func TestStageTwinsCorpus(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 25
	}
	cfg := macc.DefaultConfig()
	for _, p := range rtlgen.Corpus(1, n) {
		rp, err := minic.Compile(p.Src)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		twinStages(t, p.Name, rp, cfg)
	}
}

func TestStageTwinsGenerated(t *testing.T) {
	seeds := int64(120)
	if testing.Short() {
		seeds = 20
	}
	cfg := macc.DefaultConfig()
	cfg.Registers = 8
	for seed := int64(1); seed <= seeds; seed++ {
		f, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		twinStages(t, fmt.Sprintf("seed %d", seed), rtl.NewProgram(f), cfg)
	}
}
