package macc

import (
	"macc/internal/pipeline"
	"macc/internal/rtl"
	"macc/internal/telemetry"
)

// Test hooks for the external test package: the bodies of the loop stages
// and single-stage runs of the pass list.

func RunLICMFlat(fp *rtl.FlatProgram, fi int) bool { return runLICMFlat(fp, fi) }
func RunStrengthReduceFlat(fp *rtl.FlatProgram, fi int, em telemetry.Emitter) bool {
	return runStrengthReduceFlat(fp, fi, em)
}
func RunUnrollLoopsFlat(cfg Config, fp *rtl.FlatProgram, fi int) map[string]int {
	return runUnrollLoopsFlat(cfg, fp, fi)
}

// RunStage runs only the stage named stage of cfg's pass list over every
// function of rp, under the hardened pass manager, and returns the result
// with the stage's side records. rp is left untouched.
func RunStage(rp *rtl.Program, cfg Config, stage string) (*Program, error) {
	p := newProgram(nil, cfg.Machine)
	opts := pipeline.Options{Strict: cfg.Strict, Diags: p.Diagnostics, Recorder: cfg.Telemetry}
	var pass []pipeline.FlatPass
	for _, ps := range p.flatPassList(cfg) {
		if ps.Name == stage {
			pass = append(pass, ps)
		}
	}
	fp, err := rtl.Flatten(rp)
	if err != nil {
		return nil, err
	}
	for fi := range fp.Fns {
		if err := pipeline.RunFlat(fp, fi, pass, opts); err != nil {
			return nil, err
		}
	}
	if p.RTL, err = fp.Unflatten(); err != nil {
		return nil, err
	}
	return p, nil
}
