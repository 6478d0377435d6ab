package pipeline

import (
	"runtime/debug"

	"macc/internal/rtl"
)

// FlatPass is one named transformation stage over the flat (struct-of-arrays)
// form of one function.
type FlatPass struct {
	// Name identifies the stage in diagnostics, dumps, and bisection.
	Name string
	// Run applies the transformation to function fi of fp in place. A
	// returned error (or a panic, or a subsequent verifier rejection) marks
	// the pass as failed.
	Run func(fp *rtl.FlatProgram, fi int) error
	// OnSuccess, when non-nil, is called only after the pass has run AND
	// the verification checkpoint has accepted the result. Side records
	// (coalescing reports, unroll factors) belong here so a rolled-back
	// pass leaves no trace of work that was undone.
	OnSuccess func()
}

// RunFlat executes the passes over function fi of fp. Each pass runs under
// panic recovery and is followed by a VerifyFn checkpoint. On failure the
// function is restored from the flat snapshot advanced after the last good
// pass — a restore copies array ranges, and committing a pass recaptures
// the arrays and counts the blocks it changed; in Strict mode the
// *PassError is returned instead and the function is left rolled back to
// that same snapshot.
func RunFlat(fp *rtl.FlatProgram, fi int, passes []FlatPass, opts Options) error {
	f := &fp.Fns[fi]
	fnName := fp.Syms[f.Name]
	good := rtl.NewFlatSnapshot(fp, fi)
	for _, p := range passes {
		if opts.Recorder != nil {
			opts.Recorder.BeginPass(p.Name, fnName, f.NumInstrs(), len(f.Blocks))
		}
		perr := runOneFlat(p, fp, fi, fnName)
		if perr == nil {
			if verr := fp.VerifyFn(fi); verr != nil {
				perr = &PassError{Pass: p.Name, Fn: fnName, Err: verr}
			}
		}
		if perr != nil {
			good.Restore()
			if opts.Recorder != nil {
				// Retract the pass's staged remarks and metric deltas; the
				// span survives, marked rolled back, mirroring the Incident.
				opts.Recorder.EndPass(f.NumInstrs(), len(f.Blocks), true, perr.Error())
			}
			if opts.Strict {
				return perr
			}
			if opts.Diags != nil {
				opts.Diags.Incidents = append(opts.Diags.Incidents,
					Incident{Pass: p.Name, Fn: fnName, Err: perr})
			}
			continue
		}
		dirty := good.Update()
		if p.OnSuccess != nil {
			p.OnSuccess()
		}
		if opts.Recorder != nil {
			opts.Recorder.EndPass(f.NumInstrs(), len(f.Blocks), false, "")
			opts.Recorder.Count("pipeline.snapshot_dirty_blocks", int64(dirty))
		}
		if opts.OnPass != nil {
			opts.OnPass(p.Name, fp, fi)
		}
	}
	return nil
}

// runOneFlat applies one flat pass, converting a panic into a *PassError.
func runOneFlat(p FlatPass, fp *rtl.FlatProgram, fi int, fnName string) (perr *PassError) {
	defer func() {
		if r := recover(); r != nil {
			perr = &PassError{Pass: p.Name, Fn: fnName, Recovered: r, Stack: debug.Stack()}
		}
	}()
	if err := p.Run(fp, fi); err != nil {
		return &PassError{Pass: p.Name, Fn: fnName, Err: err}
	}
	return nil
}
