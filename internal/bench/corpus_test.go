package bench_test

import (
	"bytes"
	"testing"

	"macc/internal/bench"
	"macc/internal/machine"
	"macc/internal/rtlgen"
	"macc/internal/telemetry"
	"macc/internal/telemetry/report"
)

// TestRunCorpusDifferentialAndCoverage drives a small corpus through the
// runner: zero miscompiles (the differential oracle), every compile folded,
// and a nonzero coalescing coverage rate with a populated missed-reason
// histogram — the acceptance shape cmd/optreport scales up to hundreds of
// programs.
func TestRunCorpusDifferentialAndCoverage(t *testing.T) {
	progs := rtlgen.Corpus(7, 30)
	machines := []*machine.Machine{machine.Alpha(), machine.M88100()}
	b := report.NewBuilder()
	out := bench.RunCorpus(progs, machines, 4, func(m, cfg string, rec *telemetry.Recorder) {
		b.Add(m, cfg, rec.Remarks())
	})
	if !out.Ok() {
		t.Fatalf("corpus run not clean: miscompiles=%v failures=%v", out.Miscompiles, out.Failures)
	}
	wantCompiles := len(progs) * len(machines) * len(bench.CorpusConfigs)
	if out.Compiles != wantCompiles {
		t.Errorf("compiles = %d, want %d", out.Compiles, wantCompiles)
	}
	rep := b.Build("corpus-test")
	if rep.Coverage <= 0 {
		t.Error("coverage rate is zero over a corpus built to coalesce")
	}
	if len(rep.MissedReasons) == 0 {
		t.Error("missed-reason histogram empty over a corpus built to include hazards")
	}
	if rep.Units != len(progs) {
		t.Errorf("units = %d, want %d", rep.Units, len(progs))
	}
}

// TestRunCorpusDeterministicAcrossWorkers: the folded report must be
// byte-identical at any worker count, like the parallel table harness.
func TestRunCorpusDeterministicAcrossWorkers(t *testing.T) {
	progs := rtlgen.Corpus(3, 12)
	machines := []*machine.Machine{machine.Alpha()}
	build := func(workers int) string {
		b := report.NewBuilder()
		out := bench.RunCorpus(progs, machines, workers, func(m, cfg string, rec *telemetry.Recorder) {
			b.Add(m, cfg, rec.Remarks())
		})
		if !out.Ok() {
			t.Fatalf("workers=%d: %v %v", workers, out.Miscompiles, out.Failures)
		}
		rep := b.Build("det")
		rep.Provenance.CreatedAt = ""
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if build(1) != build(8) {
		t.Error("report differs between 1 and 8 workers")
	}
}
