package macc_test

import (
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/machine"
	"macc/internal/rtlgen"
)

// coldCompileAllocCeiling caps the mallocs of one cold-compile sweep: the
// eight paper kernels under loads+stores on the Alpha, plus ten corpus
// programs under the three corpus configurations (vpo baseline, loads,
// loads+stores) on the Alpha — 38 compiles. It is the count measured when
// the guard was introduced (38622) plus 10%; lower it when a change makes
// cold compiles leaner.
const coldCompileAllocCeiling = 42484

// TestColdCompileAllocBudget is the allocation guard of the cold compile
// path: it fails when a change makes cold compiles allocate noticeably more.
func TestColdCompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	m := machine.Alpha()
	type job struct {
		src string
		cfg macc.Config
	}
	var jobs []job
	for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
		jobs = append(jobs, job{bm.Src, bench.NamedConfig("loads+stores", m)})
	}
	for _, p := range rtlgen.Corpus(1, 10) {
		for _, cfg := range []macc.Config{macc.BaselineConfig(m), bench.NamedConfig("loads", m), bench.NamedConfig("loads+stores", m)} {
			jobs = append(jobs, job{p.Src, cfg})
		}
	}
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		for _, j := range jobs {
			if _, cerr := macc.Compile(j.src, j.cfg); cerr != nil {
				err = cerr
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cold-compile sweep: %.0f allocs (%d compiles, ceiling %d)", allocs, len(jobs), coldCompileAllocCeiling)
	if allocs > coldCompileAllocCeiling {
		t.Fatalf("cold-compile sweep allocates %.0f times, above the ceiling of %d", allocs, coldCompileAllocCeiling)
	}
}
