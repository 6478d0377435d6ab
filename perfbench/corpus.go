package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"macc"
	"macc/internal/bench"
	"macc/internal/machine"
	"macc/internal/pipeline"
	"macc/internal/rtlgen"
)

// corpusPrograms is the corpus-cold input size: the seeded rtlgen corpus
// the optimization report and the corpus differential use.
const corpusPrograms = 200

// warmupPrograms is how many corpus programs set-up compiles once, under
// every machine and configuration, before timing starts.
const warmupPrograms = 20

// setupRepeats is how many times each workload sets up per run; setup_s is
// the median.
const setupRepeats = 3

// maxFailureLines caps the failures a run prints individually.
const maxFailureLines = 5

// corpusSetup is corpus-cold's input: the seeded corpus, and for every
// (program, machine) the behaviour fingerprint of the unoptimized compile
// that every optimized compile must reproduce.
type corpusSetup struct {
	progs    []rtlgen.CorpusProgram
	machines []*machine.Machine
	refs     [][]string // [program][machine]
}

func setupCorpus(seed int64) (*corpusSetup, error) {
	cs := &corpusSetup{progs: rtlgen.Corpus(seed, corpusPrograms), machines: machine.All()}
	cs.refs = make([][]string, len(cs.progs))
	for pi, p := range cs.progs {
		cs.refs[pi] = make([]string, len(cs.machines))
		for mi, m := range cs.machines {
			ref, err := macc.Compile(p.Src, macc.Config{Machine: m})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: reference compile: %w", p.Name, m.Name, err)
			}
			fp, err := pipeline.Behavior(ref.RTL, m, p.MemBytes, p.Entry, [][]int64{p.Args})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: reference run: %w", p.Name, m.Name, err)
			}
			cs.refs[pi][mi] = fp
		}
	}
	// Warm up: the first measured sweep should not pay for growing the
	// heap or faulting in the optimizer's code.
	for _, p := range cs.progs[:warmupPrograms] {
		for _, m := range cs.machines {
			for _, cfg := range compileConfigs(m) {
				if _, err := macc.Compile(p.Src, cfg); err != nil {
					return nil, fmt.Errorf("%s/%s: warm-up compile: %w", p.Name, m.Name, err)
				}
			}
		}
	}
	return cs, nil
}

// compileConfigs are the three columns corpus-cold measures: the vpo
// baseline (unrolled and scheduled, no coalescing), coalesced loads, and
// coalesced loads and stores.
func compileConfigs(m *machine.Machine) []macc.Config {
	return []macc.Config{macc.BaselineConfig(m), bench.NamedConfig("loads", m), bench.NamedConfig("loads+stores", m)}
}

// medianSetup runs setup n times and returns the last result with the
// median duration in seconds. Each earlier result is handed to discard
// before the next set-up starts.
func medianSetup[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		last = v
	}
	sort.Float64s(ds)
	return last, ds[len(ds)/2], nil
}

// compileStats is what one measured window of a compile workload yields.
// A unit is one (input, machine, configuration) compile; every sweep
// compiles every unit once.
type compileStats struct {
	lat samples // every untraced compile's latency, pooled
	// Per unit, one sample per sweep: the compile latency, and the whole
	// operation (compile, simulate, check). The end-to-end figures take
	// each unit's median over sweeps, so a stall of the shared host that
	// hits one sweep of a unit does not reach them, and then summarize
	// over units: the tail is the slowest inputs, not the unluckiest
	// moments.
	unitLat, unitOp []samples
	allocs          uint64
	compiles        int
	wall            time.Duration
	sweeps          int
	// size is the static instruction total of one sweep's compiled output.
	size int64
	// speedup holds, per machine, the baseline-over-loads+stores cycle
	// ratio of every program of one sweep.
	speedup map[string][]float64
}

func newCompileStats(units int) compileStats {
	return compileStats{unitLat: make([]samples, units), unitOp: make([]samples, units),
		speedup: make(map[string][]float64)}
}

// compiled records one untraced compile of unit u: its latency, and the
// heap allocations it made.
func (st *compileStats) compiled(u int, lat time.Duration, allocs uint64) {
	st.lat = append(st.lat, lat)
	st.unitLat[u] = append(st.unitLat[u], lat)
	st.allocs += allocs
	st.compiles++
}

// unitMedians returns each unit's median over sweeps (units with no
// sample are skipped).
func unitMedians(per []samples) samples {
	var out samples
	for _, s := range per {
		if len(s) > 0 {
			out = append(out, s.median())
		}
	}
	return out
}

// fail counts one failed operation and prints the first few.
func fail(res *result, format string, args ...any) {
	res.failed++
	if res.failed <= maxFailureLines {
		res.logf("FAIL "+format, args...)
	}
}

// measure compiles every (program, machine, configuration) of the corpus,
// simulates each compile and checks its behaviour against the reference,
// in whole sweeps until seconds have passed (at least one). Each sweep
// starts from a collected heap. With a ledger the compiles are traced and
// decomposed instead, for exactly one sweep.
func (cs *corpusSetup) measure(seconds float64, l *ledger, res *result) compileStats {
	cfgs := make([][]macc.Config, len(cs.machines))
	for mi, m := range cs.machines {
		cfgs[mi] = compileConfigs(m)
	}
	st := newCompileStats(len(cs.progs) * len(cs.machines) * len(cfgs[0]))
	first := make([]int64, len(st.unitLat)) // cycles of the first sweep, by unit
	start := time.Now()
	for st.sweeps == 0 || (l == nil && time.Since(start).Seconds() < seconds) {
		runtime.GC()
		for pi, p := range cs.progs {
			for mi, m := range cs.machines {
				var cycles [3]int64
				for ci, cfg := range cfgs[mi] {
					u := (pi*len(cs.machines)+mi)*len(cfgs[mi]) + ci
					cfg.Unit = p.Name
					res.attempted++
					var prog *macc.Program
					var err error
					a0 := heapAllocs()
					t0 := time.Now()
					if l == nil {
						prog, err = macc.Compile(p.Src, cfg)
						st.compiled(u, time.Since(t0), heapAllocs()-a0)
					} else {
						prog, err = l.compile(p.Src, cfg)
					}
					if err != nil {
						fail(res, "%s/%s/%d: compile: %v", p.Name, m.Name, ci, err)
						continue
					}
					c, err := cs.verify(prog, pi, mi, l, ci)
					if err != nil {
						fail(res, "%s/%s/%d: %v", p.Name, m.Name, ci, err)
						continue
					}
					if l == nil {
						st.unitOp[u] = append(st.unitOp[u], time.Since(t0))
					}
					cycles[ci] = c
					if st.sweeps == 0 {
						first[u] = c
						st.size += staticInstrs(prog.RTL)
					} else if first[u] != c {
						fail(res, "%s/%s/%d: %d cycles, %d in the first sweep", p.Name, m.Name, ci, c, first[u])
					}
				}
				if st.sweeps == 0 && cycles[0] > 0 && cycles[2] > 0 {
					st.speedup[m.Name] = append(st.speedup[m.Name], float64(cycles[0])/float64(cycles[2]))
				}
			}
		}
		st.sweeps++
	}
	st.wall = time.Since(start)
	return st
}

// verify checks one optimized compile: not degraded, and the same
// behaviour fingerprint as the unoptimized reference. It then simulates
// the compile with zeroed memory for its cycle count.
func (cs *corpusSetup) verify(prog *macc.Program, pi, mi int, l *ledger, ci int) (int64, error) {
	p, m := cs.progs[pi], cs.machines[mi]
	if prog.Diagnostics.Degraded() {
		return 0, fmt.Errorf("compile degraded: %v", prog.Diagnostics)
	}
	fp, err := pipeline.Behavior(prog.RTL, m, p.MemBytes, p.Entry, [][]int64{p.Args})
	if err != nil {
		return 0, fmt.Errorf("run: %w", err)
	}
	if fp != cs.refs[pi][mi] {
		return 0, fmt.Errorf("behaviour diverged from the unoptimized compile")
	}
	if l != nil {
		r, err := l.simulate(prog, p.MemBytes, p.Entry, p.Args)
		if err != nil {
			return 0, fmt.Errorf("run: %w", err)
		}
		if ci != 1 {
			l.addMemRefs(m.Name, ci/2, r.MemRefs())
		}
		return r.Cycles, nil
	}
	s := prog.NewSim(p.MemBytes)
	defer s.Release()
	r, err := s.Run(p.Entry, p.Args...)
	if err != nil {
		return 0, fmt.Errorf("run: %w", err)
	}
	return r.Cycles, nil
}

// setCompileE2E writes a compile workload's end-to-end metrics.
func setCompileE2E(res *result, st compileStats, setupS float64, opName string) {
	lat, ops := unitMedians(st.unitLat), unitMedians(st.unitOp)
	res.set("setup_s", setupS)
	res.set("latency_ms_p50", ms(lat.median()))
	res.set("throughput_per_s", float64(len(ops))/ops.total().Seconds())
	res.set("allocs_per_op", frac(float64(st.allocs), float64(st.compiles)))
	res.set("code_size_instrs", float64(st.size))
	for _, m := range machineNames {
		res.set("cycles_speedup."+m, geomean(st.speedup[m]))
	}
	res.logf("compile latency, every compile pooled: %s", st.lat.describe())
	res.logf("compile latency, each unit's median over %d sweeps: %s", st.sweeps, lat.describe())
	res.logf("latency_ms_p50 is the p50 over units of each unit's median compile latency")
	res.logf("%s: %.4g per second from each unit's median time (%d done in %.3f s)",
		opName, float64(len(ops))/ops.total().Seconds(), st.compiles, st.wall.Seconds())
}

func runCorpusCold(o opts) (*result, error) {
	cs, setupS, err := medianSetup(setupRepeats, func() (*corpusSetup, error) { return setupCorpus(o.seed) }, nil)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.logf("corpus-cold: rtlgen.Corpus(%d, %d) x %d machines x {vpo, loads, loads+stores}, cold macc.Compile, one goroutine",
		o.seed, len(cs.progs), len(cs.machines))
	if !o.trace {
		st := cs.measure(o.seconds, nil, res)
		setCompileE2E(res, st, setupS, "compiles (each simulated and checked)")
		return res, nil
	}
	untraced := cs.measure(o.seconds/2, nil, res)
	l := newLedger()
	cs.measure(0, l, res)
	l.report(res)
	res.set("trace.overhead_frac", l.overhead(untraced))
	return res, nil
}
