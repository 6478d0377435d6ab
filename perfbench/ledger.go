package main

import (
	"fmt"
	"time"

	"macc"
	"macc/internal/minic"
	"macc/internal/rtl"
	"macc/internal/rtl/codec"
	"macc/internal/sim"
	"macc/internal/telemetry"
)

// ledger accumulates the per-layer cost of traced compiles. A traced
// compile is decomposed into the public calls macc.Compile makes —
// minic.Parse, Check, Lower, rtl.Flatten, macc.OptimizeFlat with a
// telemetry recorder, and the printer — each timed by the benchmark
// itself, and its printed RTL is checked byte for byte against an
// untraced macc.Compile of the same source. The program adds no timers:
// pass times come from the recorder's existing pass spans and counters.
type ledger struct {
	compiles int
	// Front end and IR form changes, summed over compiles. lex times a
	// separate minic.Lex call; parse includes its own lexing.
	lex, parse, check, lower, flatten, unflatten, print time.Duration
	frontInstrs                                         int64
	passes                                              map[string]time.Duration
	// reg merges every traced compile's recorder counters: per-pass
	// alloc_bytes, coalescer counters, pipeline.pass_rollbacks.
	reg *telemetry.Registry
	// covered is the layer time attributed inside the traced compiles;
	// wall is their total wall time.
	covered, wall time.Duration
	mismatches    []string

	encode, decode time.Duration
	codecBytes     int64
	codecOps       int

	simDecode, simRun time.Duration
	simRuns           int
	simInstrs         int64
	// memRefs sums executed memory references per machine for the
	// baseline ([0]) and loads+stores ([1]) configurations.
	memRefs map[string]*[2]int64
}

func newLedger() *ledger {
	return &ledger{passes: make(map[string]time.Duration), reg: telemetry.NewRegistry(),
		memRefs: make(map[string]*[2]int64)}
}

// compile runs one traced, decomposed compile of src under cfg (which must
// optimize), checks its printed RTL against an untraced macc.Compile, and
// folds its layer times into the ledger. It returns the traced program.
func (l *ledger) compile(src string, cfg macc.Config) (*macc.Program, error) {
	ref, err := macc.Compile(src, cfg)
	if err != nil {
		return nil, fmt.Errorf("untraced compile: %w", err)
	}
	want := ref.RTL.String()

	lx := time.Now()
	if _, err := minic.Lex(src); err != nil {
		return nil, fmt.Errorf("lex: %w", err)
	}
	l.lex += time.Since(lx)

	rec := telemetry.NewRecorder()
	cfg.Telemetry = rec
	t0 := time.Now()
	file, err := minic.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	t1 := time.Now()
	if err := minic.Check(file); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	t2 := time.Now()
	rp, err := minic.Lower(file)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	t3 := time.Now()
	fp, err := rtl.Flatten(rp)
	if err != nil {
		return nil, fmt.Errorf("flatten: %w", err)
	}
	t4 := time.Now()
	p, err := macc.OptimizeFlat(fp, cfg)
	if err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	t5 := time.Now()
	got := p.RTL.String()
	t6 := time.Now()

	// OptimizeFlat ends by materializing the graph from the final image;
	// the same call, timed on the same image, stands for that share.
	u0 := time.Now()
	if _, err := p.Flat.Unflatten(); err != nil {
		return nil, fmt.Errorf("unflatten: %w", err)
	}
	unflatten := time.Since(u0)

	var passTime time.Duration
	for _, sp := range rec.Spans() {
		l.passes[sp.Pass] += sp.Dur
		passTime += sp.Dur
	}
	l.reg.Merge(rec.Metrics())
	l.compiles++
	l.parse += t1.Sub(t0)
	l.check += t2.Sub(t1)
	l.lower += t3.Sub(t2)
	l.flatten += t4.Sub(t3)
	l.unflatten += unflatten
	l.print += t6.Sub(t5)
	l.frontInstrs += staticInstrs(rp)
	l.wall += t6.Sub(t0)
	l.covered += t1.Sub(t0) + t2.Sub(t1) + t3.Sub(t2) + t4.Sub(t3) + passTime + unflatten + t6.Sub(t5)

	if got != want {
		l.mismatches = append(l.mismatches, fmt.Sprintf("%s/%s: traced RTL differs from macc.Compile", cfg.Unit, cfg.Machine.Name))
	}
	if err := l.codec(p.Flat, want); err != nil {
		l.mismatches = append(l.mismatches, fmt.Sprintf("%s/%s: %v", cfg.Unit, cfg.Machine.Name, err))
	}
	return p, nil
}

// codec times one encode/decode round trip of a compiled image — the
// cache's disk-tier and peer wire format — and checks the decoded program
// prints as want.
func (l *ledger) codec(fp *rtl.FlatProgram, want string) error {
	t0 := time.Now()
	buf := codec.EncodeProgram(fp)
	t1 := time.Now()
	dec, err := codec.DecodeProgram(buf)
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("codec round trip: %w", err)
	}
	l.encode += t1.Sub(t0)
	l.decode += t2.Sub(t1)
	l.codecBytes += int64(len(buf))
	l.codecOps++
	rp, err := dec.Unflatten()
	if err != nil {
		return fmt.Errorf("codec round trip: %w", err)
	}
	if rp.String() != want {
		return fmt.Errorf("codec round trip changed the program")
	}
	return nil
}

// simulate times the simulator's predecode of p's flat image and one run
// of entry, and returns the result.
func (l *ledger) simulate(p *macc.Program, memBytes int, entry string, args []int64) (sim.Result, error) {
	t0 := time.Now()
	s := sim.NewFlat(p.Flat, p.Machine, memBytes)
	t1 := time.Now()
	res, err := s.Run(entry, args...)
	t2 := time.Now()
	s.Release()
	if err != nil {
		return res, err
	}
	l.addSim(t1.Sub(t0), t2.Sub(t1), res.Instrs)
	return res, nil
}

// addSim records one simulator predecode, one run and the instructions it
// executed.
func (l *ledger) addSim(decode, run time.Duration, instrs int64) {
	l.simDecode += decode
	l.simRun += run
	l.simRuns++
	l.simInstrs += instrs
}

// addMemRefs records one program's executed memory references under the
// baseline (col 0) or loads+stores (col 1) configuration.
func (l *ledger) addMemRefs(machine string, col int, refs int64) {
	if l.memRefs[machine] == nil {
		l.memRefs[machine] = new([2]int64)
	}
	l.memRefs[machine][col] += refs
}

// coverage is the share of traced compile wall time the layer times
// account for.
func (l *ledger) coverage() float64 { return frac(float64(l.covered), float64(l.wall)) }

// overhead is the traced compile's mean wall time, printing excluded as
// macc.Compile does not print, over the untraced window's mean compile
// latency, minus one.
func (l *ledger) overhead(untraced compileStats) float64 {
	base := untraced.lat.total().Seconds() / float64(untraced.compiles)
	traced := (l.wall - l.print).Seconds() / float64(l.compiles)
	return frac(traced-base, base)
}

// report writes the compile-path layer metrics into res and counts the
// ledger's cross-check failures as failed operations: a traced compile
// whose RTL differs from macc.Compile, a codec round trip that changes the
// program, or layer times covering under 90% of the traced compile time.
func (l *ledger) report(res *result) {
	n := float64(l.compiles)
	per := func(d time.Duration) float64 { return frac(us(d), n) }
	res.set("minic.lex_us", per(l.lex))
	res.set("minic.parse_us", per(l.parse))
	res.set("minic.check_us", per(l.check))
	res.set("minic.lower_us", per(l.lower))
	res.set("minic.instrs", frac(float64(l.frontInstrs), n))
	res.set("rtl.flatten_us", per(l.flatten))
	res.set("rtl.unflatten_us", per(l.unflatten))
	res.set("rtl.print_us", per(l.print))
	for _, p := range passNames {
		res.set("pass."+p+".ms", frac(ms(l.passes[p]), n))
		res.set("pass."+p+".alloc_mb", frac(float64(l.reg.CounterValue("pass."+p+".alloc_bytes"))/1e6, n))
	}
	res.set("pipeline.rollbacks", float64(l.reg.CounterValue("pipeline.pass_rollbacks")))
	examined := l.reg.CounterValue("coalesce.loops_examined")
	coalesced := l.reg.CounterValue("coalesce.loops_coalesced")
	res.set("coalesce.loops_examined", float64(examined))
	res.set("coalesce.loops_coalesced", float64(coalesced))
	res.set("coalesce.passed_frac", frac(float64(coalesced), float64(examined)))
	res.set("coalesce.wide_loads", float64(l.reg.CounterValue("coalesce.wide_loads")))
	res.set("coalesce.wide_stores", float64(l.reg.CounterValue("coalesce.wide_stores")))
	res.set("coalesce.narrow_refs_eliminated", float64(l.reg.CounterValue("coalesce.narrow_loads_eliminated")+
		l.reg.CounterValue("coalesce.narrow_stores_eliminated")))
	res.set("coalesce.check_instrs", float64(l.reg.CounterValue("coalesce.check_instrs")))
	ops := float64(l.codecOps)
	res.set("codec.encode_us", frac(us(l.encode), ops))
	res.set("codec.decode_us", frac(us(l.decode), ops))
	res.set("codec.bytes", frac(float64(l.codecBytes), ops))
	runs := float64(l.simRuns)
	res.set("sim.decode_us", frac(us(l.simDecode), runs))
	res.set("sim.run_ms", frac(ms(l.simRun), runs))
	res.set("sim.instrs", frac(float64(l.simInstrs), runs))
	res.set("sim.mips", frac(float64(l.simInstrs), us(l.simRun)))
	for _, m := range machineNames {
		if r := l.memRefs[m]; r != nil {
			res.set("sim.mem_refs_ratio."+m, frac(float64(r[1]), float64(r[0])))
		}
	}
	res.set("trace.coverage_frac", l.coverage())
	res.logf("ledger: %d traced compiles, layer times cover %.1f%% of %.1f ms traced compile time; %d cross-check failures",
		l.compiles, 100*l.coverage(), ms(l.wall), len(l.mismatches))
	for _, m := range l.mismatches {
		res.logf("ledger: FAIL %s", m)
	}
	res.failed += int64(len(l.mismatches))
	if l.compiles > 0 && l.coverage() < 0.9 {
		res.failed++
		res.logf("ledger: FAIL layer times cover %.1f%% of traced compile time, under 90%%", 100*l.coverage())
	}
}

// staticInstrs counts the instructions of every function of rp.
func staticInstrs(rp *rtl.Program) int64 {
	var n int64
	for _, f := range rp.Fns {
		for _, b := range f.Blocks {
			n += int64(len(b.Instrs))
		}
	}
	return n
}
