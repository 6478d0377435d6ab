// Package macc is a retargetable optimizing back end reproducing "Memory
// Access Coalescing: A Technique for Eliminating Redundant Memory Accesses"
// (Davidson & Jinturkar, PLDI 1994). It compiles a C subset to a register
// transfer IR, applies the classic vpo-style optimization pipeline — loop
// invariant code motion, induction-variable strength reduction and test
// replacement, loop unrolling with a remainder loop, and list scheduling —
// and then performs the paper's contribution: coalescing consecutive narrow
// memory references into wide ones guarded by run-time alias and alignment
// checks. Compiled programs run on a cycle-accurate-in-spirit simulator of
// the paper's three evaluation targets (DEC Alpha, Motorola 88100, Motorola
// 68030), which reports cycles and memory reference counts.
//
// Quick start:
//
//	prog, err := macc.Compile(src, macc.Config{
//		Machine:  machine.Alpha(),
//		Coalesce: core.DefaultOptions(),
//	})
//	s := prog.NewSim(1 << 20)
//	res, err := s.Run("dotproduct", aAddr, bAddr, n)
package macc

import (
	"context"
	"fmt"
	"strings"

	"macc/internal/ccache"
	"macc/internal/cfg"
	"macc/internal/core"
	"macc/internal/dataflow"
	"macc/internal/iv"
	"macc/internal/machine"
	"macc/internal/minic"
	"macc/internal/opt"
	"macc/internal/pipeline"
	"macc/internal/regalloc"
	"macc/internal/rtl"
	"macc/internal/sched"
	"macc/internal/sim"
	"macc/internal/telemetry"
	"macc/internal/telemetry/dtrace"
	"macc/internal/unroll"
)

// Config controls the compilation pipeline.
type Config struct {
	// Machine is the target description; defaults to the Alpha model.
	Machine *machine.Machine
	// Optimize enables the machine-independent clean-up passes. Without it
	// the pipeline stops after code generation (useful for debugging).
	Optimize bool
	// Unroll enables loop unrolling. UnrollFactor forces a factor; zero
	// selects the paper's heuristic (word width over narrowest reference,
	// capped by the instruction cache).
	Unroll       bool
	UnrollFactor int
	// Coalesce selects the memory access coalescing mode. The zero value
	// disables the transformation.
	Coalesce core.Options
	// Schedule runs the per-block list scheduler.
	Schedule bool
	// Registers, when non-zero, runs the linear-scan register allocator
	// with a register file of that size after scheduling (spill code is
	// therefore unscheduled, as in compilers that allocate late). Zero
	// keeps virtual registers, modelling an unbounded file.
	Registers int
	// DumpStage, when non-nil, receives the RTL after each pipeline stage
	// (stage name, function); used by cmd/macc -dump.
	DumpStage func(stage string, f *rtl.Fn)
	// Strict makes the first pass failure (panic, pass error, or verifier
	// rejection of the pass's output) abort compilation with a
	// *pipeline.PassError. The default rolls the function back to its
	// last-known-good form, records the incident in Program.Diagnostics,
	// and continues with the remaining passes (degraded mode).
	Strict bool
	// GraphPipeline forces the optimizer to run on the pointer-graph IR for
	// every pass. By default the cold path flattens the front end's output
	// once and runs the pipeline natively on the struct-of-arrays form
	// (only regalloc bridges through the graph, per function); the two modes
	// produce byte-identical programs — this switch exists for differential
	// testing and as an escape hatch. It never enters the cache fingerprint,
	// because it cannot change the compiled output.
	GraphPipeline bool
	// WrapPass, when non-nil, wraps every optimization pass before it
	// runs; fault injection (internal/faultinject) and tracing hook in
	// here.
	WrapPass func(pipeline.Pass) pipeline.Pass
	// Telemetry, when non-nil, receives the compile's observability
	// stream: per-pass spans with IR deltas (exportable as a Chrome
	// trace), optimization remarks from the coalescer, unroller, and
	// induction-variable analysis, and the static metrics counters. Wire
	// the same recorder's Registry into sim.AttachMetrics to see static
	// decisions and dynamic memory traffic side by side.
	Telemetry *telemetry.Recorder
	// Unit names the translation unit being compiled — the kernel or source
	// file — and is stamped onto every optimization remark, completing the
	// remark's stable identity key (unit:fn/loop) that corpus-wide reports
	// diff on. Purely observational: it never affects compilation output or
	// the cache key.
	Unit string
	// Cache, when non-nil, memoizes whole compilations content-addressed
	// by (source text, configuration, machine): byte-identical inputs are
	// compiled once and every further Compile is served from the cache's
	// memory or disk tier, with concurrent identical compiles
	// deduplicated singleflight-style. A cache hit returns a program
	// observably identical to a cold compile (same printed RTL, same
	// simulated behaviour) but skips the pass pipeline, so per-pass
	// telemetry spans and remarks are not re-emitted; the cache's own
	// counters (ccache.mem_hits, ...) record the hit instead. The cache
	// is bypassed when DumpStage or WrapPass is set (those observe or
	// perturb individual passes and need the real pipeline), and compiles
	// that degrade (Diagnostics non-empty) are returned but never stored.
	Cache *ccache.Cache
	// Tracer, when non-nil together with Telemetry, links the compile's
	// per-pass pipeline spans into the distributed trace carried by the
	// CompileCtx context (each pass becomes a child of the span context in
	// ctx — typically the cache's compute span, or the server's ingress
	// span for uncached compiles). Like Telemetry, it never affects the
	// cache key or the compiled output.
	Tracer *dtrace.Tracer
}

// emitter returns the remark sink for the configured recorder (a Nop when
// telemetry is off), so passes emit unconditionally. Remarks are stamped
// with the configured Unit on their way through.
func (cfg Config) emitter() telemetry.Emitter {
	if cfg.Telemetry != nil {
		return telemetry.WithUnit(cfg.Telemetry, cfg.Unit)
	}
	return telemetry.Nop{}
}

// DefaultConfig enables everything on the Alpha model, mirroring the
// paper's "vpcc/vpo -O + coalescing" configuration.
func DefaultConfig() Config {
	return Config{
		Machine:  machine.Alpha(),
		Optimize: true,
		Unroll:   true,
		Coalesce: core.DefaultOptions(),
		Schedule: true,
	}
}

// BaselineConfig is the paper's "vpcc/vpo -O" column: everything except
// coalescing (loops still unrolled so the comparison isolates coalescing).
func BaselineConfig(m *machine.Machine) Config {
	return Config{Machine: m, Optimize: true, Unroll: true, Schedule: true}
}

// NativeConfig stands in for the native "cc -O" column: a credible but
// weaker compiler (no scheduling, no unrolling).
func NativeConfig(m *machine.Machine) Config {
	return Config{Machine: m, Optimize: true}
}

// Program is a compiled program bound to a machine model.
type Program struct {
	RTL     *rtl.Program
	Machine *machine.Machine
	// Flat is the program's flat (struct-of-arrays) image when one is
	// available — every cache-served program carries one, as does the cold
	// compile that populated the cache. When set, NewSim predecodes from it
	// directly (sim.NewFlat), skipping the pointer-graph walk; RTL is then
	// a private materialized view of the same program. Nil for uncached
	// compiles, whose RTL is the pipeline's live graph.
	Flat *rtl.FlatProgram
	// Reports holds one entry per loop the coalescer examined.
	Reports []core.LoopReport
	// Unrolled maps function names to the factors applied.
	Unrolled map[string]int
	// Diagnostics records every pass that was rolled back during a
	// non-strict compile; empty when every pass ran cleanly.
	Diagnostics *pipeline.Diagnostics
	// Telemetry is the recorder the program was compiled with (nil when
	// observability was off). NewSim wires its registry into the
	// simulator, so static pipeline counters and dynamic run counters
	// accumulate side by side.
	Telemetry *telemetry.Recorder
	// Cached reports that this program was served from Config.Cache (a
	// memory/disk hit or a shared in-flight compile) rather than compiled
	// by this call.
	Cached bool
}

// Compile runs the full pipeline over a mini-C translation unit. With
// Config.Cache set, byte-identical (source, config, machine) compiles are
// served from the content-addressed cache instead of re-running the
// front end and pass pipeline.
func Compile(src string, cfg Config) (*Program, error) {
	return CompileCtx(context.Background(), src, cfg)
}

// CompileCtx is Compile with context propagation. When ctx carries a
// dtrace span context (a farm request's ingress span) and Config.Tracer is
// set, the compile's cache-tier decision, singleflight wait or compute
// span, and per-pass pipeline spans all join that request's trace.
func CompileCtx(ctx context.Context, src string, cfg Config) (*Program, error) {
	if cfg.Machine == nil {
		cfg.Machine = machine.Alpha()
	}
	cold := func(ctx context.Context) (*Program, error) { return compileSource(ctx, src, cfg) }
	if cfg.usesCache() {
		return compileCached(ctx, src, cfg, cold)
	}
	return cold(ctx)
}

func compileSource(ctx context.Context, src string, cfg Config) (*Program, error) {
	rp, err := minic.Compile(src)
	if err != nil {
		return nil, err
	}
	return compileProgram(ctx, rp, cfg)
}

// CompileRTL applies the pipeline to an already-built RTL program (used by
// tests and by callers constructing IR directly). With Config.Cache set the
// compile is keyed by the program's printed text; on a hit rp is left
// untouched and the cached result is returned instead.
func CompileRTL(rp *rtl.Program, cfg Config) (*Program, error) {
	return CompileRTLCtx(context.Background(), rp, cfg)
}

// CompileRTLCtx is CompileRTL with context propagation (see CompileCtx).
func CompileRTLCtx(ctx context.Context, rp *rtl.Program, cfg Config) (*Program, error) {
	if cfg.Machine == nil {
		cfg.Machine = machine.Alpha()
	}
	if cfg.usesCache() {
		return compileCached(ctx, rp.String(), cfg, func(ctx context.Context) (*Program, error) {
			return compileProgram(ctx, rp, cfg)
		})
	}
	return compileProgram(ctx, rp, cfg)
}

func compileProgram(ctx context.Context, rp *rtl.Program, cfg Config) (*Program, error) {
	p := newProgram(rp, cfg.Machine)
	p.Telemetry = cfg.Telemetry
	if cfg.useFlatPipeline() {
		if err := p.optimizeFlat(rp, cfg); err != nil {
			return nil, err
		}
	} else {
		for _, f := range rp.Fns {
			if err := p.optimizeFn(f, cfg); err != nil {
				return nil, fmt.Errorf("%s: %w", f.Name, err)
			}
		}
	}
	// Link the pipeline's per-pass spans under the request trace: children
	// of whatever span context rode in on ctx (the singleflight compute
	// span under a cache, the ingress span without one).
	if cfg.Tracer != nil && cfg.Telemetry != nil {
		dtrace.LinkRecorder(cfg.Tracer, dtrace.FromContext(ctx), cfg.Telemetry)
	}
	return p, nil
}

// usesCache reports whether this configuration may consult the compile
// cache. DumpStage and WrapPass observe or perturb individual passes, so
// their compiles must run the real pipeline every time.
func (cfg Config) usesCache() bool {
	return cfg.Cache != nil && cfg.DumpStage == nil && cfg.WrapPass == nil
}

// useFlatPipeline reports whether the cold path runs the optimizer natively
// on the flat form. DumpStage and WrapPass observe pointer-graph functions
// pass by pass, so their compiles keep the graph pipeline.
func (cfg Config) useFlatPipeline() bool {
	return cfg.Optimize && !cfg.GraphPipeline && cfg.DumpStage == nil && cfg.WrapPass == nil
}

// fingerprint renders every semantics-affecting Config field canonically;
// it is one of the three cache key components.
func (cfg Config) fingerprint() string {
	return fmt.Sprintf("opt=%t;unroll=%t;factor=%d;coalesce=%t/%t/%t/%t;sched=%t;regs=%d;strict=%t",
		cfg.Optimize, cfg.Unroll, cfg.UnrollFactor,
		cfg.Coalesce.Loads, cfg.Coalesce.Stores, cfg.Coalesce.Force,
		cfg.Coalesce.NoRuntimeChecks, cfg.Schedule, cfg.Registers, cfg.Strict)
}

// machineFingerprint renders the full machine description — capability
// flags, cache geometry, and both cost tables — so two models sharing a
// name but differing anywhere observable never share a cache key.
func machineFingerprint(m *machine.Machine) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s;word=%d;align=%t;pipe=%t;icache=%d/%d/%d;dcache=%d/%d",
		m.Name, m.WordBytes, m.MustAlign, m.Pipelined,
		m.ICacheBytes, m.BytesPerInstr, m.ICacheMissPenalty,
		m.DCacheBytes, m.DCacheMissPenalty)
	costFingerprint(&sb, &m.Sched)
	costFingerprint(&sb, &m.Exec)
	return sb.String()
}

func costFingerprint(sb *strings.Builder, c *machine.Costs) {
	fmt.Fprintf(sb, ";alu=%d,mul=%d,div=%d,x=%d,i=%d,br=%d,call=%d,xo=%d,io=%d",
		c.Alu, c.Mul, c.Div, c.Extract, c.Insert, c.Branch, c.Call,
		c.ExtractOcc, c.InsertOcc)
	for _, w := range []rtl.Width{rtl.W1, rtl.W2, rtl.W4, rtl.W8} {
		fmt.Fprintf(sb, ",l%d=%d/%d,s%d=%d/%d",
			w, c.Load[w], c.LoadOcc[w], w, c.Store[w], c.StoreOcc[w])
	}
}

// compileCached serves the compile from cfg.Cache: a hit (memory, disk, or
// a shared in-flight compile) materializes a private program from the
// cached flat image — the image itself is shared, so a hit copies nothing
// but the Unflatten slab; a miss runs cold once — concurrent identical
// compiles wait for it instead of duplicating the work — and stores the
// flat snapshot of the result. Degraded compiles are returned but never
// stored (and a caller sharing the leader's flight sees the program without
// its diagnostics).
func compileCached(ctx context.Context, keySrc string, cfg Config, cold func(context.Context) (*Program, error)) (*Program, error) {
	key := ccache.KeyOf(keySrc, cfg.fingerprint(), machineFingerprint(cfg.Machine))
	var coldProg *Program
	e, hit, err := cfg.Cache.GetOrComputeCtx(ctx, key, func(cctx context.Context) (ccache.Entry, error) {
		p, err := cold(cctx)
		if err != nil {
			return ccache.Entry{}, err
		}
		coldProg = p
		snap := ccache.Entry{
			Machine:     cfg.Machine.Name,
			Reports:     append([]core.LoopReport(nil), p.Reports...),
			Unrolled:    make(map[string]int, len(p.Unrolled)),
			Uncacheable: p.Diagnostics.Degraded(),
		}
		for k, v := range p.Unrolled {
			snap.Unrolled[k] = v
		}
		// The cache owns its entry outright: the flat image is a snapshot,
		// so no later mutation through the caller's pointer can poison it.
		// A flat-pipeline compile already holds the final image — store it
		// directly instead of re-flattening; otherwise a program the
		// flattener rejects (it should not exist past the verifier) is
		// simply not cached.
		if p.Flat != nil {
			snap.Flat = p.Flat
		} else if flat, ferr := rtl.Flatten(p.RTL); ferr == nil {
			snap.Flat = flat
			p.Flat = flat
		} else {
			snap.Uncacheable = true
		}
		return snap, nil
	})
	if err != nil {
		return nil, err
	}
	if !hit {
		return coldProg, nil
	}
	rp, err := e.Materialize()
	if err != nil {
		// A shared flight whose leader could not flatten (degenerate):
		// fall back to compiling locally.
		return cold(ctx)
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.Count("ccache.compile_hits", 1)
	}
	return &Program{
		RTL:         rp,
		Machine:     cfg.Machine,
		Flat:        e.Flat,
		Reports:     e.CloneReports(),
		Unrolled:    e.CloneUnrolled(),
		Diagnostics: &pipeline.Diagnostics{},
		Telemetry:   cfg.Telemetry,
		Cached:      true,
	}, nil
}

// FromFlat wraps an already-compiled flat program image (e.g. decoded from
// a .bin file emitted by cmd/macc -emit=bin) as a runnable Program without
// re-running the pipeline. The image is validated and materialized; the
// simulator predecodes from the flat form directly.
func FromFlat(fp *rtl.FlatProgram, m *machine.Machine) (*Program, error) {
	if m == nil {
		m = machine.Alpha()
	}
	rp, err := fp.Unflatten()
	if err != nil {
		return nil, err
	}
	p := newProgram(rp, m)
	p.Flat = fp
	return p, nil
}

func newProgram(rp *rtl.Program, m *machine.Machine) *Program {
	return &Program{RTL: rp, Machine: m, Unrolled: make(map[string]int),
		Diagnostics: &pipeline.Diagnostics{}}
}

func (p *Program) dump(cfg Config, stage string, f *rtl.Fn) {
	if cfg.DumpStage != nil {
		cfg.DumpStage(stage, f)
	}
}

// optimizeFn runs the optimization pipeline over f under the hardened pass
// manager: every stage gets panic recovery, a post-stage verification
// checkpoint, and (in non-strict mode) rollback to the last-known-good
// form with the incident recorded in p.Diagnostics.
func (p *Program) optimizeFn(f *rtl.Fn, cfg Config) error {
	p.dump(cfg, "codegen", f)
	if err := f.Verify(); err != nil {
		return err
	}
	if !cfg.Optimize {
		return nil
	}
	passes := p.passList(cfg)
	if cfg.WrapPass != nil {
		for i := range passes {
			passes[i] = cfg.WrapPass(passes[i])
		}
	}
	return pipeline.Run(f, passes, pipeline.Options{
		Strict:   cfg.Strict,
		Diags:    p.Diagnostics,
		Recorder: cfg.Telemetry,
		OnPass:   func(stage string, f *rtl.Fn) { p.dump(cfg, stage, f) },
	})
}

// passList builds the stage sequence for cfg. Side records (coalescing
// reports, unroll factors) are staged inside each pass and committed by its
// OnSuccess hook, so a rolled-back pass leaves no trace of undone work.
func (p *Program) passList(cfg Config) []pipeline.Pass {
	passes := []pipeline.Pass{
		{Name: "clean", Run: func(f *rtl.Fn) error {
			opt.Clean(f)
			opt.ThreadJumps(f)
			return nil
		}},
		// Loop-invariant code motion, innermost-first, iterated because
		// hoisting can expose more loops' invariants.
		{Name: "licm", Run: func(f *rtl.Fn) error {
			runLICM(f)
			return nil
		}},
		// Induction-variable strength reduction and test replacement:
		// gives memory references the base+displacement shape and frees
		// the counter.
		{Name: "strength-reduce", Run: func(f *rtl.Fn) error {
			runStrengthReduce(f, cfg.emitter())
			return nil
		}},
	}
	if cfg.Unroll {
		var staged map[string]int
		passes = append(passes, pipeline.Pass{
			Name: "unroll",
			Run: func(f *rtl.Fn) error {
				staged = runUnrollLoops(cfg, f)
				opt.NormalizeAddresses(f)
				opt.Clean(f)
				return nil
			},
			OnSuccess: func() {
				for name, factor := range staged {
					p.Unrolled[name] = factor
				}
			},
		})
	}
	if cfg.Coalesce.Loads || cfg.Coalesce.Stores {
		var staged []core.LoopReport
		passes = append(passes, pipeline.Pass{
			Name: "coalesce",
			Run: func(f *rtl.Fn) error {
				staged = core.CoalesceMemoryAccesses(f, cfg.Machine, cfg.Coalesce, cfg.emitter())
				opt.Clean(f)
				return nil
			},
			OnSuccess: func() { p.Reports = append(p.Reports, staged...) },
		})
	}
	if cfg.Schedule {
		passes = append(passes, pipeline.Pass{Name: "schedule", Run: func(f *rtl.Fn) error {
			sched.ScheduleFn(f, cfg.Machine)
			return nil
		}})
	}
	if cfg.Registers > 0 {
		passes = append(passes, pipeline.Pass{Name: "regalloc", Run: func(f *rtl.Fn) error {
			_, err := regalloc.Run(f, cfg.Registers)
			return err
		}})
	}
	return passes
}

// runLICM is the graph body of the "licm" pass: hoist loop invariants,
// innermost-first, iterated because hoisting can expose more loops'
// invariants. It reports whether anything was hoisted. runLICMFlat is its
// flat twin.
func runLICM(f *rtl.Fn) bool {
	hoisted := false
	for i := 0; i < 4; i++ {
		ensurePreheaders(f)
		g := cfg2(f)
		loops := g.FindLoops()
		for _, l := range loops {
			g.EnsurePreheader(l)
		}
		changed := false
		for _, l := range loops {
			changed = opt.HoistInvariants(f, g, l) || changed
		}
		if !changed {
			break
		}
		hoisted = true
		opt.Clean(f)
	}
	return hoisted
}

// runStrengthReduce is the graph body of the "strength-reduce" pass. It
// reports whether it materialized a pointer induction variable or its
// clean-up tail changed anything. runStrengthReduceFlat is its flat twin.
func runStrengthReduce(f *rtl.Fn, em telemetry.Emitter) bool {
	changed := false
	ensurePreheaders(f)
	g := cfg2(f)
	loops := g.FindLoops()
	for _, l := range loops {
		g.EnsurePreheader(l)
		du := dataflow.ComputeDefUse(f)
		info := iv.Analyze(g, l, du)
		em.Emit(info.Remark("strength-reduce", f.Name))
		if ptrs := info.StrengthReduce(f); len(ptrs) > 0 {
			emitStrengthReduced(em, f.Name, l.Header.Name, len(ptrs), info.ReplaceTest(f, ptrs))
			changed = true
		}
	}
	changed = opt.EliminateDeadIVs(f) || changed
	return opt.Clean(f) || changed
}

// emitStrengthReduced records one loop's strength reduction.
func emitStrengthReduced(em telemetry.Emitter, fn, loop string, ptrs int, replaced bool) {
	em.Count("iv.pointers_strength_reduced", int64(ptrs))
	rem := telemetry.Remark{
		Kind: telemetry.Passed, Pass: "strength-reduce",
		Fn: fn, Loop: loop, Name: "StrengthReduced",
		Reason: "iv:pointer-ivs-materialized",
		Args:   map[string]int64{"pointers": int64(ptrs)},
	}
	if replaced {
		rem.Args["test_replaced"] = 1
	}
	em.Emit(rem)
}

// runUnrollLoops is the loop-replication part of the graph "unroll" pass;
// the caller finishes with address normalization and a clean sweep.
// Returns the per-function factors to stage. runUnrollLoopsFlat is its
// flat twin.
func runUnrollLoops(cfg Config, f *rtl.Fn) map[string]int {
	em := cfg.emitter()
	staged := make(map[string]int)
	ensurePreheaders(f)
	g := cfg2(f)
	for _, l := range g.FindLoops() {
		g.EnsurePreheader(l)
		c, ok := unroll.Shape(l)
		if !ok {
			emitNotUnrolled(em, f.Name, l.Header.Name, "shape:not-canonical")
			continue
		}
		du := dataflow.ComputeDefUse(f)
		info := iv.Analyze(g, l, du)
		factor := cfg.UnrollFactor
		if factor == 0 {
			factor = unroll.ChooseFactor(cfg.Machine, c, info)
		}
		if factor < 2 {
			emitNotUnrolled(em, f.Name, l.Header.Name, "heuristic:factor<2")
			continue
		}
		if _, err := unroll.Unroll(f, c, info, factor); err == nil {
			staged[f.Name] = factor
			emitUnrolled(em, f.Name, l.Header.Name, factor)
		} else {
			emitNotUnrolled(em, f.Name, l.Header.Name, "shape:"+err.Error())
		}
	}
	return staged
}

func emitNotUnrolled(em telemetry.Emitter, fn, loop, reason string) {
	em.Emit(telemetry.Remark{
		Kind: telemetry.Missed, Pass: "unroll", Fn: fn,
		Loop: loop, Name: "NotUnrolled", Reason: reason,
	})
}

func emitUnrolled(em telemetry.Emitter, fn, loop string, factor int) {
	em.Count("unroll.loops", 1)
	em.Observe("unroll.factor", int64(factor))
	em.Emit(telemetry.Remark{
		Kind: telemetry.Passed, Pass: "unroll", Fn: fn,
		Loop: loop, Name: "Unrolled",
		Reason: "heuristic:icache-bounded",
		Args:   map[string]int64{"factor": int64(factor)},
	})
}

// preheadedFlatGraph mirrors ensurePreheaders on function fi, then returns
// a fresh graph of the result.
func preheadedFlatGraph(fp *rtl.FlatProgram, fi int) *cfg.FlatGraph {
	g := cfg.NewFlat(fp, fi)
	for _, l := range g.FindLoops() {
		g.EnsurePreheader(l)
	}
	return cfg.NewFlat(fp, fi)
}

// runLICMFlat mirrors runLICM on function fi of the flat form.
func runLICMFlat(fp *rtl.FlatProgram, fi int) bool {
	hoisted := false
	for i := 0; i < 4; i++ {
		g := preheadedFlatGraph(fp, fi)
		loops := g.FindLoops()
		for _, l := range loops {
			g.EnsurePreheader(l)
		}
		changed := false
		for _, l := range loops {
			changed = opt.FlatHoistInvariants(fp, fi, l) || changed
		}
		if !changed {
			break
		}
		hoisted = true
		opt.FlatClean(fp, fi)
	}
	return hoisted
}

// runStrengthReduceFlat mirrors runStrengthReduce on the flat form.
func runStrengthReduceFlat(fp *rtl.FlatProgram, fi int, em telemetry.Emitter) bool {
	changed := false
	g := preheadedFlatGraph(fp, fi)
	name := fp.Syms[fp.Fns[fi].Name]
	for _, l := range g.FindLoops() {
		g.EnsurePreheader(l)
		du := dataflow.ComputeFlatDefUse(&fp.Fns[fi])
		info := iv.AnalyzeFlat(g, l)
		em.Emit(info.Remark("strength-reduce", name))
		if ptrs := info.StrengthReduce(fp, fi, du); len(ptrs) > 0 {
			header := fp.Syms[fp.Fns[fi].Blocks[l.Header].Name]
			emitStrengthReduced(em, name, header, len(ptrs), info.ReplaceTest(fp, fi, ptrs))
			changed = true
		}
	}
	changed = opt.FlatEliminateDeadIVs(fp, fi) || changed
	return opt.FlatClean(fp, fi) || changed
}

// runUnrollLoopsFlat mirrors runUnrollLoops on the flat form.
func runUnrollLoopsFlat(cfg Config, fp *rtl.FlatProgram, fi int) map[string]int {
	em := cfg.emitter()
	staged := make(map[string]int)
	g := preheadedFlatGraph(fp, fi)
	f := &fp.Fns[fi]
	name := fp.Syms[f.Name]
	for _, l := range g.FindLoops() {
		g.EnsurePreheader(l)
		header := fp.Syms[f.Blocks[l.Header].Name]
		c, ok := unroll.FlatShape(f, l)
		if !ok {
			emitNotUnrolled(em, name, header, "shape:not-canonical")
			continue
		}
		info := iv.AnalyzeFlat(g, l)
		factor := cfg.UnrollFactor
		if factor == 0 {
			factor = unroll.FlatChooseFactor(cfg.Machine, f, c, info)
		}
		if factor < 2 {
			emitNotUnrolled(em, name, header, "heuristic:factor<2")
			continue
		}
		if err := unroll.FlatUnroll(fp, fi, c, info, factor); err == nil {
			staged[name] = factor
			emitUnrolled(em, name, header, factor)
		} else {
			emitNotUnrolled(em, name, header, "shape:"+err.Error())
		}
	}
	return staged
}

// optimizeFlat is the flat-native cold path: verify every function (the same
// codegen checkpoint the graph path runs), flatten the front end's output
// once, run the pass pipeline on the struct-of-arrays form function by
// function, and materialize the pointer graph once at the end. The input
// program is left untouched; callers read the result through p.RTL, and the
// final flat image rides along on p.Flat for the cache and the simulator.
func (p *Program) optimizeFlat(rp *rtl.Program, cfg Config) error {
	for _, f := range rp.Fns {
		if err := f.Verify(); err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
	}
	fp, err := rtl.Flatten(rp)
	if err != nil {
		return err
	}
	passes := p.flatPassList(cfg)
	opts := pipeline.Options{
		Strict:   cfg.Strict,
		Diags:    p.Diagnostics,
		Recorder: cfg.Telemetry,
	}
	for fi := range fp.Fns {
		if err := pipeline.RunFlat(fp, fi, passes, opts); err != nil {
			return fmt.Errorf("%s: %w", fp.Syms[fp.Fns[fi].Name], err)
		}
	}
	out, err := fp.Unflatten()
	if err != nil {
		return err
	}
	p.RTL = out
	p.Flat = fp
	return nil
}

// OptimizeFlat runs the optimization pipeline directly over an already-flat
// program image — e.g. one decoded from a .bin emitted by cmd/macc — mutating
// it in place, with no Unflatten/Materialize round trip of the whole program
// (only regalloc, when enabled, bridges per function). The returned Program
// carries the optimized image on Flat and a materialized view on RTL.
func OptimizeFlat(fp *rtl.FlatProgram, cfg Config) (*Program, error) {
	if cfg.Machine == nil {
		cfg.Machine = machine.Alpha()
	}
	p := &Program{Machine: cfg.Machine, Unrolled: make(map[string]int),
		Diagnostics: &pipeline.Diagnostics{}, Telemetry: cfg.Telemetry}
	if cfg.Optimize {
		passes := p.flatPassList(cfg)
		opts := pipeline.Options{
			Strict:   cfg.Strict,
			Diags:    p.Diagnostics,
			Recorder: cfg.Telemetry,
		}
		for fi := range fp.Fns {
			if err := fp.VerifyFn(fi); err != nil {
				return nil, fmt.Errorf("%s: %w", fp.Syms[fp.Fns[fi].Name], err)
			}
			if err := pipeline.RunFlat(fp, fi, passes, opts); err != nil {
				return nil, fmt.Errorf("%s: %w", fp.Syms[fp.Fns[fi].Name], err)
			}
		}
	}
	rp, err := fp.Unflatten()
	if err != nil {
		return nil, err
	}
	p.RTL = rp
	p.Flat = fp
	return p, nil
}

// bridgeFlat adapts a graph pass body to the flat pipeline: materialize the
// one function, run the graph body, and flatten the result back into the
// same slot. Only regalloc, which no benchmark configuration enables, still
// runs this way.
func bridgeFlat(run func(f *rtl.Fn) error) func(fp *rtl.FlatProgram, fi int) error {
	return func(fp *rtl.FlatProgram, fi int) error {
		f := fp.UnflattenFn(fi)
		if err := run(f); err != nil {
			return err
		}
		return fp.FlattenFnInto(fi, f)
	}
}

// flatPassList mirrors passList stage for stage on the flat form. Every
// stage but regalloc runs natively on the arrays, and every clean-up tail
// is FlatClean; regalloc bridges through the per-function graph round trip.
// Stage names, ordering, staging, and OnSuccess commit semantics are
// identical to the graph list, so telemetry spans, remarks, and incident
// reports read the same whichever form ran.
func (p *Program) flatPassList(cfg Config) []pipeline.FlatPass {
	passes := []pipeline.FlatPass{
		{Name: "clean", Run: func(fp *rtl.FlatProgram, fi int) error {
			opt.FlatClean(fp, fi)
			opt.FlatThreadJumps(fp, fi)
			return nil
		}},
		{Name: "licm", Run: func(fp *rtl.FlatProgram, fi int) error {
			runLICMFlat(fp, fi)
			return nil
		}},
		{Name: "strength-reduce", Run: func(fp *rtl.FlatProgram, fi int) error {
			runStrengthReduceFlat(fp, fi, cfg.emitter())
			return nil
		}},
	}
	if cfg.Unroll {
		var staged map[string]int
		passes = append(passes, pipeline.FlatPass{
			Name: "unroll",
			Run: func(fp *rtl.FlatProgram, fi int) error {
				staged = runUnrollLoopsFlat(cfg, fp, fi)
				opt.FlatNormalizeAddresses(fp, fi)
				opt.FlatClean(fp, fi)
				return nil
			},
			OnSuccess: func() {
				for name, factor := range staged {
					p.Unrolled[name] = factor
				}
			},
		})
	}
	if cfg.Coalesce.Loads || cfg.Coalesce.Stores {
		var staged []core.LoopReport
		passes = append(passes, pipeline.FlatPass{
			Name: "coalesce",
			Run: func(fp *rtl.FlatProgram, fi int) error {
				staged = core.CoalesceMemoryAccessesFlat(fp, fi, cfg.Machine, cfg.Coalesce, cfg.emitter())
				opt.FlatClean(fp, fi)
				return nil
			},
			OnSuccess: func() { p.Reports = append(p.Reports, staged...) },
		})
	}
	if cfg.Schedule {
		passes = append(passes, pipeline.FlatPass{Name: "schedule", Run: func(fp *rtl.FlatProgram, fi int) error {
			sched.ScheduleFlatFn(fp, fi, cfg.Machine)
			return nil
		}})
	}
	if cfg.Registers > 0 {
		passes = append(passes, pipeline.FlatPass{Name: "regalloc", Run: bridgeFlat(func(f *rtl.Fn) error {
			_, err := regalloc.Run(f, cfg.Registers)
			return err
		})})
	}
	return passes
}

// Passes returns the names of the pipeline stages a compile under cfg runs,
// in order (none without Optimize): the flat pass list, or the graph one
// when cfg takes the graph pipeline. Both lists name the same stages, which
// telemetry spans and remarks rely on.
func Passes(cfg Config) []string {
	if !cfg.Optimize {
		return nil
	}
	if cfg.Machine == nil {
		cfg.Machine = machine.Alpha()
	}
	p := newProgram(rtl.NewProgram(), cfg.Machine)
	var names []string
	if cfg.useFlatPipeline() {
		for _, ps := range p.flatPassList(cfg) {
			names = append(names, ps.Name)
		}
		return names
	}
	for _, ps := range p.passList(cfg) {
		names = append(names, ps.Name)
	}
	return names
}

// Bisect binary-searches the optimization pipeline for the first pass that
// breaks function name, in the style of LLVM's -opt-bisect-limit. rp must
// be the *unoptimized* RTL program (front-end output, or Optimize: false);
// each probe reruns a prefix of the pass list on a fresh clone of the
// function and applies bad — typically DifferentialPredicate, which
// compares simulator behaviour against the unoptimized build. The WrapPass
// hook is honoured, so injected faults are attributed like real pass bugs.
func Bisect(rp *rtl.Program, name string, cfg Config, bad pipeline.Predicate) (pipeline.BisectResult, error) {
	if cfg.Machine == nil {
		cfg.Machine = machine.Alpha()
	}
	orig, ok := rp.Lookup(name)
	if !ok {
		return pipeline.BisectResult{}, fmt.Errorf("no function %q", name)
	}
	scratch := newProgram(rp, cfg.Machine)
	passes := scratch.passList(cfg)
	if cfg.WrapPass != nil {
		for i := range passes {
			passes[i] = cfg.WrapPass(passes[i])
		}
	}
	return pipeline.Bisect(func() *rtl.Fn { return orig.Clone() }, passes, bad)
}

// DifferentialPredicate builds a bisection predicate that flags behavioural
// divergence: it fingerprints the unoptimized program's simulator behaviour
// on the given argument sets, then judges a candidate function by running
// it in place of the original within the same program. Verifier rejections
// and simulator traps also count as failures.
func DifferentialPredicate(rp *rtl.Program, name string, cfg Config, memBytes int, argSets [][]int64) (pipeline.Predicate, error) {
	if cfg.Machine == nil {
		cfg.Machine = machine.Alpha()
	}
	want, err := pipeline.Behavior(rp, cfg.Machine, memBytes, name, argSets)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return func(f *rtl.Fn) error {
		if err := f.Verify(); err != nil {
			return err
		}
		fns := make([]*rtl.Fn, len(rp.Fns))
		for i, fn := range rp.Fns {
			if fn.Name == name {
				fns[i] = f
			} else {
				fns[i] = fn
			}
		}
		cand := rtl.NewProgram(fns...)
		cand.Globals = rp.Globals
		got, err := pipeline.Behavior(cand, cfg.Machine, memBytes, name, argSets)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("behaviour diverges from the unoptimized build (fingerprint %s, want %s)", got, want)
		}
		return nil
	}, nil
}

// ensurePreheaders materializes preheaders for every natural loop so later
// analyses see a stable shape.
func ensurePreheaders(f *rtl.Fn) {
	g := cfg2(f)
	for _, l := range g.FindLoops() {
		g.EnsurePreheader(l)
	}
}

func cfg2(f *rtl.Fn) *cfg.Graph { return cfg.New(f) }

// NewSim builds a simulator for the compiled program with memBytes of RAM.
// Programs carrying a flat image (cache hits, FromFlat) predecode from it
// directly — no pointer-graph walk; the decode is bit-identical to the
// graph path, including instruction-cache geometry. When the program was
// compiled with a telemetry recorder, the simulator publishes its dynamic
// counters into the same metrics registry.
func (p *Program) NewSim(memBytes int) *sim.Sim {
	var s *sim.Sim
	if p.Flat != nil {
		s = sim.NewFlat(p.Flat, p.Machine, memBytes)
	} else {
		s = sim.New(p.RTL, p.Machine, memBytes)
	}
	if p.Telemetry != nil {
		s.AttachMetrics(p.Telemetry.Metrics())
	}
	return s
}

// Fn returns the named compiled function for inspection.
func (p *Program) Fn(name string) (*rtl.Fn, bool) { return p.RTL.Lookup(name) }
