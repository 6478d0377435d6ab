// Package telemetry is the compiler's observability layer: structured
// optimization remarks (the LLVM -Rpass idiom), per-pass spans exportable as
// Chrome trace_event JSON, and a dependency-free metrics registry of
// counters, gauges, and histograms shared by the static pipeline and the
// dynamic simulator.
//
// The paper justifies every coalescing decision with evidence — hazard
// verdicts, static schedule cycle counts, measured memory-reference
// reductions. This package makes our reproduction do the same: every
// accept/reject is an explainable, machine-readable event rather than a
// silent branch.
//
// The Recorder cooperates with the hardened pass manager's rollback
// semantics: remarks and metric increments emitted while a pass is running
// are staged, and committed only when the pass survives its verification
// checkpoint. A rolled-back pass therefore retracts its remarks — the span
// remains, marked RolledBack, as the durable record of the incident.
package telemetry

import (
	"io"
	"runtime/metrics"
	"sync"
	"time"
)

// Emitter is the sink passes emit remarks and metric deltas into. A nil
// Emitter is never passed around; use Nop for "observability off".
type Emitter interface {
	// Emit records one optimization remark.
	Emit(r Remark)
	// Count adds n to the named counter.
	Count(name string, n int64)
	// Observe records one histogram sample.
	Observe(name string, v int64)
}

// Nop is an Emitter that discards everything.
type Nop struct{}

func (Nop) Emit(Remark)           {}
func (Nop) Count(string, int64)   {}
func (Nop) Observe(string, int64) {}

// OrNop returns em, or a Nop when em is nil, so passes can emit
// unconditionally.
func OrNop(em Emitter) Emitter {
	if em == nil {
		return Nop{}
	}
	return em
}

// WithUnit wraps em so every remark that does not already carry a unit is
// stamped with unit (the kernel/source name being compiled). Counters and
// histogram samples pass through untouched. A nil em or empty unit returns
// em unchanged (modulo the OrNop guarantee).
func WithUnit(em Emitter, unit string) Emitter {
	em = OrNop(em)
	if unit == "" {
		return em
	}
	return unitEmitter{em: em, unit: unit}
}

type unitEmitter struct {
	em   Emitter
	unit string
}

func (u unitEmitter) Emit(r Remark) {
	if r.Unit == "" {
		r.Unit = u.unit
	}
	u.em.Emit(r)
}
func (u unitEmitter) Count(name string, n int64)   { u.em.Count(name, n) }
func (u unitEmitter) Observe(name string, v int64) { u.em.Observe(name, v) }

// stage buffers one active pass's uncommitted output.
type stage struct {
	span     Span
	began    time.Time
	allocAt  uint64
	remarks  []Remark
	counts   map[string]int64
	observes map[string][]int64
}

// allocBytes reads the runtime's cumulative heap allocation total. Unlike
// runtime.ReadMemStats this does not stop the world, so sampling it on
// every pass boundary is essentially free. The counter is process-wide:
// per-pass deltas are exact for a serial compile and an upper bound when
// other goroutines allocate concurrently.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// Recorder accumulates one compilation-plus-run's remarks, spans, and
// metrics. It is safe for concurrent use; pass staging (BeginPass/EndPass)
// applies to the goroutine-serial compile pipeline.
type Recorder struct {
	mu      sync.Mutex
	start   time.Time
	remarks []Remark
	spans   []Span
	reg     *Registry
	staged  *stage
}

// NewRecorder returns an empty Recorder with a fresh metrics Registry.
func NewRecorder() *Recorder {
	return &Recorder{start: time.Now(), reg: NewRegistry()}
}

// Metrics returns the recorder's registry (shared with the simulator via
// sim.AttachMetrics, so static and dynamic counters live side by side).
func (r *Recorder) Metrics() *Registry { return r.reg }

// StartTime returns the recorder's epoch: span Start offsets are relative
// to it. Consumers that merge spans from several recorders (the parallel
// bench harness, the distributed-trace linker) use it to rebase spans onto
// a shared absolute timeline.
func (r *Recorder) StartTime() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.start
}

// Emit records a remark, staging it when a pass is active.
func (r *Recorder) Emit(rem Remark) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.staged != nil {
		r.staged.remarks = append(r.staged.remarks, rem)
		return
	}
	r.remarks = append(r.remarks, rem)
}

// Count adds n to the named counter, staging the delta when a pass is
// active.
func (r *Recorder) Count(name string, n int64) {
	r.mu.Lock()
	if r.staged != nil {
		r.staged.counts[name] += n
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.reg.Counter(name).Add(n)
}

// Observe records a histogram sample, staged when a pass is active.
func (r *Recorder) Observe(name string, v int64) {
	r.mu.Lock()
	if r.staged != nil {
		r.staged.observes[name] = append(r.staged.observes[name], v)
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.reg.Histogram(name).Observe(v)
}

// BeginPass opens a span for one pass run over one function and starts
// staging remarks and metric deltas. instrs and blocks are the function's
// pre-pass IR size.
func (r *Recorder) BeginPass(pass, fn string, instrs, blocks int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.staged != nil {
		// Defensive: a dangling stage commits rather than silently vanishing.
		r.commitLocked(r.staged, time.Now())
	}
	now := time.Now()
	r.staged = &stage{
		span: Span{
			Pass: pass, Fn: fn,
			Start:        now.Sub(r.start),
			InstrsBefore: instrs, BlocksBefore: blocks,
		},
		began:    now,
		allocAt:  allocBytes(),
		counts:   make(map[string]int64),
		observes: make(map[string][]int64),
	}
}

// EndPass closes the active span. When rolledBack is false the staged
// remarks and metric deltas commit; when true they are retracted and only
// the span survives, carrying the failure message (the rollback linkage
// into pipeline.Diagnostics). instrs and blocks are the post-pass (or
// post-restore) IR size.
func (r *Recorder) EndPass(instrs, blocks int, rolledBack bool, errMsg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.staged
	if st == nil {
		return
	}
	r.staged = nil
	now := time.Now()
	st.span.Dur = now.Sub(st.began)
	st.span.InstrsAfter = instrs
	st.span.BlocksAfter = blocks
	st.span.RolledBack = rolledBack
	st.span.Err = errMsg
	if rolledBack {
		st.span.Remarks = 0
		r.spans = append(r.spans, st.span)
		// The pass's remarks retract but its cost was real: the self-time
		// and allocation profile still commits.
		r.selfProfileLocked(st)
		r.reg.Counter("pipeline.pass_rollbacks").Add(1)
		r.reg.Counter("pipeline.pass_runs").Add(1)
		return
	}
	r.commitLocked(st, now)
}

// selfProfileLocked records one finished pass's self time and heap
// allocation delta as registry counters (pass.<name>.self_ns,
// pass.<name>.alloc_bytes) plus an overall histogram, so the continuous
// profiler (/metrics and the /metrics/history ring) shows where compile
// time and memory go per pass, not just per request. Allocation deltas are
// process-wide (see allocBytes): exact for serial compiles, an upper bound
// under concurrency.
func (r *Recorder) selfProfileLocked(st *stage) {
	r.reg.Counter("pass." + st.span.Pass + ".self_ns").Add(int64(st.span.Dur))
	if d := int64(allocBytes() - st.allocAt); d > 0 {
		r.reg.Counter("pass." + st.span.Pass + ".alloc_bytes").Add(d)
	}
	r.reg.Histogram("pipeline.pass_self_ns").Observe(int64(st.span.Dur))
}

// commitLocked flushes one stage's remarks, counters, and samples. r.mu is
// held; registry primitives take their own locks, which is safe because the
// registry never calls back into the recorder.
func (r *Recorder) commitLocked(st *stage, now time.Time) {
	if st.span.Dur == 0 {
		st.span.Dur = now.Sub(st.began)
	}
	st.span.Remarks = len(st.remarks)
	r.remarks = append(r.remarks, st.remarks...)
	r.spans = append(r.spans, st.span)
	r.selfProfileLocked(st)
	for name, n := range st.counts {
		r.reg.Counter(name).Add(n)
	}
	for name, vs := range st.observes {
		h := r.reg.Histogram(name)
		for _, v := range vs {
			h.Observe(v)
		}
	}
	r.reg.Counter("pipeline.pass_runs").Add(1)
}

// Remarks returns a copy of the committed remarks in emission order.
func (r *Recorder) Remarks() []Remark {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Remark, len(r.remarks))
	copy(out, r.remarks)
	return out
}

// Spans returns a copy of the recorded spans in completion order.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// WriteMetrics renders the registry as JSON.
func (r *Recorder) WriteMetrics(w io.Writer) error { return r.reg.WriteJSON(w) }
