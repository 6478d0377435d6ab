package main

import (
	"fmt"
	"runtime"
	"time"

	"macc"
	"macc/internal/bench"
	"macc/internal/machine"
	"macc/internal/sim"
)

// kernelMemBytes is the simulated memory the paper kernels run in; the
// harness's Run functions allocate the same.
const kernelMemBytes = 1 << 22

// kernelSetup is paper-kernels' input: the Table I kernels plus the
// Figure 1 dot product at the paper's 500x500 workload, with the seed
// choosing the frame contents.
type kernelSetup struct {
	benches  []bench.Benchmark
	wl       bench.Workload
	machines []*machine.Machine
}

// setupKernels builds the kernel set and runs each kernel once, verified,
// on the Alpha baseline, so the simulator's memory arena and the heap are
// warm before timing.
func setupKernels(seed int64) (*kernelSetup, error) {
	ks := &kernelSetup{
		benches:  append(bench.Benchmarks(), bench.DotProduct()),
		wl:       bench.DefaultWorkload(),
		machines: machine.All(),
	}
	ks.wl.Seed = seed
	for _, b := range ks.benches {
		p, err := macc.Compile(b.Src, macc.BaselineConfig(machine.Alpha()))
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up compile: %w", b.Name, err)
		}
		if _, err := b.Run(p, ks.wl); err != nil {
			return nil, fmt.Errorf("%s: warm-up run: %w", b.Name, err)
		}
	}
	return ks, nil
}

// measure compiles, simulates and verifies every (machine, kernel, paper
// configuration) cell in whole sweeps until seconds have passed (at least
// one), each from a collected heap. Each run is checked by the harness
// against the Go reference in internal/bench/ref.go. With a ledger the
// compiles are traced and decomposed instead, for exactly one sweep.
func (ks *kernelSetup) measure(seconds float64, l *ledger, res *result) compileStats {
	const configs = 4 // bench.Configs columns: native, vpo, loads, loads+stores
	st := newCompileStats(len(ks.machines) * len(ks.benches) * configs)
	first := make([]int64, len(st.unitLat)) // cycles of the first sweep, by unit
	start := time.Now()
	for st.sweeps == 0 || (l == nil && time.Since(start).Seconds() < seconds) {
		runtime.GC()
		for mi, m := range ks.machines {
			for bi, b := range ks.benches {
				var cycles [configs]int64
				for ci, cfg := range bench.Configs(m) {
					u := (mi*len(ks.benches)+bi)*configs + ci
					cfg.Unit = b.Name
					res.attempted++
					var p *macc.Program
					var err error
					a0 := heapAllocs()
					t0 := time.Now()
					if l == nil {
						p, err = macc.Compile(b.Src, cfg)
						st.compiled(u, time.Since(t0), heapAllocs()-a0)
					} else {
						p, err = l.compile(b.Src, cfg)
					}
					if err != nil {
						fail(res, "%s/%s/%d: compile: %v", b.Name, m.Name, ci, err)
						continue
					}
					if p.Diagnostics.Degraded() {
						fail(res, "%s/%s/%d: compile degraded: %v", b.Name, m.Name, ci, p.Diagnostics)
						continue
					}
					var decode time.Duration
					if l != nil {
						d0 := time.Now()
						sim.NewFlat(p.Flat, p.Machine, kernelMemBytes).Release()
						decode = time.Since(d0)
					}
					r0 := time.Now()
					r, err := b.Run(p, ks.wl)
					run := time.Since(r0)
					if err != nil {
						fail(res, "%s/%s/%d: %v", b.Name, m.Name, ci, err)
						continue
					}
					if l != nil {
						l.addSim(decode, run, r.Instrs)
						if ci == 1 || ci == 3 {
							l.addMemRefs(m.Name, ci/3, r.MemRefs())
						}
					} else {
						st.unitOp[u] = append(st.unitOp[u], time.Since(t0))
					}
					cycles[ci] = r.Cycles
					if st.sweeps == 0 {
						first[u] = r.Cycles
						st.size += staticInstrs(p.RTL)
					} else if first[u] != r.Cycles {
						fail(res, "%s/%s/%d: %d cycles, %d in the first sweep", b.Name, m.Name, ci, r.Cycles, first[u])
					}
				}
				if st.sweeps == 0 && cycles[1] > 0 && cycles[3] > 0 {
					st.speedup[m.Name] = append(st.speedup[m.Name], float64(cycles[1])/float64(cycles[3]))
				}
			}
		}
		st.sweeps++
	}
	st.wall = time.Since(start)
	return st
}

func runPaperKernels(o opts) (*result, error) {
	ks, setupS, err := medianSetup(setupRepeats, func() (*kernelSetup, error) { return setupKernels(o.seed) }, nil)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.logf("paper-kernels: %d kernels x 4 paper configurations x %d machines at %dx%d, seed %d",
		len(ks.benches), len(ks.machines), ks.wl.Width, ks.wl.Height, o.seed)
	if !o.trace {
		st := ks.measure(o.seconds, nil, res)
		setCompileE2E(res, st, setupS, "cells (compile + simulate + verify)")
		return res, nil
	}
	untraced := ks.measure(o.seconds/2, nil, res)
	l := newLedger()
	ks.measure(0, l, res)
	l.report(res)
	res.set("trace.overhead_frac", l.overhead(untraced))
	return res, nil
}
