// Command hotpath measures the compiler's four hot paths — the pass
// pipeline's per-pass snapshot, the bench harness's table measurement, the
// simulator core, and the warm-vs-cold compile cache — and writes the
// results as a machine-readable artifact (BENCH_hotpath.json). CI
// regenerates the artifact on every run and gates on -check against the
// committed baseline: a ratio metric that regresses by more than 25% fails
// the build.
//
//	hotpath -out BENCH_hotpath.json          regenerate the artifact
//	hotpath -out new.json -check BENCH_hotpath.json
//
// Only ratio metrics are gated (the journal-vs-clone snapshot speedup, the
// parallel-vs-serial table speedup, simulated MIPS, the warm-cache compile
// speedups, the codec decode-vs-reparse speedup, and the flat-vs-graph cold
// compile speedup); raw ns/op numbers are recorded for trend plots but never
// compared across hosts. Three metrics additionally have absolute floors: a
// warm memory-tier hit must be at least 5x faster than a cold compile,
// decoding a kernel's binary flat-IR image must be at least 5x faster than
// reparsing its printed text — the property that justifies the binary disk
// tier — and a flat-pipeline cold compile must be at least 1.5x faster than
// a graph-pipeline one (with lower allocs/op) — the property that justifies
// running the optimizer on the struct-of-arrays form — regardless of the
// baseline. Each artifact carries a provenance
// block (git commit, Go version, OS/arch, CPU count); when the baseline's
// host identity differs from the current host's, relative gates are
// skipped and only the absolute floors apply. The parallel-scaling gate requires
// at least four CPUs on both the current and the baseline host, since a
// single-core runner cannot demonstrate pool scaling; -check warns loudly
// when the committed baseline was produced on a single-CPU host, because
// that renders the scaling gate permanently vacuous. Under GOMAXPROCS < 2
// the run-table speedup is recorded as null (printed "n/a") and its gate is
// skipped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/ccache"
	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/rtl/codec"
)

// Schema versions the artifact layout. v2 added the compile-cache
// section; v3 added the provenance block and host-aware gating; v4 split
// the cache section into warm-mem and warm-disk hits and added the binary
// codec encode/decode/reparse section; v5 added the cold_flat section
// (graph-pipeline vs flat-pipeline cold compiles) and allocs/op on every
// cold-compile row.
const Schema = "macc-hotpath/v5"

// SnapshotEntry is one kernel's per-pass snapshot cost: the old
// whole-function Clone vs the journal's clean Update, over all of the
// kernel's compiled functions.
type SnapshotEntry struct {
	Kernel         string  `json:"kernel"`
	CloneNsPerOp   float64 `json:"clone_ns_per_op"`
	JournalNsPerOp float64 `json:"journal_ns_per_op"`
	Speedup        float64 `json:"speedup"`
}

// RunTableEntry is the bench harness's wall time for the full small-workload
// table, serial vs a GOMAXPROCS-wide pool. Speedup is null when GOMAXPROCS
// is below 2: a one-wide "pool" cannot scale, so the ratio would only
// measure noise.
type RunTableEntry struct {
	SerialNsPerOp   float64  `json:"serial_ns_per_op"`
	ParallelNsPerOp float64  `json:"parallel_ns_per_op"`
	Jobs            int      `json:"jobs"`
	Speedup         *float64 `json:"speedup"`
}

// speedupText renders the run-table speedup, "n/a" when it is null.
func (e RunTableEntry) speedupText() string {
	if e.Speedup == nil {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", *e.Speedup)
}

// SimEntry is the predecoded interpreter's raw rate on the dot-product
// kernel.
type SimEntry struct {
	NsPerRun      float64 `json:"ns_per_run"`
	InstrsPerRun  int64   `json:"instrs_per_run"`
	SimulatedMIPS float64 `json:"simulated_mips"`
}

// CacheEntry is one paper kernel's cold-vs-warm compile cost: a full
// front-end + pipeline compile vs a cache hit on the same source and
// configuration. The Cache section measures memory-tier hits (shared flat
// image, no decode); the WarmDisk section measures disk-tier hits (file
// read + checksum + binary decode + materialize) with the memory tier
// disabled.
type CacheEntry struct {
	Kernel          string  `json:"kernel"`
	ColdNsPerOp     float64 `json:"cold_ns_per_op"`
	ColdAllocsPerOp float64 `json:"cold_allocs_per_op"`
	WarmNsPerOp     float64 `json:"warm_ns_per_op"`
	Speedup         float64 `json:"speedup"`
}

// ColdFlatEntry is one paper kernel's cold compile through the two pass
// pipelines: the pointer-graph pipeline forced via Config.GraphPipeline vs
// the default flat-native pipeline (flatten once, run the passes on the
// struct-of-arrays form, bridge the unported stages per function). Both
// compile the same source under the same optimizing configuration; the
// speedup is the ratio the flat port is expected to defend.
type ColdFlatEntry struct {
	Kernel           string  `json:"kernel"`
	GraphNsPerOp     float64 `json:"graph_ns_per_op"`
	GraphAllocsPerOp float64 `json:"graph_allocs_per_op"`
	FlatNsPerOp      float64 `json:"flat_ns_per_op"`
	FlatAllocsPerOp  float64 `json:"flat_allocs_per_op"`
	Speedup          float64 `json:"speedup"`
}

// CodecEntry is one paper kernel's flat-IR codec cost: encoding the flat
// image, decoding it back (checksum + structural validation), and — the
// baseline the binary disk tier replaced — reparsing the same program from
// printed RTL text.
type CodecEntry struct {
	Kernel         string  `json:"kernel"`
	EncodeNsPerOp  float64 `json:"encode_ns_per_op"`
	DecodeNsPerOp  float64 `json:"decode_ns_per_op"`
	ReparseNsPerOp float64 `json:"reparse_ns_per_op"`
	Bytes          int     `json:"bytes"`
	TextBytes      int     `json:"text_bytes"`
	DecodeSpeedup  float64 `json:"decode_speedup"`
}

// Artifact is the BENCH_hotpath.json layout.
type Artifact struct {
	Schema             string           `json:"schema"`
	Provenance         bench.Provenance `json:"provenance"`
	CPUs               int              `json:"cpus"`
	Snapshot           []SnapshotEntry  `json:"snapshot"`
	SnapshotSpeedup    float64          `json:"snapshot_speedup"`
	RunTable           RunTableEntry    `json:"runtable"`
	Sim                SimEntry         `json:"sim"`
	Cache              []CacheEntry     `json:"cache"`
	CacheSpeedup       float64          `json:"cache_speedup"`
	WarmDisk           []CacheEntry     `json:"warm_disk"`
	WarmDiskSpeedup    float64          `json:"warm_disk_speedup"`
	Codec              []CodecEntry     `json:"codec"`
	CodecDecodeSpeedup float64          `json:"codec_decode_speedup"`
	ColdFlat           []ColdFlatEntry  `json:"cold_flat"`
	ColdFlatSpeedup    float64          `json:"cold_flat_speedup"`
	ColdFlatAllocRatio float64          `json:"cold_flat_alloc_ratio"`
}

// cacheSpeedupFloor is the absolute acceptance floor: a warm memory-tier
// compile must beat a cold compile by at least this factor in aggregate.
const cacheSpeedupFloor = 5.0

// codecDecodeSpeedupFloor is the absolute acceptance floor for the binary
// disk tier's reason to exist: decoding a kernel's flat-IR image must beat
// reparsing its printed RTL text by at least this factor in aggregate.
const codecDecodeSpeedupFloor = 5.0

// coldFlatSpeedupFloor is the absolute acceptance floor for the flat pass
// pipeline's reason to exist: a cold compile through the flat-native
// pipeline must beat the graph pipeline by at least this factor in
// aggregate, and allocate less per op (ColdFlatAllocRatio > 1).
const coldFlatSpeedupFloor = 1.5

// parallelSpeedupFloor is the absolute acceptance floor for the parallel
// run-table benchmark when no multi-core baseline exists: on a host with
// >= 4 CPUs, running the table in parallel must beat serial by at least
// this factor regardless of what the baseline host could measure.
const parallelSpeedupFloor = 1.15

func main() {
	out := flag.String("out", "BENCH_hotpath.json", "write the artifact to this path (\"-\" for stdout)")
	checkPath := flag.String("check", "", "compare against this baseline artifact and fail on >25% ratio regression")
	flag.Parse()

	a, err := measure()
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		fatal(err)
	}

	if *checkPath != "" {
		base, err := readArtifact(*checkPath)
		if err != nil {
			fatal(err)
		}
		if err := check(a, base); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "hotpath: no regression vs", *checkPath)
	}
}

func measure() (Artifact, error) {
	a := Artifact{Schema: Schema, Provenance: bench.NewProvenance(Schema), CPUs: runtime.NumCPU()}
	m := machine.Alpha()

	fns, err := bench.KernelFns(m)
	if err != nil {
		return a, err
	}
	byKernel := make(map[string][]*rtl.Fn)
	var order []string
	for _, kf := range fns {
		if _, seen := byKernel[kf.Kernel]; !seen {
			order = append(order, kf.Kernel)
		}
		byKernel[kf.Kernel] = append(byKernel[kf.Kernel], kf.Fn)
	}
	var cloneTotal, journalTotal float64
	for _, kernel := range order {
		kfns := byKernel[kernel]
		clone := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, f := range kfns {
					_ = f.Clone()
				}
			}
		})
		snaps := make([]*rtl.Snapshot, len(kfns))
		for i, f := range kfns {
			snaps[i] = rtl.NewSnapshot(f)
		}
		journal := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, s := range snaps {
					if s.Update() != 0 {
						b.Fatal("clean function reported dirty blocks")
					}
				}
			}
		})
		e := SnapshotEntry{
			Kernel:         kernel,
			CloneNsPerOp:   nsPerOp(clone),
			JournalNsPerOp: nsPerOp(journal),
		}
		if e.JournalNsPerOp > 0 {
			e.Speedup = e.CloneNsPerOp / e.JournalNsPerOp
		}
		cloneTotal += e.CloneNsPerOp
		journalTotal += e.JournalNsPerOp
		a.Snapshot = append(a.Snapshot, e)
	}
	if journalTotal > 0 {
		a.SnapshotSpeedup = cloneTotal / journalTotal
	}

	wl := bench.SmallWorkload()
	runTable := func(jobs int) (float64, error) {
		var rerr error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := bench.RunTableOpts(m, wl, bench.TableOptions{Jobs: jobs})
				if err != nil {
					rerr = err
					b.FailNow()
				}
				for _, row := range rows {
					if row.Err != nil {
						rerr = row.Err
						b.FailNow()
					}
				}
			}
		})
		return nsPerOp(r), rerr
	}
	serial, err := runTable(1)
	if err != nil {
		return a, err
	}
	jobs := runtime.GOMAXPROCS(0)
	parallel, err := runTable(jobs)
	if err != nil {
		return a, err
	}
	a.RunTable = RunTableEntry{SerialNsPerOp: serial, ParallelNsPerOp: parallel, Jobs: jobs}
	if jobs >= 2 && parallel > 0 {
		sp := serial / parallel
		a.RunTable.Speedup = &sp
	}
	fmt.Fprintf(os.Stderr, "hotpath: runtable speedup %s (jobs=%d)\n", a.RunTable.speedupText(), jobs)

	step, instrs, release, err := bench.SimStepper(m, wl)
	if err != nil {
		return a, err
	}
	defer release()
	var serr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := step(); err != nil {
				serr = err
				b.FailNow()
			}
		}
	})
	if serr != nil {
		return a, serr
	}
	a.Sim = SimEntry{NsPerRun: nsPerOp(r), InstrsPerRun: instrs}
	if ns := a.Sim.NsPerRun; ns > 0 {
		a.Sim.SimulatedMIPS = float64(instrs) / ns * 1e3 // instrs/ns -> MIPS
	}

	if err := measureCache(&a, m); err != nil {
		return a, err
	}
	if err := measureWarmDisk(&a, m); err != nil {
		return a, err
	}
	if err := measureCodec(&a, m); err != nil {
		return a, err
	}
	if err := measureColdFlat(&a, m); err != nil {
		return a, err
	}
	return a, nil
}

// benchCompile measures one cold compile configuration with allocation
// tracking.
func benchCompile(src string, cfg macc.Config) (testing.BenchmarkResult, error) {
	var cerr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := macc.Compile(src, cfg); err != nil {
				cerr = err
				b.FailNow()
			}
		}
	})
	return r, cerr
}

// measureColdFlat benchmarks a cold compile through the pointer-graph
// pipeline against one through the flat-native pipeline for every paper
// kernel under the default optimizing configuration.
func measureColdFlat(a *Artifact, m *machine.Machine) error {
	var graphNs, flatNs, graphAllocs, flatAllocs float64
	for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
		graphCfg := macc.DefaultConfig()
		graphCfg.Machine = m
		graphCfg.GraphPipeline = true
		graphR, err := benchCompile(bm.Src, graphCfg)
		if err != nil {
			return fmt.Errorf("%s: graph-pipeline compile: %v", bm.Name, err)
		}

		flatCfg := macc.DefaultConfig()
		flatCfg.Machine = m
		flatR, err := benchCompile(bm.Src, flatCfg)
		if err != nil {
			return fmt.Errorf("%s: flat-pipeline compile: %v", bm.Name, err)
		}

		e := ColdFlatEntry{
			Kernel:           bm.Entry,
			GraphNsPerOp:     nsPerOp(graphR),
			GraphAllocsPerOp: float64(graphR.AllocsPerOp()),
			FlatNsPerOp:      nsPerOp(flatR),
			FlatAllocsPerOp:  float64(flatR.AllocsPerOp()),
		}
		if e.FlatNsPerOp > 0 {
			e.Speedup = e.GraphNsPerOp / e.FlatNsPerOp
		}
		graphNs += e.GraphNsPerOp
		flatNs += e.FlatNsPerOp
		graphAllocs += e.GraphAllocsPerOp
		flatAllocs += e.FlatAllocsPerOp
		a.ColdFlat = append(a.ColdFlat, e)
	}
	if flatNs > 0 {
		a.ColdFlatSpeedup = graphNs / flatNs
	}
	if flatAllocs > 0 {
		a.ColdFlatAllocRatio = graphAllocs / flatAllocs
	}
	return nil
}

// measureCache benchmarks a cold compile against a warm memory-tier hit
// for every paper kernel under the default optimizing configuration.
func measureCache(a *Artifact, m *machine.Machine) error {
	var coldTotal, warmTotal float64
	for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
		cold := macc.DefaultConfig()
		cold.Machine = m
		coldR, cerr := benchCompile(bm.Src, cold)
		if cerr != nil {
			return fmt.Errorf("%s: cold compile: %v", bm.Name, cerr)
		}

		warm := cold
		warm.Cache = ccache.New(ccache.Options{})
		if _, err := macc.Compile(bm.Src, warm); err != nil {
			return fmt.Errorf("%s: cache warmup: %v", bm.Name, err)
		}
		var werr error
		warmR := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := macc.Compile(bm.Src, warm)
				if err != nil {
					werr = err
					b.FailNow()
				}
				if !p.Cached {
					werr = fmt.Errorf("warm compile missed the cache")
					b.FailNow()
				}
			}
		})
		if werr != nil {
			return fmt.Errorf("%s: warm compile: %v", bm.Name, werr)
		}

		e := CacheEntry{
			Kernel:          bm.Entry,
			ColdNsPerOp:     nsPerOp(coldR),
			ColdAllocsPerOp: float64(coldR.AllocsPerOp()),
			WarmNsPerOp:     nsPerOp(warmR),
		}
		if e.WarmNsPerOp > 0 {
			e.Speedup = e.ColdNsPerOp / e.WarmNsPerOp
		}
		coldTotal += e.ColdNsPerOp
		warmTotal += e.WarmNsPerOp
		a.Cache = append(a.Cache, e)
	}
	if warmTotal > 0 {
		a.CacheSpeedup = coldTotal / warmTotal
	}
	return nil
}

// measureWarmDisk benchmarks a cold compile against a disk-tier hit for
// every paper kernel: the memory tier is disabled (negative budget), so
// every warm compile pays the full file read, checksum verification, binary
// decode, and pointer-graph materialization.
func measureWarmDisk(a *Artifact, m *machine.Machine) error {
	var coldTotal, warmTotal float64
	for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
		dir, err := os.MkdirTemp("", "hotpath-disk-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)

		cfg := macc.DefaultConfig()
		cfg.Machine = m
		coldR, cerr := benchCompile(bm.Src, cfg)
		if cerr != nil {
			return fmt.Errorf("%s: cold compile: %v", bm.Name, cerr)
		}

		warm := cfg
		warm.Cache = ccache.New(ccache.Options{Dir: dir, MemBudget: -1})
		if _, err := macc.Compile(bm.Src, warm); err != nil {
			return fmt.Errorf("%s: disk warmup: %v", bm.Name, err)
		}
		var werr error
		warmR := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := macc.Compile(bm.Src, warm)
				if err != nil {
					werr = err
					b.FailNow()
				}
				if !p.Cached {
					werr = fmt.Errorf("warm compile missed the disk tier")
					b.FailNow()
				}
			}
		})
		if werr != nil {
			return fmt.Errorf("%s: warm disk compile: %v", bm.Name, werr)
		}

		e := CacheEntry{
			Kernel:          bm.Entry,
			ColdNsPerOp:     nsPerOp(coldR),
			ColdAllocsPerOp: float64(coldR.AllocsPerOp()),
			WarmNsPerOp:     nsPerOp(warmR),
		}
		if e.WarmNsPerOp > 0 {
			e.Speedup = e.ColdNsPerOp / e.WarmNsPerOp
		}
		coldTotal += e.ColdNsPerOp
		warmTotal += e.WarmNsPerOp
		a.WarmDisk = append(a.WarmDisk, e)
	}
	if warmTotal > 0 {
		a.WarmDiskSpeedup = coldTotal / warmTotal
	}
	return nil
}

// measureCodec benchmarks the flat-IR codec on every paper kernel's
// optimized program: encode, decode (checksum + structural validation), and
// the text-reparse baseline the binary disk tier replaced.
func measureCodec(a *Artifact, m *machine.Machine) error {
	var decodeTotal, reparseTotal float64
	for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
		cfg := macc.DefaultConfig()
		cfg.Machine = m
		p, err := macc.Compile(bm.Src, cfg)
		if err != nil {
			return fmt.Errorf("%s: compile: %v", bm.Name, err)
		}
		fp := p.Flat
		if fp == nil {
			if fp, err = rtl.Flatten(p.RTL); err != nil {
				return fmt.Errorf("%s: flatten: %v", bm.Name, err)
			}
		}
		enc := codec.EncodeProgram(fp)
		text := p.RTL.String()

		encR := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				codec.EncodeProgram(fp)
			}
		})
		var derr error
		decR := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := codec.DecodeProgram(enc); err != nil {
					derr = err
					b.FailNow()
				}
			}
		})
		if derr != nil {
			return fmt.Errorf("%s: decode: %v", bm.Name, derr)
		}
		var perr error
		parR := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rtl.ParseProgram(text); err != nil {
					perr = err
					b.FailNow()
				}
			}
		})
		if perr != nil {
			return fmt.Errorf("%s: reparse: %v", bm.Name, perr)
		}

		e := CodecEntry{
			Kernel:         bm.Entry,
			EncodeNsPerOp:  nsPerOp(encR),
			DecodeNsPerOp:  nsPerOp(decR),
			ReparseNsPerOp: nsPerOp(parR),
			Bytes:          len(enc),
			TextBytes:      len(text),
		}
		if e.DecodeNsPerOp > 0 {
			e.DecodeSpeedup = e.ReparseNsPerOp / e.DecodeNsPerOp
		}
		decodeTotal += e.DecodeNsPerOp
		reparseTotal += e.ReparseNsPerOp
		a.Codec = append(a.Codec, e)
	}
	if decodeTotal > 0 {
		a.CodecDecodeSpeedup = reparseTotal / decodeTotal
	}
	return nil
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N <= 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func readArtifact(path string) (Artifact, error) {
	var a Artifact
	data, err := os.ReadFile(path)
	if err != nil {
		return a, err
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return a, fmt.Errorf("%s: %v", path, err)
	}
	if a.Schema != Schema {
		return a, fmt.Errorf("%s: schema %q, want %q", path, a.Schema, Schema)
	}
	return a, nil
}

// check fails when a gated ratio metric regressed by more than 25% against
// the baseline. Relative comparisons are only trusted when both artifacts
// carry the same host identity (the provenance block): timing ratios from
// a different machine, Go version, or CPU count are not a regression
// signal, so a host mismatch downgrades the check to absolute floors only.
func check(cur, base Artifact) error {
	sameHost := cur.Provenance.SameHost(base.Provenance)
	if !sameHost {
		fmt.Fprintf(os.Stderr,
			"hotpath: baseline host differs (%s vs %s): relative gates skipped, absolute floors still apply\n",
			base.Provenance.Host(), cur.Provenance.Host())
	}
	var failures []string
	gate := func(name string, curV, baseV float64) {
		if !sameHost {
			return
		}
		if baseV > 0 && curV < baseV*0.75 {
			failures = append(failures,
				fmt.Sprintf("%s regressed >25%%: %.2f vs baseline %.2f", name, curV, baseV))
		}
	}
	gate("snapshot journal-vs-clone speedup", cur.SnapshotSpeedup, base.SnapshotSpeedup)
	gate("simulated MIPS", cur.Sim.SimulatedMIPS, base.Sim.SimulatedMIPS)
	gate("warm-cache compile speedup", cur.CacheSpeedup, base.CacheSpeedup)
	gate("warm-disk compile speedup", cur.WarmDiskSpeedup, base.WarmDiskSpeedup)
	gate("codec decode-vs-reparse speedup", cur.CodecDecodeSpeedup, base.CodecDecodeSpeedup)
	gate("cold-compile flat-vs-graph speedup", cur.ColdFlatSpeedup, base.ColdFlatSpeedup)
	if cur.ColdFlatSpeedup < coldFlatSpeedupFloor {
		failures = append(failures, fmt.Sprintf(
			"cold-compile flat-vs-graph speedup %.2fx below the %.1fx floor",
			cur.ColdFlatSpeedup, coldFlatSpeedupFloor))
	}
	if cur.ColdFlatAllocRatio <= 1.0 {
		failures = append(failures, fmt.Sprintf(
			"flat pipeline allocates more than the graph pipeline (graph/flat allocs ratio %.2f, need > 1)",
			cur.ColdFlatAllocRatio))
	}
	if cur.CacheSpeedup < cacheSpeedupFloor {
		failures = append(failures, fmt.Sprintf(
			"warm-cache compile speedup %.2fx below the %.0fx floor", cur.CacheSpeedup, cacheSpeedupFloor))
	}
	if cur.CodecDecodeSpeedup < codecDecodeSpeedupFloor {
		failures = append(failures, fmt.Sprintf(
			"codec decode-vs-reparse speedup %.2fx below the %.0fx floor",
			cur.CodecDecodeSpeedup, codecDecodeSpeedupFloor))
	}
	// The parallel-scaling gate adapts to where the artifacts were
	// produced. A relative comparison only means something when both hosts
	// could actually scale; with a single-CPU or foreign-host baseline the
	// current run is instead held to an absolute floor, so the gate stays
	// meaningful without demanding the baseline be regenerated.
	switch {
	case cur.RunTable.Speedup == nil:
		fmt.Fprintf(os.Stderr,
			"hotpath: parallel-scaling gate skipped: runtable speedup n/a (GOMAXPROCS=%d)\n",
			cur.RunTable.Jobs)
	case sameHost && cur.CPUs >= 4 && base.CPUs >= 4 && base.RunTable.Speedup != nil:
		gate("runtable parallel speedup", *cur.RunTable.Speedup, *base.RunTable.Speedup)
	case cur.CPUs >= 4:
		if *cur.RunTable.Speedup < parallelSpeedupFloor {
			failures = append(failures, fmt.Sprintf(
				"runtable parallel speedup %.2fx below the %.2fx absolute floor (%d CPUs, baseline measured on %d)",
				*cur.RunTable.Speedup, parallelSpeedupFloor, cur.CPUs, base.CPUs))
		}
	default:
		fmt.Fprintf(os.Stderr,
			"hotpath: parallel-scaling gate skipped: current host has %d CPU(s), need >= 4\n",
			cur.CPUs)
	}
	if len(failures) > 0 {
		msg := "regression vs baseline:"
		for _, f := range failures {
			msg += "\n  " + f
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hotpath:", err)
	os.Exit(1)
}
