// Command perfbench is the repository benchmark. It measures the compiler
// and the compile farm end to end and layer by layer, from one binary at
// one commit:
//
//	perfbench --workload corpus-cold|paper-kernels|farm-zipf \
//	          --seed N --seconds S --trace 0|1 [--maccd path] [--work dir]
//
// Every workload derives its inputs from --seed, checks every output it
// measures, and prints its metrics by name with their units, followed by
// one JSON line. With --trace 0 that line carries the end-to-end metrics,
// measured with tracing off; with --trace 1 it carries the per-layer
// ledger, filled by a separate traced pass over the same workload.
// run.sh builds the binary and the maccd replicas from source and runs it;
// LEDGER.md maps each per-layer metric to the end-to-end metric it should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"

	"macc/internal/bench"
)

// Schema versions the report printed by this command.
const Schema = "perfbench/v1"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the compiler or the farm sees. Every workload
// reports every one of them; LEDGER.md says what each means per workload.
// Tail latencies are printed but not listed: on the farm they move too much
// from run to run on a shared host to be gated (see LEDGER.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms_p50", "ms"},
	{"throughput_per_s", "1/s"},
	{"allocs_per_op", "count"},
	{"code_size_instrs", "count"},
	{"cycles_speedup.alpha", "x"},
	{"cycles_speedup.m88100", "x"},
	{"cycles_speedup.m68030", "x"},
}

// passNames are the flat pipeline's stages in order (regalloc runs only
// with a register budget, which no workload sets).
var passNames = []string{"clean", "licm", "strength-reduce", "unroll", "coalesce", "schedule"}

// machineNames are the paper's three targets.
var machineNames = []string{"alpha", "m88100", "m68030"}

// perLayer is the traced ledger, by module. A workload that does not
// exercise a layer reports it as 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"minic.lex_us", "us"}, {"minic.parse_us", "us"}, {"minic.check_us", "us"},
		{"minic.lower_us", "us"}, {"minic.instrs", "count"},
		{"rtl.flatten_us", "us"}, {"rtl.unflatten_us", "us"}, {"rtl.print_us", "us"},
	}
	for _, p := range passNames {
		defs = append(defs, metricDef{"pass." + p + ".ms", "ms"}, metricDef{"pass." + p + ".alloc_mb", "MB"})
	}
	defs = append(defs,
		metricDef{"pipeline.rollbacks", "count"},
		metricDef{"coalesce.loops_examined", "count"}, metricDef{"coalesce.loops_coalesced", "count"},
		metricDef{"coalesce.passed_frac", "frac"}, metricDef{"coalesce.wide_loads", "count"},
		metricDef{"coalesce.wide_stores", "count"}, metricDef{"coalesce.narrow_refs_eliminated", "count"},
		metricDef{"coalesce.check_instrs", "count"},
		metricDef{"codec.encode_us", "us"}, metricDef{"codec.decode_us", "us"}, metricDef{"codec.bytes", "bytes"},
		metricDef{"ccache.mem_hits", "count"}, metricDef{"ccache.disk_hits", "count"},
		metricDef{"ccache.peer_hits", "count"}, metricDef{"ccache.misses", "count"},
		metricDef{"ccache.hit_ratio", "frac"}, metricDef{"ccache.evictions", "count"},
		metricDef{"ccache.dedup_waits", "count"},
		metricDef{"sim.decode_us", "us"}, metricDef{"sim.run_ms", "ms"}, metricDef{"sim.instrs", "count"},
		metricDef{"sim.mips", "Minstr/s"},
	)
	for _, m := range machineNames {
		defs = append(defs, metricDef{"sim.mem_refs_ratio." + m, "frac"})
	}
	defs = append(defs,
		metricDef{"ingress.self_ms_p50", "ms"}, metricDef{"ingress.self_ms_p99", "ms"},
		metricDef{"cache.ms_p50", "ms"}, metricDef{"compute.ms_p50", "ms"}, metricDef{"compute.ms_p99", "ms"},
		metricDef{"maccd.shed", "count"}, metricDef{"maccd.http_5xx", "count"},
		metricDef{"farm.retries", "count"}, metricDef{"farm.hedges", "count"}, metricDef{"farm.breaker_trips", "count"},
		metricDef{"gen.lag_ms_p99", "ms"}, metricDef{"gen.backlog_max", "count"},
		metricDef{"trace.overhead_frac", "frac"}, metricDef{"trace.coverage_frac", "frac"},
		metricDef{"failed_frac", "frac"},
	)
	return defs
}()

// opts are one run's parameters.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	maccd   string // maccd binary (farm-zipf)
	work    string // scratch directory root for replica caches and logs
}

// result is one run's outcome. Check failures are counted, never dropped:
// a wrong output is a failed operation.
type result struct {
	attempted, failed int64
	values            map[string]float64
	lines             []string // human-readable report, printed before the JSON line
}

func newResult() *result { return &result{values: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts) (*result, error){
	"corpus-cold":   runCorpusCold,
	"paper-kernels": runPaperKernels,
	"farm-zipf":     runFarmZipf,
}

func main() {
	workload := flag.String("workload", "", "corpus-cold, paper-kernels or farm-zipf")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer ledger from a traced run")
	maccd := flag.String("maccd", "", "maccd binary for farm-zipf")
	work := flag.String("work", ".bench_build", "directory for replica caches and logs")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, maccd: *maccd, work: *work}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, *workload, o, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report prints the provenance stamp, the human-readable lines, every
// metric of the run's kind by name with its unit, and the final JSON line.
func report(w io.Writer, workload string, o opts, res *result) error {
	prov := bench.NewProvenance(Schema)
	fmt.Fprintf(w, "provenance: commit=%s go=%s %s/%s nproc=%d gomaxprocs=%d seed=%d workload=%s trace=%t\n",
		prov.GitCommit, prov.GoVersion, prov.GOOS, prov.GOARCH, prov.CPUs, runtime.GOMAXPROCS(0),
		o.seed, workload, o.trace)
	for _, l := range res.lines {
		fmt.Fprintln(w, l)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if res.attempted < 1 {
		return fmt.Errorf("%s: no operation attempted", workload)
	}
	res.set("failed_frac", float64(res.failed)/float64(res.attempted))
	fmt.Fprintf(w, "failed_frac = %.6g (%d failed of %d attempted)\n", res.values["failed_frac"], res.failed, res.attempted)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v := res.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is not finite", workload, d.name)
		}
		out[d.name] = value{v, d.unit}
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, out[n].Value, out[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
