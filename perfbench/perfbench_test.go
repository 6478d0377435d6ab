package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"macc"
	"macc/internal/bench"
	"macc/internal/sim"
)

// Run from this directory: go test ./... (add -short to skip the runs).

var (
	maccdOnce sync.Once
	maccdBin  string
	maccdErr  error
)

// buildMaccd builds the replica binary once per test process.
func buildMaccd(t *testing.T) string {
	t.Helper()
	maccdOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-maccd-")
		if err != nil {
			maccdErr = err
			return
		}
		maccdBin = filepath.Join(dir, "maccd")
		out, err := exec.Command("go", "build", "-o", maccdBin, "macc/cmd/maccd").CombinedOutput()
		if err != nil {
			maccdErr = fmt.Errorf("build maccd: %v\n%s", err, out)
		}
	})
	if maccdErr != nil {
		t.Fatal(maccdErr)
	}
	return maccdBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if maccdBin != "" {
		os.RemoveAll(filepath.Dir(maccdBin))
	}
	os.Exit(code)
}

func TestSampleStatistics(t *testing.T) {
	mk := func(n int) samples {
		s := make(samples, n)
		for i := range s {
			s[i] = time.Duration(n - i) // descending: statistics must sort
		}
		return s
	}
	cases := []struct {
		n      int
		median time.Duration
		tail   time.Duration
		q      float64
		why    string
	}{
		{2000, 1000, 1980, 0.99, "p99 with 20 samples beyond"},
		{1000, 500, 990, 0.99, "p99 with exactly 10 samples beyond"},
		{100, 50, 90, 0.90, "p90: the highest with 10 beyond"},
		{11, 6, 1, 1.0 / 11, "only one sample has 10 beyond it"},
		{5, 3, 5, 1, "too few: the maximum"},
	}
	for _, c := range cases {
		s := mk(c.n)
		if got := s.median(); got != c.median {
			t.Errorf("n=%d: median %d, want %d", c.n, got, c.median)
		}
		got, q := s.tail()
		if got != c.tail || math.Abs(q-c.q) > 1e-9 {
			t.Errorf("n=%d (%s): tail %d at q=%g, want %d at q=%g", c.n, c.why, got, q, c.tail, c.q)
		}
	}
	if got := (samples{1, 2, 3, 4}).median(); got != 2 {
		t.Errorf("even median %d, want 2 (mean of 2 and 3, truncated)", got)
	}
}

// reportLine is the final JSON line of a run.
type reportLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runReport(t *testing.T, name string, o opts) reportLine {
	t.Helper()
	res, err := workloads[name](o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := report(&buf, name, o, res); err != nil {
		t.Fatalf("%s: report: %v\n%s", name, err, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rl reportLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v\n%s", name, err, buf.String())
	}
	if t.Failed() || !rl.Correct {
		t.Logf("%s", buf.String())
	}
	return rl
}

// A short run of every workload, untraced and traced, emits every named
// metric with its unit, every value finite, and no failed operation.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	maccd := buildMaccd(t)
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, trace), func(t *testing.T) {
				o := opts{seed: 7, seconds: 0.5, trace: trace, maccd: maccd, work: t.TempDir()}
				rl := runReport(t, name, o)
				if !rl.Correct || rl.Failed != 0 || rl.Attempted < 1 {
					t.Errorf("correct=%t failed=%d attempted=%d", rl.Correct, rl.Failed, rl.Attempted)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(rl.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(rl.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rl.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s: unit %q, want %q", d.name, m.Unit, d.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %g", d.name, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %g, want > 0", d.name, m.Value)
					}
				}
				if trace && rl.Metrics["trace.coverage_frac"].Value < 0.9 {
					t.Errorf("traced layers cover %g of the traced compile time", rl.Metrics["trace.coverage_frac"].Value)
				}
			})
		}
	}
}

// A deliberately wrong reference makes every check that uses it fail, and
// the failures reach failed_frac.
func TestWrongReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	failedFrac := func(t *testing.T, name string, res *result) {
		t.Helper()
		var buf bytes.Buffer
		if err := report(&buf, name, opts{}, res); err != nil {
			t.Fatal(err)
		}
		if res.values["failed_frac"] <= 0 || !strings.Contains(buf.String(), `"correct":false`) {
			t.Errorf("failed_frac = %g with a wrong reference\n%s", res.values["failed_frac"], buf.String())
		}
	}

	t.Run("corpus-cold", func(t *testing.T) {
		cs, err := setupCorpus(7)
		if err != nil {
			t.Fatal(err)
		}
		cs.refs[0][0] = "0000000000000000"
		res := newResult()
		cs.measure(0, nil, res)
		// Program 0 on the first machine, under each of the three configurations.
		if res.failed != 3 {
			t.Errorf("%d failures, want 3", res.failed)
		}
		failedFrac(t, "corpus-cold", res)
	})

	t.Run("paper-kernels", func(t *testing.T) {
		ks, err := setupKernels(7)
		if err != nil {
			t.Fatal(err)
		}
		// The dot product of two zeroed vectors is 0; this reference says 1.
		b := bench.DotProduct()
		b.Run = func(p *macc.Program, _ bench.Workload) (sim.Result, error) {
			s := p.NewSim(1 << 16)
			defer s.Release()
			r, err := s.Run(b.Entry, 4096, 8192, 64)
			if err == nil && r.Ret != 1 {
				err = fmt.Errorf("dotproduct: got %d, want 1", r.Ret)
			}
			return r, err
		}
		ks.benches = []bench.Benchmark{b}
		res := newResult()
		ks.measure(0, nil, res)
		if want := int64(4 * len(ks.machines)); res.failed != want {
			t.Errorf("%d failures, want %d", res.failed, want)
		}
		failedFrac(t, "paper-kernels", res)
	})

	t.Run("farm-zipf", func(t *testing.T) {
		o := opts{seed: 7, seconds: 1, maccd: buildMaccd(t), work: t.TempDir()}
		env, err := setupFarm(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer env.close()
		// The most popular key's reference answer is wrong on both
		// endpoints.
		k := env.keys[0]
		ref := env.refs[k]
		ref.rtl[0] ^= 1
		ref.cycles++
		env.refs[k] = ref
		ps := env.runPhase(env.client, lowRPS, lowWindow, newGen(env, o.seed).plan(lowRPS, time.Second), nil)
		if ps.outcomes[wrongAnswer] == 0 {
			t.Fatalf("no wrong answer counted: %v", ps.outcomes)
		}
		res := newResult()
		countPhase(res, ps)
		failedFrac(t, "farm-zipf", res)
	})
}

// BENCHMARK.json names exactly the workloads and metrics this command
// reports, with the same units.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range bj.Workloads {
		got = append(got, w.Name)
	}
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, command has %v", got, want)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics listed, command reports %d", kind, len(listed), len(defs))
		}
		for i := range listed {
			if i < len(defs) && (listed[i].Name != defs[i].name || listed[i].Unit != defs[i].unit) {
				t.Errorf("%s[%d]: %s (%s), command reports %s (%s)", kind, i, listed[i].Name, listed[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
