package macc_test

// Golden simulator oracle: every statistic the simulator reports — return
// value, cycles, instructions, per-width loads and stores, I- and D-cache
// misses, branches — pinned on all three machines for the paper kernels
// (whose outputs bench checks against Go references), the seeded rtlgen
// corpus (with pipeline.Behavior's fingerprint) and generated RTL (with a
// fingerprint of the final memory). A change to the simulator's core must
// reproduce testdata/sim_golden.txt exactly. Regenerate it only for an
// intended change of simulated behaviour:
//
//	go test . -run TestSimGolden -update-sim-golden

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/machine"
	"macc/internal/pipeline"
	"macc/internal/rtl"
	"macc/internal/rtlgen"
	"macc/internal/sim"
)

var updateSimGolden = flag.Bool("update-sim-golden", false, "rewrite testdata/sim_golden.txt")

const simGoldenPath = "testdata/sim_golden.txt"

// goldenStats renders a result as one row's value fields.
func goldenStats(r sim.Result) string {
	widths := func(m map[rtl.Width]int64) string {
		ws := make([]int, 0, len(m))
		for w := range m {
			ws = append(ws, int(w))
		}
		sort.Ints(ws)
		parts := make([]string, len(ws))
		for i, w := range ws {
			parts[i] = fmt.Sprintf("%d:%d", w, m[rtl.Width(w)])
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	return fmt.Sprintf("ret=%d cycles=%d instrs=%d loads=%d%s stores=%d%s icm=%d dcm=%d br=%d",
		r.Ret, r.Cycles, r.Instrs, r.Loads, widths(r.LoadsByWidth), r.Stores, widths(r.StoresByWidth),
		r.ICacheMisses, r.DCacheMisses, r.Branches)
}

// simGoldenRows computes every oracle row, keyed by case name.
func simGoldenRows(t *testing.T) (keys []string, rows map[string]string) {
	rows = map[string]string{}
	add := func(key, val string) {
		keys = append(keys, key)
		rows[key] = val
	}
	wl := bench.SmallWorkload()
	for _, m := range machine.All() {
		for _, b := range append(bench.Benchmarks(), bench.DotProduct()) {
			for ci, cfg := range bench.Configs(m) {
				key := fmt.Sprintf("kernel %s %s col%d", strings.ReplaceAll(b.Name, " ", "_"), m.Name, ci)
				p, err := macc.Compile(b.Src, cfg)
				if err != nil {
					t.Fatalf("%s: compile: %v", key, err)
				}
				res, err := b.Run(p, wl)
				if err != nil {
					t.Fatalf("%s: run: %v", key, err)
				}
				add(key, goldenStats(res))
			}
		}
	}
	for _, p := range rtlgen.Corpus(1, 200) {
		for _, m := range machine.All() {
			cfgs := map[string]macc.Config{
				"vpo":          macc.BaselineConfig(m),
				"loads":        bench.NamedConfig("loads", m),
				"loads+stores": bench.NamedConfig("loads+stores", m),
			}
			for _, cname := range []string{"vpo", "loads", "loads+stores"} {
				key := fmt.Sprintf("corpus %s %s %s", p.Name, m.Name, cname)
				prog, err := macc.Compile(p.Src, cfgs[cname])
				if err != nil {
					t.Fatalf("%s: compile: %v", key, err)
				}
				s := prog.NewSim(p.MemBytes)
				s.Fuel = 1 << 26
				for i := range s.Mem {
					s.Mem[i] = byte(i * 7)
				}
				res, err := s.Run(p.Entry, p.Args...)
				if err != nil {
					t.Fatalf("%s: run: %v", key, err)
				}
				fp, err := pipeline.Behavior(prog.RTL, m, p.MemBytes, p.Entry, [][]int64{p.Args})
				if err != nil {
					t.Fatalf("%s: behaviour: %v", key, err)
				}
				add(key, goldenStats(res)+" fp="+fp)
			}
		}
	}
	// Generated RTL exercises operations and shapes the front end never
	// emits; each program runs over seeded memory, fingerprinted after.
	for seed := int64(1); seed <= 200; seed++ {
		fn, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
		if err != nil {
			t.Fatalf("generate %d: %v", seed, err)
		}
		prog := rtl.NewProgram(fn)
		for _, m := range machine.All() {
			for _, args := range [][]int64{{0, 0, 0}, {1, 2, 3}, {511, 1023, 7}} {
				key := fmt.Sprintf("generated %d %s %v", seed, m.Name, args)
				s := sim.New(prog, m, rtlgen.MemWindow*2)
				s.Fuel = 1 << 26
				for i := range s.Mem {
					s.Mem[i] = byte(i * 7)
				}
				res, err := s.Run(fn.Name, args...)
				if err != nil {
					t.Fatalf("%s: run: %v", key, err)
				}
				h := fnv.New64a()
				h.Write(s.Mem)
				add(key, fmt.Sprintf("%s mem=%016x", goldenStats(res), h.Sum64()))
			}
		}
	}
	return keys, rows
}

// TestSimGolden checks the simulator against the committed oracle.
func TestSimGolden(t *testing.T) {
	keys, rows := simGoldenRows(t)
	if *updateSimGolden {
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s | %s\n", k, rows[k])
		}
		if err := os.MkdirAll(filepath.Dir(simGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(keys), simGoldenPath)
		return
	}
	f, err := os.Open(simGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " | ")
		if !ok {
			t.Fatalf("malformed golden row %q", sc.Text())
		}
		want[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(keys) {
		t.Errorf("golden file has %d rows, the sweep produced %d", len(want), len(keys))
	}
	bad := 0
	for _, k := range keys {
		w, ok := want[k]
		switch {
		case !ok:
			t.Errorf("%s: no golden row", k)
		case w != rows[k]:
			t.Errorf("%s:\n got  %s\n want %s", k, rows[k], w)
		default:
			continue
		}
		if bad++; bad == 20 {
			t.Fatal("too many mismatches")
		}
	}
}
