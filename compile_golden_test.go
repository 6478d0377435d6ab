package macc_test

// Golden compile oracle: for every paper kernel under every table column
// and machine (plus register-allocated and strict variants), the seeded
// rtlgen corpus on every machine, and generated RTL through each pipeline
// stage and each clean-up sub-pass on its own, one row pins a hash of the
// printed RTL, a hash of the remark stream, a digest of the coalescing
// reports and unroll factors, and the list of rolled-back passes. A change
// to the optimizer must reproduce testdata/compile_golden.txt exactly.
// Regenerate it only for an intended change of compiled output:
//
//	go test . -run TestCompileGolden -update-compile-golden

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
	"macc/internal/opt"
	"macc/internal/rtl"
	"macc/internal/rtlgen"
	"macc/internal/telemetry"
)

var updateCompileGolden = flag.Bool("update-compile-golden", false, "rewrite testdata/compile_golden.txt")

const compileGoldenPath = "testdata/compile_golden.txt"

func hash64(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// compileDigest renders one compile's outcome as a row's value fields.
func compileDigest(p *macc.Program, rec *telemetry.Recorder, err error) string {
	if err != nil {
		return fmt.Sprintf("err=%q", err.Error())
	}
	var rem strings.Builder
	remarks := rec.Remarks()
	for _, r := range remarks {
		fmt.Fprintf(&rem, "%s|%s\n", r.Unit, r)
	}
	var reps strings.Builder
	for _, r := range p.Reports {
		fmt.Fprintf(&reps, "%+v\n", r)
	}
	fns := make([]string, 0, len(p.Unrolled))
	for fn := range p.Unrolled {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	unrolled := make([]string, len(fns))
	for i, fn := range fns {
		unrolled[i] = fmt.Sprintf("%s:%d", fn, p.Unrolled[fn])
	}
	return fmt.Sprintf("rtl=%s remarks=%d:%s reports=%d:%s unrolled=[%s] failed=[%s]",
		hash64(p.RTL.String()), len(remarks), hash64(rem.String()),
		len(p.Reports), hash64(reps.String()), strings.Join(unrolled, ","),
		strings.Join(p.Diagnostics.FailedPasses(), ","))
}

// goldenCompile compiles src under cfg with a fresh recorder and digests it.
func goldenCompile(src, unit string, cfg macc.Config) string {
	rec := telemetry.NewRecorder()
	cfg.Telemetry = rec
	cfg.Unit = unit
	p, err := macc.Compile(src, cfg)
	return compileDigest(p, rec, err)
}

// goldenStages is the full pass list on Alpha, regalloc with 8 registers.
func goldenStages() (macc.Config, []string) {
	cfg := macc.DefaultConfig()
	cfg.Registers = 8
	return cfg, macc.Passes(cfg)
}

// goldenSubPasses are the clean-up sub-passes, each run on its own.
func goldenSubPasses() []struct {
	name string
	run  func(*rtl.FlatProgram, int) bool
} {
	return []struct {
		name string
		run  func(*rtl.FlatProgram, int) bool
	}{
		{"RemoveUnreachable", opt.FlatRemoveUnreachable},
		{"FoldConstants", opt.FlatFoldConstants},
		{"PropagateLocal", opt.FlatPropagateLocal},
		{"PropagateImmutable", opt.FlatPropagateImmutable},
		{"LocalCSE", opt.FlatLocalCSE},
		{"CollapseMovChains", opt.FlatCollapseMovChains},
		{"Peephole", opt.FlatPeephole},
		{"DeadCodeElim", opt.FlatDeadCodeElim},
		{"GlobalDCE", opt.FlatGlobalDCE},
		{"EliminateDeadIVs", opt.FlatEliminateDeadIVs},
		{"ThreadJumps", opt.FlatThreadJumps},
		{"NormalizeAddresses", opt.FlatNormalizeAddresses},
		{"Clean", opt.FlatClean},
		{"Clean+ThreadJumps", func(fp *rtl.FlatProgram, fi int) bool {
			c := opt.FlatClean(fp, fi)
			return opt.FlatThreadJumps(fp, fi) || c
		}},
	}
}

// compileGoldenRows computes every oracle row, keyed by case name.
func compileGoldenRows(t *testing.T) (keys []string, rows map[string]string) {
	rows = map[string]string{}
	add := func(key, val string) {
		keys = append(keys, key)
		rows[key] = val
	}
	for _, m := range machine.All() {
		for _, b := range append(bench.Benchmarks(), bench.DotProduct()) {
			name := strings.ReplaceAll(b.Name, " ", "_")
			cfgs := bench.Configs(m)
			for ci, cfg := range cfgs {
				add(fmt.Sprintf("kernel %s %s col%d", name, m.Name, ci), goldenCompile(b.Src, b.Name, cfg))
			}
			full := cfgs[len(cfgs)-1]
			for _, v := range []struct {
				name string
				set  func(*macc.Config)
			}{
				{"regs16", func(c *macc.Config) { c.Registers = 16 }},
				{"regs8", func(c *macc.Config) { c.Registers = 8 }},
				{"strict", func(c *macc.Config) { c.Strict = true }},
			} {
				cfg := full
				v.set(&cfg)
				add(fmt.Sprintf("kernel %s %s %s", name, m.Name, v.name), goldenCompile(b.Src, b.Name, cfg))
			}
		}
	}
	for _, p := range rtlgen.Corpus(1, 200) {
		for _, m := range machine.All() {
			regs8 := bench.NamedConfig("loads+stores", m)
			regs8.Registers = 8
			cfgs := []struct {
				name string
				cfg  macc.Config
			}{
				{"vpo", macc.BaselineConfig(m)},
				{"loads", bench.NamedConfig("loads", m)},
				{"loads+stores", bench.NamedConfig("loads+stores", m)},
				{"loads+stores+regs8", regs8},
			}
			for _, c := range cfgs {
				add(fmt.Sprintf("corpus %s %s %s", p.Name, m.Name, c.name), goldenCompile(p.Src, p.Name, c.cfg))
			}
		}
	}
	stageCfg, stages := goldenStages()
	for seed := int64(1); seed <= 120; seed++ {
		gen := func() *rtl.Fn {
			fn, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
			if err != nil {
				t.Fatalf("generate %d: %v", seed, err)
			}
			return fn
		}
		for _, st := range stages {
			rec := telemetry.NewRecorder()
			cfg := stageCfg
			cfg.Telemetry = rec
			p, err := macc.RunStage(rtl.NewProgram(gen()), cfg, st)
			add(fmt.Sprintf("generated %d stage %s", seed, st), compileDigest(p, rec, err))
		}
		for _, sp := range goldenSubPasses() {
			fp, err := rtl.Flatten(rtl.NewProgram(gen()))
			if err != nil {
				t.Fatalf("seed %d: flatten: %v", seed, err)
			}
			changed := sp.run(fp, 0)
			back, err := fp.Unflatten()
			if err != nil {
				t.Fatalf("seed %d: %s: unflatten: %v", seed, sp.name, err)
			}
			add(fmt.Sprintf("generated %d sub %s", seed, sp.name),
				fmt.Sprintf("changed=%t rtl=%s", changed, hash64(back.String())))
		}
	}
	return keys, rows
}

// TestCompileGolden checks the optimizer against the committed oracle.
func TestCompileGolden(t *testing.T) {
	keys, rows := compileGoldenRows(t)
	if *updateCompileGolden {
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s | %s\n", k, rows[k])
		}
		if err := os.MkdirAll(filepath.Dir(compileGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(compileGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(keys), compileGoldenPath)
		return
	}
	f, err := os.Open(compileGoldenPath)
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
