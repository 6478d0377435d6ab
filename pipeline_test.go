package macc_test

import (
	"reflect"
	"strings"
	"testing"

	"macc"
	"macc/internal/core"
	"macc/internal/machine"
	"macc/internal/rtl"
)

const dotSrc = `
int dotproduct(short a[], short b[], int n) {
	int c, i;
	c = 0;
	for (i = 0; i < n; i++)
		c += a[i] * b[i];
	return c;
}
`

func dotWant(a, b []int64) int64 {
	var w int64
	for i := range a {
		w += a[i] * b[i]
	}
	return w
}

func TestCoalescedDotProductCorrect(t *testing.T) {
	for _, n := range []int64{0, 1, 3, 4, 7, 8, 16, 33} {
		prog, err := macc.Compile(dotSrc, macc.DefaultConfig())
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		s := prog.NewSim(1 << 16)
		a := make([]int64, n)
		b := make([]int64, n)
		for i := range a {
			a[i] = int64(i*3 - 7)
			b[i] = int64(11 - i)
		}
		s.WriteInts(0, rtl.W2, a)
		s.WriteInts(4096, rtl.W2, b)
		res, err := s.Run("dotproduct", 0, 4096, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Ret != dotWant(a, b) {
			t.Errorf("n=%d: got %d, want %d", n, res.Ret, dotWant(a, b))
		}
	}
}

func TestCoalescingReducesMemRefs(t *testing.T) {
	base, err := macc.Compile(dotSrc, macc.BaselineConfig(machine.Alpha()))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	co, err := macc.Compile(dotSrc, macc.Config{
		Machine: machine.Alpha(), Optimize: true, Unroll: true, Schedule: true,
		Coalesce: core.Options{Loads: true, Stores: true},
	})
	if err != nil {
		t.Fatalf("coalesced: %v", err)
	}
	t.Logf("reports: %+v", co.Reports)
	t.Logf("unrolled: %v", co.Unrolled)

	const n = 4096
	runOne := func(p *macc.Program) (int64, int64, int64) {
		s := p.NewSim(1 << 20)
		a := make([]int64, n)
		b := make([]int64, n)
		for i := range a {
			a[i] = int64(i % 97)
			b[i] = int64(i % 89)
		}
		s.WriteInts(0, rtl.W2, a)
		s.WriteInts(1<<16, rtl.W2, b)
		res, err := s.Run("dotproduct", 0, 1<<16, n)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res.Ret, res.MemRefs(), res.Cycles
	}
	rb, mb, cb := runOne(base)
	rc, mc, cc := runOne(co)
	if rb != rc {
		t.Fatalf("results differ: %d vs %d", rb, rc)
	}
	t.Logf("baseline: refs=%d cycles=%d; coalesced: refs=%d cycles=%d", mb, cb, mc, cc)
	// The paper: 2n refs -> n/2 refs, a 75 percent saving.
	if mc > mb/3 {
		t.Errorf("expected ~75%% fewer refs: baseline %d, coalesced %d", mb, mc)
	}
	if cc >= cb {
		t.Errorf("coalesced should be faster on alpha: %d vs %d cycles", cc, cb)
	}
}

// TestCompiledOutputParses: every function the full pipeline emits must
// round-trip through the textual RTL parser (print -> parse -> print is a
// fixpoint), so .rtl dumps are always loadable by cmd/macc.
func TestCompiledOutputParses(t *testing.T) {
	srcs := []string{dotSrc, `
		void f(unsigned char *a, unsigned char *b, unsigned char *o, int n) {
			int i;
			for (i = 0; i < n; i++) o[i] = a[i] + b[i];
		}`}
	for _, m := range machine.All() {
		for _, src := range srcs {
			p, err := macc.Compile(src, macc.Config{
				Machine: m, Optimize: true, Unroll: true, Schedule: true,
				Coalesce: core.Options{Loads: true, Stores: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range p.RTL.Fns {
				printed := f.String()
				f2, err := rtl.ParseFn(printed)
				if err != nil {
					t.Fatalf("%s: %v\n%s", m.Name, err, printed)
				}
				if got := f2.String(); got != printed {
					t.Errorf("%s: round trip differs", m.Name)
				}
			}
		}
	}
}

// TestFigure1Structure pins the shape of the coalesced dot product the
// paper's Figure 1c shows: exactly two quadword loads in the coalesced
// body, feeding signed shortword extracts at offsets 0, 2, 4, 6.
func TestFigure1Structure(t *testing.T) {
	p, err := macc.Compile(dotSrc, macc.Config{
		Machine: machine.Alpha(), Optimize: true, Unroll: true,
		Coalesce: core.Options{Loads: true, Stores: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := p.Fn("dotproduct")
	var body *rtl.Block
	for _, b := range f.Blocks {
		if strings.Contains(b.Name, "body") && strings.Contains(b.Name, "coalesced") {
			body = b
		}
	}
	if body == nil {
		t.Fatal("no coalesced body block")
	}
	wideLoads, extracts := 0, map[int64]int{}
	for _, in := range body.Instrs {
		switch in.Op {
		case rtl.Load:
			if in.Width != rtl.W8 {
				t.Errorf("narrow load survives in coalesced body: %s", in)
			}
			wideLoads++
		case rtl.Extract:
			if in.Width != rtl.W2 || !in.Signed {
				t.Errorf("extract has wrong shape: %s", in)
			}
			off, _ := in.B.IsConst()
			extracts[off]++
		}
	}
	if wideLoads != 2 {
		t.Errorf("coalesced body has %d wide loads, want 2 (one per array)", wideLoads)
	}
	for _, off := range []int64{0, 2, 4, 6} {
		if extracts[off] != 2 {
			t.Errorf("offset %d extracted %d times, want 2", off, extracts[off])
		}
	}
}

// TestPassListsAgree pins Passes, the stage list a compile runs, for every
// combination of optional stages: telemetry spans, remarks, and incident
// reports name stages by these strings.
func TestPassListsAgree(t *testing.T) {
	for _, unrollOn := range []bool{false, true} {
		for _, coalesce := range []bool{false, true} {
			for _, schedule := range []bool{false, true} {
				for _, regs := range []int{0, 16} {
					cfg := macc.Config{Optimize: true, Unroll: unrollOn, Schedule: schedule, Registers: regs}
					cfg.Coalesce.Loads = coalesce
					want := []string{"clean", "licm", "strength-reduce"}
					for _, stage := range []struct {
						on   bool
						name string
					}{{unrollOn, "unroll"}, {coalesce, "coalesce"}, {schedule, "schedule"}, {regs > 0, "regalloc"}} {
						if stage.on {
							want = append(want, stage.name)
						}
					}
					if got := macc.Passes(cfg); !reflect.DeepEqual(got, want) {
						t.Fatalf("%+v: Passes = %v, want %v", cfg, got, want)
					}
				}
			}
		}
	}
	if got := macc.Passes(macc.Config{}); got != nil {
		t.Fatalf("Passes without Optimize = %v, want none", got)
	}
}
