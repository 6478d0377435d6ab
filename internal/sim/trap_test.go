package sim_test

// Trap-boundary tests: the statistics a run reports when it stops early —
// out of fuel at every possible instruction, at the exact end of memory,
// on a misaligned access — and the D-cache and profile counters around
// those boundaries, pinned to testdata/trap_boundaries.txt. Regenerate the
// file only for an intended change of simulated behaviour:
//
//	go test ./internal/sim -run TestTrapBoundaries -update-trap-golden

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/sim"
)

var updateTrapGolden = flag.Bool("update-trap-golden", false, "rewrite testdata/trap_boundaries.txt")

const trapGoldenPath = "testdata/trap_boundaries.txt"

// outcome renders a run's trap kind and every Stats field.
func outcome(res sim.Result, err error) string {
	kind := "none"
	if err != nil {
		var ok bool
		for k, name := range map[sim.TrapKind]string{
			sim.TrapAlignment: "alignment", sim.TrapOutOfBounds: "bounds",
			sim.TrapDivideByZero: "div0", sim.TrapFuel: "fuel", sim.TrapBadProgram: "bad-program",
		} {
			if sim.IsTrap(err, k) {
				kind, ok = name, true
			}
		}
		if !ok {
			kind = "error"
		}
	}
	widths := func(m map[rtl.Width]int64) string {
		var parts []string
		for _, w := range []rtl.Width{rtl.W1, rtl.W2, rtl.W4, rtl.W8} {
			if n, ok := m[w]; ok {
				parts = append(parts, fmt.Sprintf("%d:%d", w, n))
			}
		}
		if len(parts) != len(m) {
			parts = append(parts, "odd-width")
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	return fmt.Sprintf("trap=%s ret=%d cycles=%d instrs=%d loads=%d%s stores=%d%s icm=%d dcm=%d br=%d",
		kind, res.Ret, res.Cycles, res.Instrs, res.Loads, widths(res.LoadsByWidth),
		res.Stores, widths(res.StoresByWidth), res.ICacheMisses, res.DCacheMisses, res.Branches)
}

// callChain is f(n, p): a three-trip loop of loads, then a block with a
// Call in its middle (to g, which itself calls h mid-block), then a branch
// to a returning block or to one that falls off its end without a
// terminator (n = 1 returns 8; n = 50 falls off).
func callChain() *rtl.Program {
	h := rtl.NewFn("h", 1)
	{
		z := h.NewReg()
		h.Entry().Instrs = append(h.Entry().Instrs,
			rtl.BinI(rtl.Add, z, rtl.R(h.Params[0]), rtl.C(1)),
			rtl.RetI(rtl.R(z)))
	}
	g := rtl.NewFn("g", 1)
	{
		t, u, w := g.NewReg(), g.NewReg(), g.NewReg()
		g.Entry().Instrs = append(g.Entry().Instrs,
			rtl.BinI(rtl.Mul, t, rtl.R(g.Params[0]), rtl.C(3)),
			rtl.CallI(u, "h", rtl.R(t)),
			rtl.BinI(rtl.Add, w, rtl.R(u), rtl.C(1)),
			rtl.RetI(rtl.R(w)))
	}
	f := rtl.NewFn("f", 2)
	n, p := f.Params[0], f.Params[1]
	loop, body := f.NewBlock("loop"), f.NewBlock("body")
	small, big := f.NewBlock("small"), f.NewBlock("big")
	i, s, v := f.NewReg(), f.NewReg(), f.NewReg()
	a, b, c, cond, d, e := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.MovI(i, rtl.C(0)),
		rtl.JumpI(loop))
	loop.Instrs = append(loop.Instrs,
		rtl.LoadI(v, rtl.R(p), 0, rtl.W4, true),
		rtl.BinI(rtl.Add, i, rtl.R(i), rtl.C(1)),
		rtl.SBinI(rtl.SetLT, s, rtl.R(i), rtl.C(3)),
		rtl.BranchI(rtl.R(s), loop, body))
	body.Instrs = append(body.Instrs,
		rtl.BinI(rtl.Add, a, rtl.R(n), rtl.R(v)),
		rtl.CallI(b, "g", rtl.R(a)),
		rtl.BinI(rtl.Add, c, rtl.R(b), rtl.R(a)),
		rtl.SBinI(rtl.SetLT, cond, rtl.R(c), rtl.C(100)),
		rtl.BranchI(rtl.R(cond), small, big))
	small.Instrs = append(small.Instrs,
		rtl.BinI(rtl.Add, d, rtl.R(c), rtl.C(2)),
		rtl.StoreI(rtl.R(p), 4, rtl.R(d), rtl.W4),
		rtl.RetI(rtl.R(d)))
	big.Instrs = append(big.Instrs,
		rtl.BinI(rtl.Sub, e, rtl.R(c), rtl.C(1)))
	return rtl.NewProgram(f, g, h)
}

// memOp is f(p): one access of width w at p, then two more instructions,
// so a trap on the access lands mid-block.
func memOp(store bool, w rtl.Width, signed bool) *rtl.Program {
	f := rtl.NewFn("f", 1)
	p := f.Params[0]
	v, x, y := f.NewReg(), f.NewReg(), f.NewReg()
	acc := rtl.LoadI(v, rtl.R(p), 0, w, signed)
	if store {
		acc = rtl.StoreI(rtl.R(p), 0, rtl.C(-2), w)
	}
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.MovI(v, rtl.C(5)),
		acc,
		rtl.BinI(rtl.Add, x, rtl.R(v), rtl.C(1)),
		rtl.BinI(rtl.Add, y, rtl.R(x), rtl.C(2)),
		rtl.RetI(rtl.R(y)))
	return rtl.NewProgram(f)
}

// seq is f(): loads of the given widths at the given addresses, in order,
// summed — enough to pin the D-cache state a sequence leaves behind.
func seq(addrs []int64, ws []rtl.Width) *rtl.Program {
	f := rtl.NewFn("f", 0)
	sum := f.NewReg()
	f.Entry().Instrs = append(f.Entry().Instrs, rtl.MovI(sum, rtl.C(0)))
	for i, a := range addrs {
		v := f.NewReg()
		f.Entry().Instrs = append(f.Entry().Instrs,
			rtl.LoadI(v, rtl.C(a), 0, ws[i], false),
			rtl.BinI(rtl.Add, sum, rtl.R(sum), rtl.R(v)))
	}
	f.Entry().Instrs = append(f.Entry().Instrs, rtl.RetI(rtl.R(sum)))
	return rtl.NewProgram(f)
}

const trapMem = 4096

// trapRows runs every boundary case and returns its rows in order.
func trapRows(t *testing.T) []string {
	var rows []string
	add := func(key string, res sim.Result, err error) {
		rows = append(rows, key+" | "+outcome(res, err))
	}
	// addMem also fingerprints the final memory image.
	addMem := func(key string, s *sim.Sim, res sim.Result, err error) {
		h := fnv.New64a()
		h.Write(s.Mem)
		rows = append(rows, fmt.Sprintf("%s | %s mem=%016x", key, outcome(res, err), h.Sum64()))
	}
	fill := func(s *sim.Sim) {
		b := make([]byte, trapMem)
		for i := range b {
			b[i] = byte(i*13 + 1)
		}
		s.WriteBytes(0, b)
	}

	// Fuel sweep over the call chain, both exits, every machine.
	for _, m := range machine.All() {
		for _, n := range []int64{1, 50} {
			for fuel := int64(1); fuel <= 32; fuel++ {
				s := sim.New(callChain(), m, trapMem)
				s.Fuel = fuel
				res, err := s.Run("f", n, 64)
				add(fmt.Sprintf("fuel %s n=%d fuel=%d", m.Name, n, fuel), res, err)
			}
		}
	}

	// Loads and stores ending exactly at len(Mem), one byte past it, and
	// below zero.
	for _, m := range []*machine.Machine{machine.Alpha(), machine.M68030()} {
		for _, store := range []bool{false, true} {
			for _, w := range []rtl.Width{rtl.W1, rtl.W2, rtl.W4, rtl.W8} {
				for _, addr := range []int64{trapMem - int64(w), trapMem - int64(w) + 1, trapMem, -int64(w), -1} {
					s := sim.New(memOp(store, w, true), m, trapMem)
					fill(s)
					res, err := s.Run("f", addr)
					addMem(fmt.Sprintf("bounds %s store=%v w=%d addr=%d", m.Name, store, w, addr), s, res, err)
				}
			}
		}
	}

	// Misaligned accesses trap on the Alpha and run on the 68030; signed
	// and unsigned loads of every width read the same filled bytes.
	for _, m := range []*machine.Machine{machine.Alpha(), machine.M68030()} {
		for _, store := range []bool{false, true} {
			for _, signed := range []bool{false, true} {
				if store && signed {
					continue
				}
				for _, w := range []rtl.Width{rtl.W1, rtl.W2, rtl.W4, rtl.W8} {
					for _, addr := range []int64{1024, 1025, 1026, 1028, 1031} {
						s := sim.New(memOp(store, w, signed), m, trapMem)
						fill(s)
						res, err := s.Run("f", addr)
						addMem(fmt.Sprintf("align %s store=%v signed=%v w=%d addr=%d", m.Name, store, signed, w, addr), s, res, err)
					}
				}
			}
		}
	}

	// Split-line D-cache accesses and the lines they leave resident.
	for _, m := range []*machine.Machine{machine.M68030(), machine.Alpha()} {
		for ci, c := range []struct {
			addrs []int64
			ws    []rtl.Width
		}{
			{[]int64{14, 15, 16}, []rtl.Width{rtl.W4, rtl.W1, rtl.W1}},
			{[]int64{12, 8, 20}, []rtl.Width{rtl.W8, rtl.W8, rtl.W4}},
			{[]int64{30, 32, 14, 270}, []rtl.Width{rtl.W2, rtl.W8, rtl.W4, rtl.W2}},
			{[]int64{0, 256, 0, 8192, 0}, []rtl.Width{rtl.W8, rtl.W8, rtl.W8, rtl.W8, rtl.W8}},
		} {
			s := sim.New(seq(c.addrs, c.ws), m, 1<<14)
			res, err := s.Run("f")
			add(fmt.Sprintf("dcache %s case=%d", m.Name, ci), res, err)
		}
	}

	// A divide by zero mid-block, a call with the wrong arity, and a call
	// to an undefined function.
	{
		f := rtl.NewFn("f", 2)
		x, q, r := f.NewReg(), f.NewReg(), f.NewReg()
		f.Entry().Instrs = append(f.Entry().Instrs,
			rtl.BinI(rtl.Add, x, rtl.R(f.Params[0]), rtl.C(1)),
			rtl.SBinI(rtl.Div, q, rtl.R(x), rtl.R(f.Params[1])),
			rtl.BinI(rtl.Add, r, rtl.R(q), rtl.C(1)),
			rtl.RetI(rtl.R(r)))
		for _, b := range []int64{0, 3} {
			res, err := sim.New(rtl.NewProgram(f), machine.Alpha(), trapMem).Run("f", 10, b)
			add(fmt.Sprintf("div b=%d", b), res, err)
		}
	}
	for _, callee := range []string{"g", "missing"} {
		g := rtl.NewFn("g", 2)
		g.Entry().Instrs = append(g.Entry().Instrs, rtl.RetI(rtl.R(g.Params[0])))
		f := rtl.NewFn("f", 1)
		y, z := f.NewReg(), f.NewReg()
		f.Entry().Instrs = append(f.Entry().Instrs,
			rtl.BinI(rtl.Add, y, rtl.R(f.Params[0]), rtl.C(1)),
			rtl.CallI(z, callee, rtl.R(y)),
			rtl.RetI(rtl.R(z)))
		res, err := sim.New(rtl.NewProgram(f, g), machine.Alpha(), trapMem).Run("f", 1)
		add("call "+callee, res, err)
	}
	return rows
}

// profileRows renders the block profile of a call-heavy program after two
// runs, and again after EnableProfile resets it.
func profileRows(t *testing.T) []string {
	prog := compile(t, `
		long sq(long x) { return x * x; }
		long f(long n) {
			long i, s = 0;
			for (i = 0; i < n; i++) {
				if (i % 3 == 0) s += sq(i);
				else s -= i;
			}
			return s;
		}
	`)
	s := sim.New(prog, machine.M88100(), trapMem)
	s.EnableProfile()
	var rows []string
	dump := func(tag string) {
		for _, p := range s.Profile() {
			rows = append(rows, fmt.Sprintf("profile %s %s/%s | execs=%d instrs=%d", tag, p.Fn, p.Block, p.Execs, p.Instrs))
		}
	}
	for _, n := range []int64{25, 7} {
		res, err := s.Run("f", n)
		rows = append(rows, fmt.Sprintf("profile run n=%d | %s", n, outcome(res, err)))
	}
	dump("two-runs")
	s.EnableProfile()
	s.Fuel = 40
	res, err := s.Run("f", 25)
	rows = append(rows, "profile run fuel=40 | "+outcome(res, err))
	dump("after-reset")
	return rows
}

// TestTrapBoundaries checks every boundary case against the pinned rows.
func TestTrapBoundaries(t *testing.T) {
	got := append(trapRows(t), profileRows(t)...)
	if *updateTrapGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trapGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(got), trapGoldenPath)
		return
	}
	data, err := os.ReadFile(trapGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Errorf("%d rows, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got  %s\n want %s", i, got[i], want[i])
			if bad++; bad == 20 {
				t.Fatal("too many mismatches")
			}
		}
	}
}
