package macc

import (
	"macc/internal/rtl"
	"macc/internal/telemetry"
)

// Test hooks for the external test package: the graph and flat bodies of
// the loop stages, and the names in both pass lists.

func RunLICM(f *rtl.Fn) bool                                 { return runLICM(f) }
func RunLICMFlat(fp *rtl.FlatProgram, fi int) bool           { return runLICMFlat(fp, fi) }
func RunStrengthReduce(f *rtl.Fn, em telemetry.Emitter) bool { return runStrengthReduce(f, em) }
func RunStrengthReduceFlat(fp *rtl.FlatProgram, fi int, em telemetry.Emitter) bool {
	return runStrengthReduceFlat(fp, fi, em)
}
func RunUnrollLoops(cfg Config, f *rtl.Fn) map[string]int { return runUnrollLoops(cfg, f) }
func RunUnrollLoopsFlat(cfg Config, fp *rtl.FlatProgram, fi int) map[string]int {
	return runUnrollLoopsFlat(cfg, fp, fi)
}

// PassListNames returns the stage names of the graph and flat pass lists
// for cfg.
func PassListNames(cfg Config) (graph, flat []string) {
	p := newProgram(rtl.NewProgram(), cfg.Machine)
	for _, ps := range p.passList(cfg) {
		graph = append(graph, ps.Name)
	}
	for _, ps := range p.flatPassList(cfg) {
		flat = append(flat, ps.Name)
	}
	return graph, flat
}
