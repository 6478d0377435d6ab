package main

import (
	"encoding/json"
	"strings"
	"testing"

	"macc/internal/bench"
)

// TestRunTableSpeedupNA pins the GOMAXPROCS < 2 case: the run-table speedup
// is written as null, printed "n/a", and its gate is skipped even on a host
// with enough CPUs for the absolute floor.
func TestRunTableSpeedupNA(t *testing.T) {
	e := RunTableEntry{SerialNsPerOp: 2, ParallelNsPerOp: 1, Jobs: 1}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"speedup":null`) {
		t.Fatalf("speedup not null: %s", b)
	}
	if got := e.speedupText(); got != "n/a" {
		t.Fatalf("speedupText = %q, want n/a", got)
	}
	a := Artifact{CPUs: 8, RunTable: e, CacheSpeedup: 10, CodecDecodeSpeedup: 10}
	if err := check(a, a); err != nil {
		t.Fatalf("check with a null speedup: %v", err)
	}
	sp := 1.0
	a.RunTable.Speedup = &sp
	if err := check(a, Artifact{}); err == nil {
		t.Fatal("check passed a 1.0x speedup on 8 CPUs against the absolute floor")
	}
}

// TestColdGates pins the cold-compile gates: a kernel's allocs/op may grow
// by at most 10% whenever the toolchains match, and the aggregate ns/op by
// at most 25% only against a same-host baseline.
func TestColdGates(t *testing.T) {
	host := bench.Provenance{GoVersion: "go1", GOOS: "linux", GOARCH: "amd64", CPUs: 2}
	base := Artifact{Provenance: host, CacheSpeedup: 10, CodecDecodeSpeedup: 10,
		Cold: []ColdEntry{{Kernel: "k", NsPerOp: 100, AllocsPerOp: 1000}}, ColdNsPerOp: 100}
	cur := base
	cur.Cold = []ColdEntry{{Kernel: "k", NsPerOp: 120, AllocsPerOp: 1090}}
	cur.ColdNsPerOp = 120
	if err := check(cur, base); err != nil {
		t.Fatalf("within both limits: %v", err)
	}
	cur.Cold = []ColdEntry{{Kernel: "k", NsPerOp: 120, AllocsPerOp: 1200}}
	if err := check(cur, base); err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("20%% allocation growth passed: %v", err)
	}
	other := cur
	other.Provenance.CPUs = 64
	if err := check(other, base); err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("allocation gate skipped on another host with the same toolchain: %v", err)
	}
	other.Provenance.GoVersion = "go2"
	if err := check(other, base); err != nil {
		t.Fatalf("allocation gate ran across toolchains: %v", err)
	}
	cur.Cold = base.Cold
	cur.ColdNsPerOp = 140
	if err := check(cur, base); err == nil || !strings.Contains(err.Error(), "ns/op") {
		t.Fatalf("40%% ns/op regression passed: %v", err)
	}
	cur.Provenance.CPUs = 64
	if err := check(cur, base); err != nil {
		t.Fatalf("ns/op gate ran across hosts: %v", err)
	}
}
