package main

import (
	"encoding/json"
	"strings"
	"testing"
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
	a := Artifact{CPUs: 8, RunTable: e, CacheSpeedup: 10, CodecDecodeSpeedup: 10,
		ColdFlatSpeedup: 2, ColdFlatAllocRatio: 2}
	if err := check(a, a); err != nil {
		t.Fatalf("check with a null speedup: %v", err)
	}
	sp := 1.0
	a.RunTable.Speedup = &sp
	if err := check(a, Artifact{}); err == nil {
		t.Fatal("check passed a 1.0x speedup on 8 CPUs against the absolute floor")
	}
}
