package main

import (
	"strings"
	"testing"
)

// TestRunPrintsHeadlineRows: availmodel is the regeneration path for E4–E6,
// E10 and E15 (EXPERIMENTS.md), so the rows that file quotes must come out
// of the command itself.
func TestRunPrintsHeadlineRows(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-rejuvenation", "-curves", "50"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"unavailability ratio (Eq. 14)  ratio=0.488754",                           // E4: the paper's ≈ 0.488
		"closed=0.977614  numeric=0.977614",                                       // E10
		"degraded dwell 6250s          none=0.954198  blind=0.960139  PFM=0.9776", // E15
		"== Fig. 10(a): reliability R(t) ==",
		"\n25000\t0.322389\t0.135335\n", // E5
		"== Fig. 10(b): hazard rate h(t) ==",
		"\n1000\t4.5306556e-05\t8e-05\n", // E6
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-recall", "2"}, &out); err == nil {
		t.Error("recall 2 accepted")
	}
}
