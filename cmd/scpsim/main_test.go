package main

import (
	"strings"
	"testing"
)

// TestRunPrintsEveryTable: scpsim is the regeneration path for E3, E7, E12
// and E13 (EXPERIMENTS.md). A one-day horizon must still print every table
// it is cited for.
func TestRunPrintsEveryTable(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-days", "1", "-fig8", "-oscillation", "-dynamicity"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"== E3: MEA loop vs unmitigated system ==", "\navailability ", "\nfailures ", "\nactions ",
		"Table 1 outcome × action matrix:\n  quality: TP=",
		"== E7: Fig. 8 time-to-repair decomposition ==", "\nclassical recovery ", "\nprediction-driven recovery ",
		"== E12: oscillation guard ablation ==", "\nguard off: availability ", "\nguard on:  availability ",
		"== E13: dynamicity, drift detection, retraining ==", "\nchange detection ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
	if t.Failed() {
		t.Log(out.String())
	}
}

func TestRunReplicates(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-days", "1", "-replicates", "2", "-workers", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "availability withPFM="); got != 2 {
		t.Errorf("%d replicate rows, want 2:\n%s", got, out.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-days", "0"}, &out); err == nil {
		t.Error("zero-day horizon accepted")
	}
}

// TestRunDeterministic: a seeded run prints the same bytes every time — the
// Table 1 rows included, which come in Table 1's order, not a map's.
func TestRunDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 4; i++ {
		var out strings.Builder
		if err := run([]string{"-days", "1"}, &out); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", i, out.String(), first)
		}
	}
}
