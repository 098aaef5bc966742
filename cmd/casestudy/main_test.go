package main

import (
	"strings"
	"testing"
)

// TestRunPrintsEveryTable: casestudy is the regeneration path for E1, E2,
// E8, E9, E11 and E14 (EXPERIMENTS.md). A shortened horizon must still print
// every table it is cited for, with a row per predictor.
func TestRunPrintsEveryTable(t *testing.T) {
	var out strings.Builder
	args := []string{"-train", "4", "-test", "2", "-selection", "-meta", "-diagnosis", "-roc", "-log-format", "json"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"== Sect. 3.3 results (paper: HSMM p=0.70",
		"\nHSMM ", "\nUBF ", "\nDFT ", "\nerror-rate ", "\nevent-set ", "\ntrend ", "\nfailure-tracking ", "\nMSET ",
		"== ROC HSMM ==\nthreshold\tfpr\ttpr\n",
		"== E8: variable-selection strategies ==", "\nPWA ", "\nexpert ",
		"== E11: stacked generalization across layers ==", "\nstacked ", "combiner weights:",
		"== E14: pre-failure root-cause diagnosis ==", "\ntop-1 diagnosis ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
	if t.Failed() {
		t.Log(out.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-log-format", "xml"},
		{"-leadtimes", "150,abc"},
		{"-train", "0"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
