// Telecom: the full Sect. 3.3 case-study pipeline on the simulated Service
// Control Point — weeks of operation, HSMM and UBF training, and the
// comparison against one baseline per taxonomy branch (Fig. 3), followed by
// the closed MEA loop (E3).
//
//	go run ./examples/telecom
package main

import (
	"fmt"
	"os"

	pfm "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "telecom:", err)
		os.Exit(1)
	}
}

func run() error {
	// Part 1: offline prediction quality (E1/E2/E9).
	cfg := pfm.DefaultCaseStudyConfig()
	res, err := pfm.RunCaseStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("simulated %g days (train) + %g days (test): %d + %d failures, %d evaluation points\n",
		cfg.TrainDays, cfg.TestDays, res.TrainFailures, res.TestFailures, res.EvalPoints)
	// One table row: a name and its values in a fixed column order.
	row := func(name string, order []string, values map[string]float64) {
		fmt.Printf("%-28s", name)
		for _, k := range order {
			fmt.Printf("  %s=%.6g", k, values[k])
		}
		fmt.Println()
	}
	fmt.Println("== online failure prediction quality (Sect. 3.3) ==")
	for _, p := range res.Predictors {
		r := p.Row()
		row(r.Name, r.Order, r.Values)
	}
	fmt.Println("paper reference: HSMM precision 0.70, recall 0.62, fpr 0.016, AUC 0.873; UBF AUC 0.846")
	fmt.Println()

	// Part 2: the trained predictor deployed in the closed MEA loop (E3).
	mea, err := pfm.RunMEA(pfm.DefaultMEAExperimentConfig())
	if err != nil {
		return err
	}
	fmt.Println("== closed MEA loop vs unmitigated system (E3) ==")
	for _, r := range mea.Rows() {
		row(r.Name, r.Order, r.Values)
	}
	fmt.Printf("Table 1 quality: %v\n", mea.Quality)
	fmt.Printf("measured unavailability ratio %.3f (Section 5 model predicts ≈0.488 for a Table 2-quality predictor)\n",
		mea.UnavailabilityRatio)
	return nil
}
