// Command availmodel evaluates the paper's Section 5 CTMC model: Eq. 8
// steady-state availability, the Eq. 14 unavailability ratio (≈0.488 for
// the Table 2 parameters), and the Fig. 10 reliability and hazard curves.
//
// Usage:
//
//	availmodel [-precision 0.70] [-recall 0.62] [-fpr 0.016]
//	           [-ptp 0.25] [-pfp 0.1] [-ptn 0.001] [-k 2]
//	           [-curves 0]
//
// With -curves N > 0 the Fig. 10(a)/(b) series are printed as
// tab-separated rows (t, with-PFM, without-PFM).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/pfmmodel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "availmodel:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("availmodel", flag.ContinueOnError)
	defaults := pfmmodel.DefaultParams()
	precision := fs.Float64("precision", defaults.Precision, "predictor precision")
	recall := fs.Float64("recall", defaults.Recall, "predictor recall")
	fpr := fs.Float64("fpr", defaults.FPR, "predictor false positive rate")
	ptp := fs.Float64("ptp", defaults.PTP, "P(failure | true positive)")
	pfp := fs.Float64("pfp", defaults.PFP, "P(failure | false positive)")
	ptn := fs.Float64("ptn", defaults.PTN, "P(failure | true negative)")
	k := fs.Float64("k", defaults.K, "repair time improvement factor")
	mttf := fs.Float64("mttf", 1/defaults.FailureRate, "mean time to failure [s]")
	mttr := fs.Float64("mttr", 1/defaults.RepairRate, "mean time to repair [s]")
	action := fs.Float64("action", 1/defaults.ActionRate, "mean action time [s]")
	curves := fs.Int("curves", 0, "print Fig. 10 series with this many points")
	rejuv := fs.Bool("rejuvenation", false, "compare blind time-triggered rejuvenation vs PFM (E15)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	p := pfmmodel.Params{
		Precision:   *precision,
		Recall:      *recall,
		FPR:         *fpr,
		PTP:         *ptp,
		PFP:         *pfp,
		PTN:         *ptn,
		K:           *k,
		FailureRate: 1 / *mttf,
		RepairRate:  1 / *mttr,
		ActionRate:  1 / *action,
	}
	res, err := experiments.RunModel(p)
	if err != nil {
		return err
	}
	experiments.Fprint(stdout, "Section 5 model (Table 2, Eq. 8, Eq. 14)", res.Rows())

	if *rejuv {
		cmp, err := experiments.RunRejuvenationComparison()
		if err != nil {
			return err
		}
		experiments.Fprint(stdout, "E15: blind rejuvenation (Huang et al.) vs prediction-triggered PFM", cmp.Rows())
	}
	if *curves > 0 {
		rel, haz, err := experiments.Fig10Curves(p, *curves)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "== Fig. 10(a): reliability R(t) ==")
		fmt.Fprintln(stdout, "t\twithPFM\twithoutPFM")
		for _, pt := range rel {
			fmt.Fprintf(stdout, "%.0f\t%.6f\t%.6f\n", pt.T, pt.WithPFM, pt.WithoutPFM)
		}
		fmt.Fprintln(stdout, "== Fig. 10(b): hazard rate h(t) ==")
		fmt.Fprintln(stdout, "t\twithPFM\twithoutPFM")
		for _, pt := range haz {
			fmt.Fprintf(stdout, "%.0f\t%.8g\t%.8g\n", pt.T, pt.WithPFM, pt.WithoutPFM)
		}
	}
	return nil
}
