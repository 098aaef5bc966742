// Command casestudy reproduces the paper's Sect. 3.3 case study: it
// simulates weeks of telecom SCP operation, trains the HSMM and UBF failure
// predictors plus one baseline per taxonomy branch, and prints their
// prediction quality (precision, recall, fpr, F-measure, AUC).
//
// Usage:
//
//	casestudy [-seed 7] [-train 14] [-test 7] [-workers 0] [-replicates 1]
//	          [-leadtimes 150,300,600] [-pwa] [-selection] [-meta]
//	          [-log-format text|json]
//
// -pwa enables the Probabilistic Wrapper Approach for UBF variable
// selection; -selection runs the E8 strategy comparison; -meta runs the E11
// stacked-generalization experiment. -workers bounds the parallel stages
// (0 = all cores); -replicates > 1 runs seed-replicated experiments in
// parallel; -leadtimes sweeps the prediction horizon over one simulation.
//
// Progress goes to stderr as structured logs (-log-format selects the
// handler); result tables and TSV stay on stdout, so piping output into
// analysis tooling keeps working.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "casestudy:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("casestudy", flag.ContinueOnError)
	defaults := experiments.DefaultCaseStudyConfig()
	seed := fs.Int64("seed", defaults.Seed, "simulation seed")
	train := fs.Float64("train", defaults.TrainDays, "training horizon [days]")
	test := fs.Float64("test", defaults.TestDays, "evaluation horizon [days]")
	pwa := fs.Bool("pwa", false, "select UBF variables with PWA")
	selection := fs.Bool("selection", false, "run the E8 selection-strategy comparison")
	metaExp := fs.Bool("meta", false, "run the E11 meta-learning experiment")
	diagnosis := fs.Bool("diagnosis", false, "run the E14 pre-failure diagnosis experiment")
	roc := fs.Bool("roc", false, "print the full ROC curves as TSV")
	workers := fs.Int("workers", 0, "worker bound for parallel stages (0 = all cores)")
	replicates := fs.Int("replicates", 1, "seed replicates to run in parallel")
	leadTimes := fs.String("leadtimes", "", "comma-separated lead times [s] to sweep over one simulation")
	logFormat := fs.String("log-format", "text", "progress log format: text|json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := newLogger(*logFormat)
	if err != nil {
		return err
	}

	cfg := defaults
	cfg.Seed = *seed
	cfg.TrainDays = *train
	cfg.TestDays = *test
	cfg.UsePWA = *pwa
	cfg.Workers = *workers

	if *leadTimes != "" {
		leads, err := parseFloats(*leadTimes)
		if err != nil {
			return fmt.Errorf("-leadtimes: %w", err)
		}
		logger.Info("lead-time sweep starting",
			"lead_times", *leadTimes, "seed", cfg.Seed, "workers", *workers)
		points, err := experiments.RunLeadTimeSweep(cfg, leads, *workers)
		if err != nil {
			return err
		}
		for _, pt := range points {
			rows := make([]experiments.Row, 0, len(pt.Result.Predictors))
			for _, p := range pt.Result.Predictors {
				rows = append(rows, p.Row())
			}
			experiments.Fprint(stdout, fmt.Sprintf("lead time %gs", pt.LeadTime), rows)
		}
		return nil
	}
	if *replicates > 1 {
		logger.Info("replicated case study starting",
			"replicates", *replicates, "base_seed", cfg.Seed, "workers", *workers)
		results, err := experiments.RunCaseStudySweep(
			experiments.ReplicateConfigs(cfg, *replicates), *workers)
		if err != nil {
			return err
		}
		for i, res := range results {
			rows := make([]experiments.Row, 0, len(res.Predictors))
			for _, p := range res.Predictors {
				rows = append(rows, p.Row())
			}
			experiments.Fprint(stdout, fmt.Sprintf("replicate %d (seed %d)", i, cfg.Seed+int64(i)), rows)
		}
		return nil
	}

	logger.Info("case study starting",
		"seed", cfg.Seed, "train_days", cfg.TrainDays, "test_days", cfg.TestDays,
		"pwa", cfg.UsePWA, "workers", cfg.Workers)
	res, err := experiments.RunCaseStudy(cfg)
	if err != nil {
		return err
	}
	logger.Info("case study complete",
		"train_failures", res.TrainFailures, "test_failures", res.TestFailures,
		"evaluation_points", res.EvalPoints)
	rows := make([]experiments.Row, 0, len(res.Predictors))
	for _, p := range res.Predictors {
		rows = append(rows, p.Row())
	}
	experiments.Fprint(stdout, "Sect. 3.3 results (paper: HSMM p=0.70 r=0.62 fpr=0.016 AUC=0.873; UBF AUC=0.846)", rows)
	if len(res.SelectedVariables) > 0 {
		logger.Info("PWA variable selection", "selected", fmt.Sprint(res.SelectedVariables))
	}

	if *roc {
		for _, p := range res.Predictors {
			fmt.Fprintf(stdout, "== ROC %s ==\nthreshold\tfpr\ttpr\n", p.Name)
			for _, pt := range p.ROC {
				fmt.Fprintf(stdout, "%g\t%.5f\t%.5f\n", pt.Threshold, pt.FPR, pt.TPR)
			}
		}
	}
	if *selection {
		logger.Info("selection comparison starting")
		sel, err := experiments.RunSelectionComparison(cfg)
		if err != nil {
			return err
		}
		experiments.Fprint(stdout, "E8: variable-selection strategies", sel.Rows())
		for _, s := range sel.Strategies {
			fmt.Fprintf(stdout, "  %-10s -> %v\n", s.Strategy, s.Selected)
		}
	}
	if *metaExp {
		logger.Info("meta-learning experiment starting")
		m, err := experiments.RunMetaLearning(cfg)
		if err != nil {
			return err
		}
		experiments.Fprint(stdout, "E11: stacked generalization across layers", m.Rows())
		fmt.Fprintf(stdout, "combiner weights: %v\n", m.Weights)
	}
	if *diagnosis {
		logger.Info("diagnosis experiment starting")
		d, err := experiments.RunDiagnosis(cfg)
		if err != nil {
			return err
		}
		experiments.Fprint(stdout, "E14: pre-failure root-cause diagnosis", d.Rows())
	}
	return nil
}

// newLogger builds the stderr progress logger for -log-format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text|json)", format)
	}
}

// parseFloats parses a comma-separated float list.
func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
