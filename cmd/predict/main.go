// Command predict is the file-based workflow around the HSMM failure
// predictor: train a model from a recorded trace (error log plus failure
// marks), save it, then score or evaluate it on (possibly different)
// traces — the train-offline / deploy-online cycle of Sect. 3.2.
//
// Usage:
//
//	predict train -log data.trace -model model.json
//	predict score -log data.trace -model model.json -at 123456
//	predict eval  -log data.trace -model model.json -from 0
//
// -log takes either single-tenant file cmd/loggen writes — data.trace (text
// line protocol) or data.wire (binary frames), told apart by magic — and
// reads the error events and the ground-truth failure marks from that one
// file.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/eventlog"
	"repro/internal/fleet"
	"repro/internal/hsmm"
	"repro/internal/ingest"
	"repro/internal/predict"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "predict:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: predict <train|score|eval> [flags]")
	}
	switch args[0] {
	case "train":
		return runTrain(args[1:])
	case "score":
		return runScore(args[1:])
	case "eval":
		return runEval(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want train, score, or eval)", args[0])
	}
}

// common flag plumbing -------------------------------------------------------

type windowFlags struct {
	window *float64
	lead   *float64
}

func addWindowFlags(fs *flag.FlagSet) windowFlags {
	return windowFlags{
		window: fs.Float64("window", 300, "data window Δtd [s]"),
		lead:   fs.Float64("lead", 300, "lead time Δtl [s]"),
	}
}

// loadTrace reads one tenant's error log and failure marks from a trace
// file in either of loggen's encodings (fleet.OpenTrace tells them apart).
// Samples are skipped; a trace that interleaves several tenants is refused.
func loadTrace(path string) (*eventlog.Log, []float64, error) {
	l := eventlog.NewLog()
	src, closer, err := fleet.OpenTrace(path)
	if err != nil {
		return nil, nil, err
	}
	defer closer.Close()
	var failures []float64
	var tenant string
	for n := 0; ; n++ {
		rec, err := src.Next()
		if errors.Is(err, io.EOF) {
			sort.Float64s(failures) // predict.FailureIn searches them
			return l, failures, nil
		}
		if err != nil {
			return nil, nil, fmt.Errorf("read %s: %w", path, err)
		}
		ev := rec.Event
		if n == 0 {
			tenant = ev.Tenant
		}
		if ev.Tenant != tenant {
			return nil, nil, fmt.Errorf("%s: multi-tenant trace (tenants %q and %q): predict takes one tenant's", path, tenant, ev.Tenant)
		}
		switch {
		case rec.Failure:
			failures = append(failures, ev.Time)
		case ev.Kind == ingest.KindError:
			if err := l.Append(ev.Error); err != nil {
				return nil, nil, fmt.Errorf("read %s: %w", path, err)
			}
		}
	}
}

// loadLabelled is loadTrace for the subcommands that need ground truth.
func loadLabelled(path string) (*eventlog.Log, []float64, error) {
	l, failures, err := loadTrace(path)
	if err == nil && len(failures) == 0 {
		err = fmt.Errorf("%s: no failure marks", path)
	}
	return l, failures, err
}

func loadModel(path string) (*hsmm.Classifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hsmm.LoadClassifier(f)
}

// subcommands ----------------------------------------------------------------

func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	logPath := fs.String("log", "", "trace file with failure marks (required)")
	modelPath := fs.String("model", "model.json", "output model file")
	states := fs.Int("states", 6, "hidden states")
	seed := fs.Int64("seed", 1, "training seed")
	wf := addWindowFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" {
		return fmt.Errorf("train: -log is required")
	}
	log, failures, err := loadLabelled(*logPath)
	if err != nil {
		return err
	}
	var fail, nonFail []eventlog.Sequence
	for _, lead := range []float64{*wf.lead, 0} {
		f, nf, err := eventlog.Extract(log, failures, eventlog.ExtractConfig{
			DataWindow:       *wf.window,
			LeadTime:         lead,
			MinEvents:        2,
			NonFailureStride: *wf.window * 2,
		})
		if err != nil {
			return err
		}
		fail = append(fail, f...)
		if nonFail == nil {
			nonFail = nf
		}
	}
	clf, err := hsmm.TrainClassifier(fail, nonFail, hsmm.Config{States: *states, Seed: *seed})
	if err != nil {
		return err
	}
	// Calibrate the decision threshold on the training grid.
	scored, _, err := gridScores(clf, log, failures, *wf.window, *wf.lead, 0)
	if err != nil {
		return err
	}
	threshold, table, err := predict.MaxFMeasure(scored)
	if err != nil {
		return err
	}
	clf.Threshold = threshold
	out, err := os.Create(*modelPath)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := hsmm.SaveClassifier(out, clf); err != nil {
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("trained on %d failure / %d non-failure sequences; threshold %.4f\n",
		len(fail), len(nonFail), threshold)
	fmt.Printf("training-grid quality: %v\n", table)
	fmt.Printf("model written to %s\n", *modelPath)
	return nil
}

func runScore(args []string) error {
	fs := flag.NewFlagSet("score", flag.ContinueOnError)
	logPath := fs.String("log", "", "trace file (required)")
	modelPath := fs.String("model", "model.json", "model file")
	at := fs.Float64("at", -1, "score the window ending at this time (required)")
	wf := addWindowFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" || *at < 0 {
		return fmt.Errorf("score: -log and -at are required")
	}
	log, _, err := loadTrace(*logPath)
	if err != nil {
		return err
	}
	clf, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	window := eventlog.SlidingWindow(log, *at, *wf.window)
	score, err := clf.Score(window)
	if err != nil {
		return err
	}
	warning := score >= clf.Threshold
	fmt.Printf("t=%.1f events=%d score=%.4f threshold=%.4f failure-prone=%t\n",
		*at, window.Len(), score, clf.Threshold, warning)
	return nil
}

func runEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	logPath := fs.String("log", "", "trace file with failure marks (required)")
	modelPath := fs.String("model", "model.json", "model file")
	from := fs.Float64("from", 0, "evaluate from this time on")
	wf := addWindowFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" {
		return fmt.Errorf("eval: -log is required")
	}
	log, failures, err := loadLabelled(*logPath)
	if err != nil {
		return err
	}
	clf, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	scored, n, err := gridScores(clf, log, failures, *wf.window, *wf.lead, *from)
	if err != nil {
		return err
	}
	auc, err := predict.AUCOf(scored)
	if err != nil {
		return err
	}
	table := predict.Evaluate(scored, clf.Threshold)
	fmt.Printf("evaluated %d points: AUC=%.4f\n", n, auc)
	fmt.Printf("at stored threshold %.4f: %v\n", clf.Threshold, table)
	return nil
}

// gridScores scores sliding windows on a Δtd-spaced grid with labels from
// the failure times.
func gridScores(clf *hsmm.Classifier, log *eventlog.Log, failures []float64, window, lead, from float64) ([]predict.Scored, int, error) {
	if log.Len() == 0 {
		return nil, 0, fmt.Errorf("empty log")
	}
	start := log.At(0).Time + window
	if from > start {
		start = from
	}
	end := log.At(log.Len() - 1).Time
	var scored []predict.Scored
	for t := start; t < end; t += window {
		s, err := clf.Score(eventlog.SlidingWindow(log, t, window))
		if err != nil {
			return nil, 0, err
		}
		scored = append(scored, predict.Scored{Score: s, Actual: predict.FailureIn(failures, t, t+lead+window)})
	}
	if len(scored) == 0 {
		return nil, 0, fmt.Errorf("no evaluation points in range")
	}
	return scored, len(scored), nil
}
