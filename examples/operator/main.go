// Operator: the day-2 workflow of a deployed PFM installation, entirely
// through the public API — train the HSMM predictor on last week's logs and
// persist it; reload the model (as a fresh process would); watch a new day
// of operation with event-driven evaluation; and on each warning, run
// pre-failure diagnosis to name the suspect component before anything has
// failed.
//
// Run it with:
//
//	go run ./examples/operator
package main

import (
	"bytes"
	"fmt"
	"os"

	pfm "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "operator:", err)
		os.Exit(1)
	}
}

const (
	dataWindow = 300.0
	leadTime   = 300.0
)

func run() error {
	// --- 1. last week: train and persist --------------------------------
	history, err := pfm.NewSCP(pfm.DefaultSCPConfig())
	if err != nil {
		return err
	}
	if err := history.Run(7 * 86400); err != nil {
		return err
	}
	failures := history.FailureTimes()
	fail, nonFail, err := pfm.ExtractSequences(history.Log(), failures, pfm.ExtractConfig{
		DataWindow:       dataWindow,
		LeadTime:         leadTime,
		MinEvents:        2,
		NonFailureStride: 600,
	})
	if err != nil {
		return err
	}
	clf, err := pfm.TrainHSMMClassifier(fail, nonFail, pfm.HSMMConfig{States: 6, Seed: 1})
	if err != nil {
		return err
	}
	clf.Threshold = 5 // calibrated offline (see cmd/predict train)

	var modelFile bytes.Buffer // stands in for a file on disk
	if err := pfm.SaveHSMMClassifier(&modelFile, clf); err != nil {
		return err
	}
	fmt.Printf("trained on %d failure / %d healthy sequences, model persisted (%d bytes)\n",
		len(fail), len(nonFail), modelFile.Len())

	// Train the diagnoser on the same history.
	failWins, healthyWins, err := pfm.CollectDiagnosisWindows(history.Log(), failures, pfm.ExtractConfig{
		DataWindow:       dataWindow,
		LeadTime:         0,
		MinEvents:        1,
		NonFailureStride: 600,
	})
	if err != nil {
		return err
	}
	diagnoser, err := pfm.TrainDiagnoser(history.Log(), failWins, healthyWins, 1)
	if err != nil {
		return err
	}

	// --- 2. a fresh process reloads the model ---------------------------
	deployed, err := pfm.LoadHSMMClassifier(&modelFile)
	if err != nil {
		return err
	}

	// --- 3+4. today: event-driven watch with diagnosis ------------------
	cfg := pfm.DefaultSCPConfig()
	cfg.Seed = 99 // a different day
	today, err := pfm.NewSCP(cfg)
	if err != nil {
		return err
	}
	warnings := 0
	// Evaluate whenever new errors arrived (event-driven, Sect. 3.1)
	// rather than on a timer: poll the log length cheaply each minute.
	seen := 0
	if err := today.Engine().Every(60, func() bool {
		if today.Log().Len() == seen || !today.Up() {
			seen = today.Log().Len()
			return true
		}
		seen = today.Log().Len()
		now := today.Engine().Now()
		window := pfm.SlidingWindow(today.Log(), now, dataWindow)
		score, err := deployed.Score(window)
		if err != nil || score < deployed.Threshold {
			return true
		}
		warnings++
		suspects := diagnoser.DiagnoseRange(today.Log(), now-dataWindow, now)
		suspect := "unknown"
		if len(suspects) > 0 {
			suspect = suspects[0].Component
		}
		if warnings <= 5 {
			fmt.Printf("t=%7.0fs  WARNING score=%.1f  suspect=%s  -> failover + prepare\n",
				now, score, suspect)
		}
		// Act on the diagnosis.
		if err := today.Failover(); err == nil {
			_ = today.PrepareRepair()
		}
		return true
	}); err != nil {
		return err
	}
	if err := today.Run(86400); err != nil {
		return err
	}
	fmt.Printf("today: %d warnings, %d failures, availability %.5f\n",
		warnings, len(today.Failures()), today.MeasuredAvailability())

	// The unmanaged twin for contrast.
	twin, err := pfm.NewSCP(cfg)
	if err != nil {
		return err
	}
	if err := twin.Run(86400); err != nil {
		return err
	}
	fmt.Printf("unmanaged twin: %d failures, availability %.5f\n",
		len(twin.Failures()), twin.MeasuredAvailability())
	return nil
}
