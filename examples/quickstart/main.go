// Quickstart: attach a minimal Monitor–Evaluate–Act loop to the simulated
// telecom platform and watch proactive fault management at work.
//
// The example wires one symptom-level predictor (free-memory depletion
// trend) and one downtime-avoidance action (state clean-up) into the MEA
// engine, runs it in a closed loop over two days of operation, and prints
// the translucency report and Table 1 alongside an unmitigated reference
// run.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	pfm "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	const days = 2.0

	// Reference: the same system without PFM.
	baseline, err := pfm.NewSCP(pfm.DefaultSCPConfig())
	if err != nil {
		return err
	}
	if err := baseline.Run(days * 86400); err != nil {
		return err
	}

	// The managed system.
	sys, err := pfm.NewSCP(pfm.DefaultSCPConfig())
	if err != nil {
		return err
	}

	// Monitor + Evaluate: a single symptom-level layer watching the
	// free-memory trend (the paper's canonical memory-leak walkthrough).
	memLayer := &pfm.Layer{
		Name: "memory",
		Predictor: pfm.PredictorFunc(func(now float64) (float64, error) {
			mem, err := sys.SAR("mem_free")
			if err != nil {
				return 0, err
			}
			window := mem.Window(now-1200, now)
			if window.Len() < 3 {
				return 0, nil
			}
			slope, _, err := window.LinearTrend()
			if err != nil {
				return 0, nil
			}
			return -slope, nil // MB/s of decline
		}),
		Threshold: 0.1,
	}

	// Act: clean up leaked state when the warning fires.
	cleanup, err := pfm.NewStateCleanup(sys, pfm.ActionParams{
		Cost:        0.2,
		SuccessProb: 0.9,
		Complexity:  0.1,
	})
	if err != nil {
		return err
	}
	selector, err := pfm.NewActionSelector(pfm.DefaultObjectiveWeights())
	if err != nil {
		return err
	}
	engine, err := pfm.NewMEAEngine(
		[]*pfm.Layer{memLayer},
		nil,
		selector,
		[]*pfm.Action{cleanup},
		pfm.MEAConfig{
			EvalInterval: 60,
			// A leak degrades over hours, so the honest lead time of a
			// trend warning is long — proactive action this early is
			// exactly the point of PFM.
			LeadTime:            3 * 3600,
			WarnThreshold:       0.5,
			OscillationWindow:   1800,
			MaxActionsPerWindow: 4,
		},
	)
	if err != nil {
		return err
	}
	// The streaming runtime runs the engine on the simulator's clock.
	loop, err := pfm.AttachClosedLoop(sys, engine)
	if err != nil {
		return err
	}
	defer loop.Close()
	if err := sys.Run(days * 86400); err != nil {
		return err
	}

	fmt.Println("== quickstart: two days of operation ==")
	fmt.Printf("without PFM: availability %.5f, %d failures\n",
		baseline.MeasuredAvailability(), len(baseline.Failures()))
	fmt.Printf("with PFM:    availability %.5f, %d failures\n",
		sys.MeasuredAvailability(), len(sys.Failures()))
	fmt.Println()
	fmt.Print(engine.Report())
	fmt.Print(loop.Outcomes().Matrix())
	return nil
}
