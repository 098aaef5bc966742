// Rejuvenation: the software-aging scenario of Sect. 4.3 — a platform
// suffering recurring memory leaks — managed three ways:
//
//  1. no countermeasures (unplanned failures, full repairs),
//  2. periodic preventive restart (classic time-triggered rejuvenation,
//     Huang et al.), and
//  3. prediction-driven preventive restart (PFM: restart only when the
//     memory trend forecasts a failure).
//
// It also demonstrates the Fig. 8 prepared-repair arithmetic with
// prediction-driven checkpoints.
//
//	go run ./examples/rejuvenation
package main

import (
	"fmt"
	"os"

	pfm "repro"
)

const days = 4.0

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rejuvenation:", err)
		os.Exit(1)
	}
}

// leakyConfig injects only memory leaks (the aging fault).
func leakyConfig() pfm.SCPConfig {
	cfg := pfm.DefaultSCPConfig()
	cfg.LeakMTBF = 2 * 3600
	cfg.BurstMTBF = 1e12
	cfg.SpikeMTBF = 1e12
	cfg.NoiseErrorRate = 0
	return cfg
}

func run() error {
	unmanaged, err := runUnmanaged()
	if err != nil {
		return err
	}
	periodic, err := runPeriodicRejuvenation(4 * 3600)
	if err != nil {
		return err
	}
	predictive, err := runPredictiveRejuvenation()
	if err != nil {
		return err
	}

	fmt.Println("== software aging under three management policies ==")
	fmt.Printf("%-28s %-14s %-10s %-9s\n", "policy", "availability", "failures", "restarts")
	for _, r := range []result{unmanaged, periodic, predictive} {
		fmt.Printf("%-28s %-14.5f %-10d %-9d\n", r.name, r.availability, r.failures, r.restarts)
	}
	fmt.Println()
	return fig8Demo()
}

type result struct {
	name         string
	availability float64
	failures     int
	restarts     int
}

func runUnmanaged() (result, error) {
	sys, err := pfm.NewSCP(leakyConfig())
	if err != nil {
		return result{}, err
	}
	if err := sys.Run(days * 86400); err != nil {
		return result{}, err
	}
	return result{"unmanaged", sys.MeasuredAvailability(), len(sys.Failures()), 0}, nil
}

// runPeriodicRejuvenation restarts on a fixed schedule, turning unplanned
// downtime into (more frequent but much shorter) planned downtime.
func runPeriodicRejuvenation(period float64) (result, error) {
	sys, err := pfm.NewSCP(leakyConfig())
	if err != nil {
		return result{}, err
	}
	if err := sys.Engine().Every(period, func() bool {
		if sys.Up() {
			if _, err := sys.Restart(); err != nil {
				return false
			}
		}
		return true
	}); err != nil {
		return result{}, err
	}
	if err := sys.Run(days * 86400); err != nil {
		return result{}, err
	}
	return result{"periodic rejuvenation", sys.MeasuredAvailability(), len(sys.Failures()), len(sys.Restarts())}, nil
}

// runPredictiveRejuvenation restarts only when the memory-trend predictor
// forecasts trouble — the PFM version of rejuvenation (Sect. 4.3).
func runPredictiveRejuvenation() (result, error) {
	sys, err := pfm.NewSCP(leakyConfig())
	if err != nil {
		return result{}, err
	}
	memLayer := &pfm.Layer{
		Name: "memory",
		Predictor: pfm.PredictorFunc(func(now float64) (float64, error) {
			mem, err := sys.SAR("mem_free")
			if err != nil {
				return 0, err
			}
			if v, ok := mem.ValueAt(now); ok && v < 3*sys.Config().SwapThreshold {
				return 1, nil
			}
			return 0, nil
		}),
		Threshold: 0.5,
	}
	restart, err := pfm.NewPreventiveRestart(sys, pfm.ActionParams{
		Cost:        0.5,
		SuccessProb: 0.95,
		Complexity:  0.2,
	})
	if err != nil {
		return result{}, err
	}
	selector, err := pfm.NewActionSelector(pfm.DefaultObjectiveWeights())
	if err != nil {
		return result{}, err
	}
	engine, err := pfm.NewMEAEngine([]*pfm.Layer{memLayer}, nil, selector,
		[]*pfm.Action{restart}, pfm.MEAConfig{
			EvalInterval:        120,
			LeadTime:            3600,
			WarnThreshold:       0.5,
			OscillationWindow:   1800,
			MaxActionsPerWindow: 1,
		})
	if err != nil {
		return result{}, err
	}
	loop, err := pfm.AttachClosedLoop(sys, engine)
	if err != nil {
		return result{}, err
	}
	defer loop.Close()
	if err := sys.Run(days * 86400); err != nil {
		return result{}, err
	}
	return result{"prediction-driven restart", sys.MeasuredAvailability(), len(sys.Failures()), len(sys.Restarts())}, nil
}

// fig8Demo walks through the Fig. 8 TTR arithmetic once, by hand.
func fig8Demo() error {
	params := pfm.RecoveryParams{
		RepairTime:         600, // cold spare must boot
		PreparedRepairTime: 300, // spare prewarmed on the warning (k = 2)
		RecomputeFactor:    0.8,
	}
	// Classical: last periodic checkpoint 13 minutes before the failure.
	classical := pfm.NewCheckpointStore()
	if err := classical.Save(pfm.Checkpoint{Time: 3900}); err != nil {
		return err
	}
	ttrClassical, err := pfm.Recover(classical, params, 4680, false)
	if err != nil {
		return err
	}
	// PFM: warning at t=4600 saved a checkpoint and prewarmed the spare.
	prepared := pfm.NewCheckpointStore()
	if err := prepared.Save(pfm.Checkpoint{Time: 4600, Prepared: true}); err != nil {
		return err
	}
	ttrPFM, err := pfm.Recover(prepared, params, 4680, true)
	if err != nil {
		return err
	}
	fmt.Println("== Fig. 8: time-to-repair for one failure at t=4680 ==")
	fmt.Printf("classical:         fault-free %4.0f s + recompute %4.0f s = %4.0f s\n",
		ttrClassical.FaultFree, ttrClassical.Recompute, ttrClassical.Total())
	fmt.Printf("prediction-driven: fault-free %4.0f s + recompute %4.0f s = %4.0f s\n",
		ttrPFM.FaultFree, ttrPFM.Recompute, ttrPFM.Total())
	return nil
}
