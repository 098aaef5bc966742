package experiments

import (
	"fmt"
	"math"

	"repro/internal/act"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/hsmm"
	"repro/internal/predict"
	"repro/internal/scp"
)

// MEAConfig parameterizes the closed-loop experiment (E3): a trained
// predictor drives the full Monitor–Evaluate–Act cycle against the live SCP
// simulator, and the mitigated run is compared with an identical
// unmitigated run. The training horizon, the cycle period, the lead time
// and the oscillation guard are the package's constants.
type MEAConfig struct {
	Seed int64
	// RunDays is the closed-loop evaluation horizon.
	RunDays float64
}

// The fixed parts of the closed-loop setup.
const (
	// meaTrainDays of a separate seed train the HSMM log-layer predictor.
	meaTrainDays = 14.0
	// meaEvalInterval is the MEA cycle period [s].
	meaEvalInterval = 60.0
	// meaLeadTime is the lead time Δtl of warnings [s].
	meaLeadTime = 300.0
	// meaGuardWindow / meaGuardMax configure the oscillation guard: at
	// most six countermeasures in any 30 minutes.
	meaGuardWindow = 1800.0
	meaGuardMax    = 6
)

// DefaultMEAConfig returns the standard closed-loop setup.
func DefaultMEAConfig() MEAConfig {
	return MEAConfig{Seed: 11, RunDays: 7}
}

// MEAResult aggregates the closed-loop outcomes.
type MEAResult struct {
	AvailabilityWithPFM    float64
	AvailabilityWithout    float64
	UnavailabilityRatio    float64 // measured analogue of Eq. 14
	FailuresWithPFM        int
	FailuresWithout        int
	Warnings               int
	ActionsTaken           int
	Suppressed             int
	Outcomes                       // Table 1, booked by the loop's ledger
	MeanDowntimePrepared   float64 // E7 factor 1
	MeanDowntimeUnprepared float64
	PreparedFailures       int
	UnpreparedFailures     int
}

// Rows renders the result.
func (r MEAResult) Rows() []Row {
	return []Row{
		{
			Name: "availability",
			Values: map[string]float64{
				"withPFM": r.AvailabilityWithPFM,
				"without": r.AvailabilityWithout,
				"ratio":   r.UnavailabilityRatio,
			},
			Order: []string{"withPFM", "without", "ratio"},
		},
		{
			Name: "failures",
			Values: map[string]float64{
				"withPFM": float64(r.FailuresWithPFM),
				"without": float64(r.FailuresWithout),
			},
			Order: []string{"withPFM", "without"},
		},
		{
			Name: "actions",
			Values: map[string]float64{
				"warnings":   float64(r.Warnings),
				"taken":      float64(r.ActionsTaken),
				"suppressed": float64(r.Suppressed),
			},
			Order: []string{"warnings", "taken", "suppressed"},
		},
		{
			Name: "downtime per failure [s]",
			Values: map[string]float64{
				"prepared":   r.MeanDowntimePrepared,
				"unprepared": r.MeanDowntimeUnprepared,
			},
			Order: []string{"prepared", "unprepared"},
		},
	}
}

// trainLogPredictor trains the HSMM log-layer classifier on a dedicated
// training run and returns it with its max-F threshold.
func trainLogPredictor(cfg MEAConfig) (*hsmm.Classifier, float64, error) {
	csCfg := DefaultCaseStudyConfig()
	csCfg.Seed = cfg.Seed
	csCfg.TrainDays = meaTrainDays
	csCfg.TestDays = 3 // threshold-calibration split
	ds, err := buildDataset(csCfg, true)
	if err != nil {
		return nil, 0, err
	}
	clf, err := ds.trainHSMMClassifier()
	if err != nil {
		return nil, 0, err
	}
	scores, err := ds.hsmmScoresAt(clf, ds.testTimes)
	if err != nil {
		return nil, 0, err
	}
	threshold, _, err := predict.MaxFMeasure(paired(scores, ds.testLabels))
	if err != nil {
		return nil, 0, err
	}
	return clf, threshold, nil
}

// RunMEA executes E3: train offline, deploy the MEA loop on a fresh system,
// and compare against the identical unmitigated system.
func RunMEA(cfg MEAConfig) (MEAResult, error) {
	if cfg.RunDays <= 0 {
		return MEAResult{}, fmt.Errorf("%w: mea config %+v", ErrExperiment, cfg)
	}
	clf, threshold, err := trainLogPredictor(cfg)
	if err != nil {
		return MEAResult{}, fmt.Errorf("train log predictor: %w", err)
	}

	// Unmitigated reference run.
	base, err := scp.New(scpConfigWithSeed(cfg.Seed + 1))
	if err != nil {
		return MEAResult{}, err
	}
	if err := base.Run(cfg.RunDays * 86400); err != nil {
		return MEAResult{}, err
	}

	// Mitigated run: same seed, MEA loop attached.
	sys, err := scp.New(scpConfigWithSeed(cfg.Seed + 1))
	if err != nil {
		return MEAResult{}, err
	}
	engine, loop, err := attachMEA(sys, clf, threshold, cfg)
	if err != nil {
		return MEAResult{}, err
	}
	defer loop.Close()
	if err := sys.Run(cfg.RunDays * 86400); err != nil {
		return MEAResult{}, err
	}

	result := MEAResult{
		AvailabilityWithPFM: sys.MeasuredAvailability(),
		AvailabilityWithout: base.MeasuredAvailability(),
		FailuresWithPFM:     len(sys.Failures()),
		FailuresWithout:     len(base.Failures()),
		Warnings:            engine.Report().Warnings,
		ActionsTaken:        engine.ActionsTaken(),
		Suppressed:          engine.SuppressedActions(),
		Outcomes:            loop.Outcomes(),
	}
	if u := 1 - result.AvailabilityWithout; u > 0 {
		result.UnavailabilityRatio = (1 - result.AvailabilityWithPFM) / u
	} else {
		result.UnavailabilityRatio = math.NaN()
	}
	for _, f := range sys.Failures() {
		if f.Prepared {
			result.PreparedFailures++
			result.MeanDowntimePrepared += f.Downtime
		} else {
			result.UnpreparedFailures++
			result.MeanDowntimeUnprepared += f.Downtime
		}
	}
	if result.PreparedFailures > 0 {
		result.MeanDowntimePrepared /= float64(result.PreparedFailures)
	}
	if result.UnpreparedFailures > 0 {
		result.MeanDowntimeUnprepared /= float64(result.UnpreparedFailures)
	}
	return result, nil
}

// attachMEA wires the layered predictors, the situation-aware mitigation
// action, and the MEA engine onto the live system, in a closed loop.
func attachMEA(sys *scp.System, clf *hsmm.Classifier, logThreshold float64, cfg MEAConfig) (*core.Engine, *ClosedLoop, error) {
	// Layer 1 (application/log): HSMM over the error log (Fig. 11's
	// application-level pattern recognizer).
	logScore := func(now float64) (float64, error) {
		return clf.Score(eventlog.SlidingWindow(sys.Log(), now, dataWindow))
	}
	logLayer := &core.Layer{Name: "log", Predictor: core.PredictorFunc(logScore), Threshold: logThreshold}
	// Layer 2 (OS/resource): free-memory depletion trend.
	memScore := func(now float64) (float64, error) {
		mem, err := sys.SAR("mem_free")
		if err != nil {
			return 0, err
		}
		w := mem.Window(now-1200, now+1e-9)
		if w.Len() < 3 {
			return 0, nil
		}
		slope, _, err := w.LinearTrend()
		if err != nil {
			return 0, nil
		}
		// Declining memory (negative slope) raises the score; also
		// warn outright when already inside the degradation band.
		score := -slope
		if v, ok := mem.ValueAt(now); ok && v < 2*sys.Config().SwapThreshold {
			score += 1
		}
		return score, nil
	}
	memLayer := &core.Layer{Name: "memory", Predictor: core.PredictorFunc(memScore), Threshold: 0.1}
	// Layer 3 (platform): utilization headroom.
	loadLayer := &core.Layer{
		Name:      "load",
		Predictor: core.PredictorFunc(func(float64) (float64, error) { return sys.Utilization(), nil }),
		Threshold: 0.85,
	}

	layers := []*core.Layer{logLayer, memLayer, loadLayer}

	// The cross-layer Act: a situation-aware mitigation that dispatches on
	// which layer's evidence is strongest (Sect. 6: the Act component
	// incorporates the predictions of its level predictors to select the
	// most appropriate countermeasure), plus repair preparation.
	mitigation := func() error {
		now := sys.Engine().Now()
		if !sys.Up() {
			return nil
		}
		if sys.Utilization() > loadLayer.Threshold {
			if err := sys.ShedLoad(0.3); err != nil {
				return err
			}
			// Re-admit traffic once the spike has passed.
			_ = sys.Engine().ScheduleAt(now+1200, func() {
				if sys.Up() {
					_ = sys.ShedLoad(0)
				}
			})
		}
		if score, err := memScore(now); err == nil && score >= memLayer.Threshold {
			if err := sys.CleanupState(); err != nil {
				return err
			}
		}
		if score, err := logScore(now); err == nil && score >= logLayer.Threshold {
			if err := sys.Failover(); err != nil {
				return err
			}
		}
		return sys.PrepareRepair()
	}
	action, err := act.New("mitigate+prepare", act.PreparedRepair,
		act.Params{Cost: 0.5, SuccessProb: 0.85, Complexity: 0.3}, mitigation)
	if err != nil {
		return nil, nil, err
	}
	selector, err := act.NewSelector(act.DefaultWeights())
	if err != nil {
		return nil, nil, err
	}
	engine, err := core.New(nil, layers, nil, selector, []*act.Action{action}, nil, core.Config{
		EvalInterval:        meaEvalInterval,
		LeadTime:            meaLeadTime,
		WarnThreshold:       0.3, // any single layer suffices
		OscillationWindow:   meaGuardWindow,
		MaxActionsPerWindow: meaGuardMax,
	})
	if err != nil {
		return nil, nil, err
	}
	loop, err := AttachClosedLoop(sys, engine)
	if err != nil {
		return nil, nil, err
	}
	return engine, loop, nil
}

// Fig8Result is the E7 time-to-repair decomposition, averaged over the
// run's failures.
type Fig8Result struct {
	Failures int
	// Classical: periodic checkpoints, unprepared repair.
	ClassicalFaultFree float64
	ClassicalRecompute float64
	// PFM: warning-driven checkpoints, prewarmed repair.
	PFMFaultFree float64
	PFMRecompute float64
}

// Total TTRs.
func (r Fig8Result) ClassicalTTR() float64 { return r.ClassicalFaultFree + r.ClassicalRecompute }

// PFMTTR returns the prediction-driven total.
func (r Fig8Result) PFMTTR() float64 { return r.PFMFaultFree + r.PFMRecompute }

// Rows renders the decomposition.
func (r Fig8Result) Rows() []Row {
	return []Row{
		{
			Name: "classical recovery",
			Values: map[string]float64{
				"faultfree": r.ClassicalFaultFree,
				"recompute": r.ClassicalRecompute,
				"total":     r.ClassicalTTR(),
			},
			Order: []string{"faultfree", "recompute", "total"},
		},
		{
			Name: "prediction-driven recovery",
			Values: map[string]float64{
				"faultfree": r.PFMFaultFree,
				"recompute": r.PFMRecompute,
				"total":     r.PFMTTR(),
			},
			Order: []string{"faultfree", "recompute", "total"},
		},
	}
}

// RunFig8 reproduces the Fig. 8 comparison on the simulator: a periodic
// checkpointing scheme with unprepared repair versus warning-driven
// checkpoints with a prewarmed spare. Warnings come from the system's fault
// horizon (isolating the TTR mechanics from predictor quality; E1 measures
// predictor quality separately).
func RunFig8(seed int64, days float64, checkpointInterval float64) (Fig8Result, error) {
	if days <= 0 || checkpointInterval <= 0 {
		return Fig8Result{}, fmt.Errorf("%w: fig8 days=%g interval=%g", ErrExperiment, days, checkpointInterval)
	}
	sys, err := scp.New(scpConfigWithSeed(seed))
	if err != nil {
		return Fig8Result{}, err
	}
	params := checkpoint.RecoveryParams{
		RepairTime:         sys.Config().RepairTime,
		PreparedRepairTime: sys.Config().PreparedRepairTime,
		RecomputeFactor:    0.8,
	}
	periodic := checkpoint.NewStore()
	predDriven := checkpoint.NewStore()
	if err := (checkpoint.PeriodicPolicy{Interval: checkpointInterval}).Install(
		sys.Engine(), periodic, func() bool { return true }); err != nil {
		return Fig8Result{}, err
	}
	warnPolicy := checkpoint.PredictionDrivenPolicy{StateTrustProb: 1}
	prepared := false
	if err := sys.Engine().Every(60, func() bool {
		if sys.Up() && sys.ImminentFailureWithin(600) {
			if _, err := warnPolicy.OnWarning(predDriven, sys.Engine().Now()); err == nil {
				prepared = true
			}
		}
		return true
	}); err != nil {
		return Fig8Result{}, err
	}

	var result Fig8Result
	seen := 0
	if err := sys.Engine().Every(30, func() bool {
		fails := sys.Failures()
		for ; seen < len(fails); seen++ {
			f := fails[seen]
			classical, err := checkpoint.Recover(periodic, params, f.Time, false)
			if err != nil {
				continue
			}
			pfm, err := checkpoint.Recover(predDriven, params, f.Time, prepared)
			if err != nil {
				continue
			}
			result.Failures++
			result.ClassicalFaultFree += classical.FaultFree
			result.ClassicalRecompute += classical.Recompute
			result.PFMFaultFree += pfm.FaultFree
			result.PFMRecompute += pfm.Recompute
			prepared = false
		}
		return true
	}); err != nil {
		return Fig8Result{}, err
	}
	if err := sys.Run(days * 86400); err != nil {
		return Fig8Result{}, err
	}
	if result.Failures == 0 {
		return Fig8Result{}, fmt.Errorf("%w: no failures in fig8 run", ErrExperiment)
	}
	n := float64(result.Failures)
	result.ClassicalFaultFree /= n
	result.ClassicalRecompute /= n
	result.PFMFaultFree /= n
	result.PFMRecompute /= n
	return result, nil
}

// OscillationResult is the E12 ablation outcome.
type OscillationResult struct {
	GuardOn           bool
	Availability      float64
	Restarts          int
	SuppressedByGuard int
}

// RunOscillationAblation runs a deliberately flapping predictor whose only
// action is a preventive restart, with and without the guard (E12). Without
// the guard, the control loop oscillates: restart storms destroy the very
// availability PFM is meant to protect.
func RunOscillationAblation(seed int64, days float64, guardOn bool) (OscillationResult, error) {
	if days <= 0 {
		return OscillationResult{}, fmt.Errorf("%w: days %g", ErrExperiment, days)
	}
	sys, err := scp.New(scpConfigWithSeed(seed))
	if err != nil {
		return OscillationResult{}, err
	}
	flappy := &core.Layer{
		Name:      "flappy",
		Predictor: core.PredictorFunc(func(float64) (float64, error) { return 1, nil }),
		Threshold: 0.5,
	}
	restart, err := act.New("preventive-restart", act.PreventiveRestart,
		act.Params{Cost: 1, SuccessProb: 0.9, Complexity: 0.3}, func() error {
			if !sys.Up() {
				return nil
			}
			_, err := sys.Restart()
			return err
		})
	if err != nil {
		return OscillationResult{}, err
	}
	selector, err := act.NewSelector(act.DefaultWeights())
	if err != nil {
		return OscillationResult{}, err
	}
	cfg := core.Config{EvalInterval: 120, LeadTime: 300, WarnThreshold: 0.5}
	if guardOn {
		cfg.OscillationWindow = 6 * 3600
		cfg.MaxActionsPerWindow = 2
	}
	engine, err := core.New(nil, []*core.Layer{flappy}, nil, selector,
		[]*act.Action{restart}, nil, cfg)
	if err != nil {
		return OscillationResult{}, err
	}
	loop, err := AttachClosedLoop(sys, engine)
	if err != nil {
		return OscillationResult{}, err
	}
	defer loop.Close()
	if err := sys.Run(days * 86400); err != nil {
		return OscillationResult{}, err
	}
	return OscillationResult{
		GuardOn:           guardOn,
		Availability:      sys.MeasuredAvailability(),
		Restarts:          len(sys.Restarts()),
		SuppressedByGuard: engine.SuppressedActions(),
	}, nil
}
