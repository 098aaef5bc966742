package experiments

import (
	"fmt"

	"repro/internal/changepoint"
	"repro/internal/eventlog"
	"repro/internal/hsmm"
	"repro/internal/predict"
	"repro/internal/scp"
)

// DynamicityResult is the E13 outcome: how system dynamicity (a mid-run
// "software update" that changes error-message IDs) degrades a trained
// predictor, how quickly online change-point detection notices, and how
// retraining restores quality (Sect. 6).
type DynamicityResult struct {
	// AUCBeforeShift is the stale model's quality on pre-shift data.
	AUCBeforeShift float64
	// AUCAfterShiftStale is the stale model's quality after the update.
	AUCAfterShiftStale float64
	// AUCAfterRetrain is the quality of the model retrained on post-shift
	// data, evaluated on the final segment.
	AUCAfterRetrain float64
	// Detected reports whether the CUSUM detector flagged the drift.
	Detected bool
	// DetectionDelay is the time from the shift to the change point [s].
	DetectionDelay float64
}

// Rows renders the result.
func (r DynamicityResult) Rows() []Row {
	detected := 0.0
	if r.Detected {
		detected = 1
	}
	return []Row{
		{
			Name: "stale model AUC",
			Values: map[string]float64{
				"before-shift": r.AUCBeforeShift,
				"after-shift":  r.AUCAfterShiftStale,
			},
			Order: []string{"before-shift", "after-shift"},
		},
		{
			Name: "retrained model AUC",
			Values: map[string]float64{
				"after-retrain": r.AUCAfterRetrain,
			},
			Order: []string{"after-retrain"},
		},
		{
			Name: "change detection",
			Values: map[string]float64{
				"detected": detected,
				"delay-s":  r.DetectionDelay,
			},
			Order: []string{"detected", "delay-s"},
		},
	}
}

// RunDynamicity executes E13 on a 28-day run with the signature shift at
// day 14: train on days 0–10, calibrate the detector on days 10–14,
// monitor the stale model's miss stream through the shift, retrain on days
// 14–18 once drift is detected, and evaluate on days 18–28.
func RunDynamicity(seed int64) (DynamicityResult, error) {
	const (
		day      = 86400.0
		trainEnd = 10 * day
		shiftAt  = 14 * day
		retrain  = 18 * day
		total    = 28 * day
	)
	cfg := DefaultCaseStudyConfig()
	cfg.Seed = seed

	scpCfg := scpConfigWithSeed(seed)
	scpCfg.SignatureShiftAt = shiftAt
	sys, err := scp.New(scpCfg)
	if err != nil {
		return DynamicityResult{}, err
	}
	if err := sys.Run(total); err != nil {
		return DynamicityResult{}, err
	}
	failures := sys.FailureTimes()
	log := sys.Log()

	subLog := func(from, to float64) (*eventlog.Log, error) {
		return log.Slice(from, to), nil
	}

	// Stale model: trained before the update.
	preLog, err := subLog(0, trainEnd)
	if err != nil {
		return DynamicityResult{}, err
	}
	stale, err := trainHSMMOn(preLog, keepBefore(failures, trainEnd), cfg)
	if err != nil {
		return DynamicityResult{}, fmt.Errorf("train stale model: %w", err)
	}

	down := downSpans(sys)
	grid := func(from, to float64) (times []float64, labels []bool) {
		for t := from; t < to; t += cfg.EvalStride {
			if inSpan(down, t) {
				continue
			}
			times = append(times, t)
			labels = append(labels, anyIn(failures, t, t+cfg.LeadTime+cfg.Slack))
		}
		return times, labels
	}
	// Windows are scored in one batch so the classifier can fan the grid
	// out across cores.
	score := func(clf *hsmm.Classifier, times []float64) ([]float64, error) {
		return clf.ScoreAll(eventlog.SlidingWindows(log, times, cfg.DataWindow))
	}

	var result DynamicityResult

	// Calibration segment (days 10–14): pre-shift quality and the max-F
	// threshold the online miss stream is judged against.
	calTimes, calLabels := grid(trainEnd, shiftAt)
	calScores, err := score(stale, calTimes)
	if err != nil {
		return DynamicityResult{}, err
	}
	result.AUCBeforeShift, err = aucOf(calScores, calLabels)
	if err != nil {
		return DynamicityResult{}, err
	}
	threshold, calTable, err := maxFOf(calScores, calLabels)
	if err != nil {
		return DynamicityResult{}, err
	}
	baseMissRate := 1 - calTable.Accuracy()

	// Post-shift quality of the stale model (days 15–21; day 14–15 is the
	// transition where pre-shift bursts still drain out).
	staleTimes, staleLabels := grid(shiftAt+day, 21*day)
	staleScores, err := score(stale, staleTimes)
	if err != nil {
		return DynamicityResult{}, err
	}
	result.AUCAfterShiftStale, err = aucOf(staleScores, staleLabels)
	if err != nil {
		return DynamicityResult{}, err
	}

	// Online drift detection: CUSUM over the stale model's miss indicator
	// stream across the whole monitored period.
	detector, err := changepoint.NewCUSUM(baseMissRate, 0.01, 1.0)
	if err != nil {
		return DynamicityResult{}, err
	}
	monTimes, monLabels := grid(trainEnd, total)
	monScores, err := score(stale, monTimes)
	if err != nil {
		return DynamicityResult{}, err
	}
	for i, t := range monTimes {
		miss := 0.0
		if (monScores[i] >= threshold) != monLabels[i] {
			miss = 1
		}
		if detector.Update(miss) {
			if t >= shiftAt && !result.Detected {
				result.Detected = true
				result.DetectionDelay = t - shiftAt
			}
			// False alarms before the shift restart the accumulation.
		}
	}

	// Retrained model: post-shift data only (days 14–18).
	postLog, err := subLog(shiftAt, retrain)
	if err != nil {
		return DynamicityResult{}, err
	}
	var postFailures []float64
	for _, f := range failures {
		if f >= shiftAt && f < retrain {
			postFailures = append(postFailures, f)
		}
	}
	retrainCfg := cfg
	retrainCfg.Seed = seed + 17
	retrained, err := trainHSMMOn(postLog, postFailures, retrainCfg)
	if err != nil {
		return DynamicityResult{}, fmt.Errorf("retrain: %w", err)
	}
	finalTimes, finalLabels := grid(retrain, total)
	finalScores, err := score(retrained, finalTimes)
	if err != nil {
		return DynamicityResult{}, err
	}
	result.AUCAfterRetrain, err = aucOf(finalScores, finalLabels)
	if err != nil {
		return DynamicityResult{}, err
	}
	return result, nil
}

// maxFOf computes the max-F threshold and table of raw scores.
func maxFOf(scores []float64, labels []bool) (float64, predict.ContingencyTable, error) {
	scored := make([]predict.Scored, len(scores))
	for i, s := range scores {
		scored[i] = predict.Scored{Score: s, Actual: labels[i]}
	}
	return predict.MaxFMeasure(scored)
}
