package pfm

import (
	"repro/internal/changepoint"
	"repro/internal/diagnose"
	"repro/internal/predict"
)

// --- pre-failure diagnosis (Sect. 2 / Sect. 7) -------------------------------

// Diagnoser ranks components by pre-failure evidence from a warning's error
// window — diagnosis before the failure has occurred.
type Diagnoser = diagnose.Diagnoser

// Suspect is one ranked diagnosis candidate.
type Suspect = diagnose.Suspect

// TrainDiagnoser learns component/event-type pre-failure signatures from
// labeled error windows of l, as CollectDiagnosisWindows returns them.
func TrainDiagnoser(l *ErrorLog, failure, nonFailure [][2]int, smoothing float64) (*Diagnoser, error) {
	return diagnose.TrainOnRanges(l, failure, nonFailure, smoothing)
}

// CollectDiagnosisWindows assembles pre-failure and reference error windows
// for diagnoser training, with the Fig. 6 window geometry, as [lo, hi)
// index ranges into l.
func CollectDiagnosisWindows(l *ErrorLog, failureTimes []float64, cfg ExtractConfig) (failure, nonFailure [][2]int, err error) {
	return diagnose.CollectWindowRanges(l, failureTimes, cfg)
}

// --- dynamicity handling (Sect. 6) --------------------------------------------

// ChangeDetector consumes a quality stream and reports change points.
type ChangeDetector = changepoint.Detector

// NewCUSUM builds a two-sided CUSUM change detector around a reference
// mean.
func NewCUSUM(ref, drift, threshold float64) (*changepoint.CUSUM, error) {
	return changepoint.NewCUSUM(ref, drift, threshold)
}

// NewPageHinkley builds a Page–Hinkley mean-increase detector.
func NewPageHinkley(delta, lambda float64) (*changepoint.PageHinkley, error) {
	return changepoint.NewPageHinkley(delta, lambda)
}

// NewRetrainTrigger couples a change detector to a retraining callback.
func NewRetrainTrigger(d ChangeDetector, retrain func()) (*changepoint.RetrainTrigger, error) {
	return changepoint.NewRetrainTrigger(d, retrain)
}

// --- additional quality metrics -------------------------------------------------

// PRPoint is one operating point of a precision-recall curve.
type PRPoint = predict.PRPoint

// PrecisionRecall computes the precision-recall curve of scored
// predictions.
func PrecisionRecall(scored []Scored) ([]PRPoint, error) {
	return predict.PrecisionRecall(scored)
}

// Breakeven returns the precision-recall breakeven point (Sect. 3.3's
// alternative single-number summary).
func Breakeven(scored []Scored) (float64, error) {
	return predict.Breakeven(scored)
}
