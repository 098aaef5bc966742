package pfm

import (
	"io"

	"repro/internal/baseline"
	"repro/internal/eventlog"
	"repro/internal/hsmm"
	"repro/internal/mat"
	"repro/internal/predict"
	"repro/internal/timeseries"
	"repro/internal/ubf"
)

// --- error-log substrate ----------------------------------------------------

// ErrorEvent is one detected-error report (Sect. 3.1 stage 4).
type ErrorEvent = eventlog.Event

// ErrorLog is a time-ordered error log.
type ErrorLog = eventlog.Log

// ErrorSequence is an event-driven temporal error sequence (Fig. 4).
type ErrorSequence = eventlog.Sequence

// ExtractConfig parameterizes the Fig. 6 training-sequence extraction.
type ExtractConfig = eventlog.ExtractConfig

// Severity grades an error report.
type Severity = eventlog.Severity

// Severity levels.
const (
	SeverityInfo     = eventlog.SeverityInfo
	SeverityWarning  = eventlog.SeverityWarning
	SeverityError    = eventlog.SeverityError
	SeverityCritical = eventlog.SeverityCritical
)

// NewErrorLog returns an empty error log.
func NewErrorLog() *ErrorLog { return eventlog.NewLog() }

// ExtractSequences implements the Fig. 6 construction of failure and
// non-failure training sequences.
func ExtractSequences(l *ErrorLog, failureTimes []float64, cfg ExtractConfig) (failure, nonFailure []ErrorSequence, err error) {
	return eventlog.Extract(l, failureTimes, cfg)
}

// SlidingWindow returns the trailing Δtd error window at time now — the
// runtime input of the HSMM predictor.
func SlidingWindow(l *ErrorLog, now, dataWindow float64) ErrorSequence {
	return eventlog.SlidingWindow(l, now, dataWindow)
}

// --- HSMM predictor ----------------------------------------------------------

// HSMMConfig parameterizes hidden semi-Markov model training.
type HSMMConfig = hsmm.Config

// HSMMClassifier is the paper's two-model error-sequence classifier.
type HSMMClassifier = hsmm.Classifier

// TrainHSMMClassifier fits the failure and non-failure models (Sect. 3.2).
func TrainHSMMClassifier(failure, nonFailure []ErrorSequence, cfg HSMMConfig) (*HSMMClassifier, error) {
	return hsmm.TrainClassifier(failure, nonFailure, cfg)
}

// SaveHSMMClassifier writes a trained classifier as JSON.
func SaveHSMMClassifier(w io.Writer, c *HSMMClassifier) error {
	return hsmm.SaveClassifier(w, c)
}

// LoadHSMMClassifier restores a classifier written by SaveHSMMClassifier.
func LoadHSMMClassifier(r io.Reader) (*HSMMClassifier, error) {
	return hsmm.LoadClassifier(r)
}

// --- UBF predictor -----------------------------------------------------------

// Matrix is the dense matrix type used for feature data.
type Matrix = mat.Matrix

// NewMatrix returns a zero matrix.
func NewMatrix(rows, cols int) *Matrix { return mat.New(rows, cols) }

// UBFConfig parameterizes Universal Basis Function training.
type UBFConfig = ubf.TrainConfig

// UBFNetwork is a trained UBF function approximator (Eq. 1).
type UBFNetwork = ubf.Network

// TrainUBF fits a UBF network to regression targets over monitoring
// variables (Sect. 3.2, Fig. 5).
func TrainUBF(x *Matrix, y []float64, cfg UBFConfig) (*UBFNetwork, error) {
	return ubf.Train(x, y, cfg)
}

// SaveUBFNetwork writes a trained network as JSON.
func SaveUBFNetwork(w io.Writer, n *UBFNetwork) error {
	return ubf.SaveNetwork(w, n)
}

// LoadUBFNetwork restores a network written by SaveUBFNetwork.
func LoadUBFNetwork(r io.Reader) (*UBFNetwork, error) {
	return ubf.LoadNetwork(r)
}

// SubsetEvaluator scores a candidate variable subset (lower is better).
type SubsetEvaluator = ubf.SubsetEvaluator

// PWASelect runs the Probabilistic Wrapper Approach for variable selection.
func PWASelect(numVars int, eval SubsetEvaluator, cfg ubf.SelectorConfig) ([]int, float64, error) {
	return ubf.PWASelect(numVars, eval, cfg)
}

// --- time series & monitoring -------------------------------------------------

// Series is a time-ordered sequence of observations of one variable.
type Series = timeseries.Series

// FeatureSpec describes how a monitored variable contributes feature
// columns.
type FeatureSpec = timeseries.FeatureSpec

// NewSeries returns an empty series.
func NewSeries(name string) *Series { return timeseries.New(name) }

// BuildFeatureMatrix samples feature specs at the given times.
func BuildFeatureMatrix(specs []FeatureSpec, times []float64) (*Matrix, []string, error) {
	return timeseries.BuildMatrix(specs, times)
}

// --- metrics ------------------------------------------------------------------

// ContingencyTable counts prediction outcomes and derives the Sect. 3.3
// metrics (precision, recall, false positive rate, F-measure).
type ContingencyTable = predict.ContingencyTable

// Scored pairs a predictor score with ground truth.
type Scored = predict.Scored

// ROCPoint is one operating point of a receiver operating characteristic.
type ROCPoint = predict.ROCPoint

// ROC computes the ROC curve of scored predictions.
func ROC(scored []Scored) ([]ROCPoint, error) { return predict.ROC(scored) }

// AUC integrates a ROC curve.
func AUC(curve []ROCPoint) (float64, error) { return predict.AUC(curve) }

// MaxFMeasure finds the threshold maximizing the F-measure.
func MaxFMeasure(scored []Scored) (threshold float64, table ContingencyTable, err error) {
	return predict.MaxFMeasure(scored)
}

// --- taxonomy baselines ---------------------------------------------------------

// DFT is the Dispersion Frame Technique baseline.
type DFT = baseline.DFT

// EventSet is the indicative-event-set baseline.
type EventSet = baseline.EventSet

// TrendPredictor is the resource-trend baseline.
type TrendPredictor = baseline.Trend

// FailureTracker predicts from the failure history alone.
type FailureTracker = baseline.FailureTracker

// TrainEventSet learns indicative event sets from labeled sequences.
func TrainEventSet(failure, nonFailure []ErrorSequence, smoothing float64) (*EventSet, error) {
	return baseline.TrainEventSet(failure, nonFailure, smoothing)
}

// FitFailureTracker fits a Weibull to inter-failure times by moment
// matching.
func FitFailureTracker(interFailure []float64) (*FailureTracker, error) {
	return baseline.FitFailureTracker(interFailure)
}

// FitFailureTrackerMLE fits the Weibull by maximum likelihood.
func FitFailureTrackerMLE(interFailure []float64) (*FailureTracker, error) {
	return baseline.FitFailureTrackerMLE(interFailure)
}

// MSET is the Multivariate State Estimation Technique over monitoring
// variables — the symptom branch's classic method.
type MSET = baseline.MSET

// MSETConfig controls MSET training.
type MSETConfig = baseline.MSETConfig

// TrainMSET builds the MSET memory matrix from healthy observations.
func TrainMSET(healthy *Matrix, cfg MSETConfig) (*MSET, error) {
	return baseline.TrainMSET(healthy, cfg)
}
