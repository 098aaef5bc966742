package pfm

import (
	"io"

	"repro/internal/eventlog"
	"repro/internal/hsmm"
)

// --- error-log substrate ----------------------------------------------------

// ErrorLog is a time-ordered error log.
type ErrorLog = eventlog.Log

// ErrorSequence is an event-driven temporal error sequence (Fig. 4).
type ErrorSequence = eventlog.Sequence

// ExtractConfig parameterizes the Fig. 6 training-sequence extraction.
type ExtractConfig = eventlog.ExtractConfig

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
