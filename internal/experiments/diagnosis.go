package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/diagnose"
	"repro/internal/eventlog"
)

// causeOf maps a suspected component onto the injected fault class.
func causeOf(component string) string {
	switch {
	case component == "mem":
		return "leak"
	case component == "lb":
		return "overload"
	case strings.HasPrefix(component, "comp-"):
		return "burst"
	default:
		return ""
	}
}

// DiagnosisResult is the E14 outcome: pre-failure root-cause inference
// quality (Sect. 2 footnote 3 / Sect. 7 "online root cause analysis").
type DiagnosisResult struct {
	// Diagnosed is the number of test failures with a non-empty warning
	// window (an empty window carries no evidence to diagnose from).
	Diagnosed int
	// Correct counts diagnoses whose top suspect maps to the recorded
	// failure cause.
	Correct int
	// PerCause is the per-fault-class accuracy.
	PerCause map[string]float64
	// BurstComponentsDiagnosed / BurstComponentsExact measure the finer
	// question for intermittent faults: did the diagnosis name the exact
	// replicated component (out of four) that carries the fault?
	BurstComponentsDiagnosed int
	BurstComponentsExact     int
}

// ComponentAccuracy returns the exact-component accuracy on burst failures.
func (r DiagnosisResult) ComponentAccuracy() float64 {
	if r.BurstComponentsDiagnosed == 0 {
		return 0
	}
	return float64(r.BurstComponentsExact) / float64(r.BurstComponentsDiagnosed)
}

// Accuracy returns the overall top-1 diagnosis accuracy.
func (r DiagnosisResult) Accuracy() float64 {
	if r.Diagnosed == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Diagnosed)
}

// Rows renders the result, the per-cause rows by cause.
func (r DiagnosisResult) Rows() []Row {
	rows := []Row{{
		Name: "top-1 diagnosis",
		Values: map[string]float64{
			"accuracy":  r.Accuracy(),
			"diagnosed": float64(r.Diagnosed),
		},
		Order: []string{"accuracy", "diagnosed"},
	}, {
		Name: "exact burst component",
		Values: map[string]float64{
			"accuracy": r.ComponentAccuracy(),
		},
		Order: []string{"accuracy"},
	}}
	names := make([]string, 0, len(r.PerCause))
	for n := range r.PerCause {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, cause := range names {
		rows = append(rows, Row{
			Name:   "cause " + cause,
			Values: map[string]float64{"accuracy": r.PerCause[cause]},
			Order:  []string{"accuracy"},
		})
	}
	return rows
}

// RunDiagnosis executes E14: train the diagnoser on the training period's
// pre-failure windows, then attribute every test failure to a component
// from its warning window alone (before the failure), and score against the
// simulator's recorded causes.
func RunDiagnosis(cfg CaseStudyConfig) (DiagnosisResult, error) {
	if err := cfg.validate(); err != nil {
		return DiagnosisResult{}, err
	}
	sys, trainLog, err := simulateSCP(cfg, nil)
	if err != nil {
		return DiagnosisResult{}, err
	}
	splitAt := cfg.TrainDays * 86400
	log := sys.Log()
	failures := sys.Failures()
	failWins, nonFailWins, err := diagnose.CollectWindowRanges(trainLog, keepBefore(sys.FailureTimes(), splitAt), eventlog.ExtractConfig{
		DataWindow:       dataWindow,
		LeadTime:         0, // diagnose from the window adjacent to the failure
		MinEvents:        1,
		NonFailureStride: evalStride * 2,
	})
	if err != nil {
		return DiagnosisResult{}, err
	}
	d, err := diagnose.TrainOnRanges(trainLog, failWins, nonFailWins, 1)
	if err != nil {
		return DiagnosisResult{}, fmt.Errorf("train diagnoser: %w", err)
	}

	result := DiagnosisResult{PerCause: make(map[string]float64)}
	perCauseTotal := make(map[string]int)
	perCauseHit := make(map[string]int)
	for _, f := range failures {
		if f.Time < splitAt {
			continue
		}
		suspect := d.TopSuspectRange(log, f.Time-dataWindow, f.Time)
		if suspect == "" {
			continue
		}
		result.Diagnosed++
		perCauseTotal[f.Cause]++
		if causeOf(suspect) == f.Cause {
			result.Correct++
			perCauseHit[f.Cause]++
		}
		if f.Cause == "burst" {
			result.BurstComponentsDiagnosed++
			if suspect == f.Component {
				result.BurstComponentsExact++
			}
		}
	}
	for cause, n := range perCauseTotal {
		result.PerCause[cause] = float64(perCauseHit[cause]) / float64(n)
	}
	if result.Diagnosed == 0 {
		return DiagnosisResult{}, fmt.Errorf("%w: no diagnosable test failures", ErrExperiment)
	}
	return result, nil
}
