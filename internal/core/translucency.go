package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/predict"
)

// TranslucencyReport is the Sect. 6 "translucency" view: insight into
// dependability and prediction behaviour at all levels while the MEA
// methods run.
type TranslucencyReport struct {
	Layers     []string
	Warnings   int
	Actions    int
	Suppressed int
	Outcomes   OutcomeMatrix
	Quality    predict.ContingencyTable
}

// Report assembles the current translucency snapshot. Safe for concurrent
// use (see the package locking contract).
func (e *Engine) Report() TranslucencyReport {
	names := make([]string, len(e.layers))
	for i, l := range e.layers {
		names[i] = l.Name
	}
	outcomes := e.Outcomes()
	e.mu.Lock()
	defer e.mu.Unlock()
	return TranslucencyReport{
		Layers:     names,
		Warnings:   e.warned,
		Actions:    e.acted,
		Suppressed: e.suppressed,
		Outcomes:   outcomes,
		Quality:    outcomes.Table(),
	}
}

// String renders the report, including the Table 1 matrix.
func (r TranslucencyReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "layers: %s\n", strings.Join(r.Layers, ", "))
	fmt.Fprintf(&sb, "warnings: %d  actions: %d  suppressed-by-guard: %d\n",
		r.Warnings, r.Actions, r.Suppressed)
	fmt.Fprintf(&sb, "prediction quality: %s\n", r.Quality)
	outcomes := []predict.Outcome{
		predict.TruePositive, predict.FalsePositive,
		predict.TrueNegative, predict.FalseNegative,
	}
	for _, o := range outcomes {
		byAction := r.Outcomes.Counts[o]
		if len(byAction) == 0 {
			continue
		}
		actions := make([]string, 0, len(byAction))
		for a := range byAction {
			actions = append(actions, a)
		}
		sort.Strings(actions)
		fmt.Fprintf(&sb, "%s:", o)
		for _, a := range actions {
			fmt.Fprintf(&sb, " %s=%d", a, byAction[a])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
