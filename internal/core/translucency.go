package core

import (
	"fmt"
	"strings"
)

// TranslucencyReport is the Sect. 6 "translucency" view: insight into
// dependability and prediction behaviour at all levels while the MEA
// methods run. How the predictions fared is the ledger's to say
// (obs.Ledger), against the failures that followed them.
type TranslucencyReport struct {
	Layers     []string
	Warnings   int
	Actions    int
	Suppressed int
}

// Report assembles the current translucency snapshot. Safe for concurrent
// use (see the package locking contract).
func (e *Engine) Report() TranslucencyReport {
	names := make([]string, len(e.layers))
	for i, l := range e.layers {
		names[i] = l.Name
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return TranslucencyReport{
		Layers:     names,
		Warnings:   e.warned,
		Actions:    e.acted,
		Suppressed: e.suppressed,
	}
}

// String renders the report.
func (r TranslucencyReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "layers: %s\n", strings.Join(r.Layers, ", "))
	fmt.Fprintf(&sb, "warnings: %d  actions: %d  suppressed-by-guard: %d\n",
		r.Warnings, r.Actions, r.Suppressed)
	return sb.String()
}
