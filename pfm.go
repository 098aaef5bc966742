// Package pfm is the public API of the Proactive Fault Management library —
// a full reproduction of Salfner & Malek, "Architecting Dependable Systems
// with Proactive Fault Management" (Architecting Dependable Systems VII,
// LNCS 6420). It exports what the programs under examples/ use:
//
//   - the Monitor–Evaluate–Act engine with layered predictors and a
//     cross-layer Act stage (NewMEAEngine, Layer, PredictorFunc — Figs. 1
//     and 11), run in a ClosedLoop on the simulator (AttachClosedLoop),
//   - the Fig. 7 countermeasures a selector picks by the Sect. 2 objective
//     function (NewActionSelector, NewStateCleanup, NewPreventiveRestart),
//   - the HSMM error-sequence classifier (ExtractSequences,
//     TrainHSMMClassifier, SlidingWindow, and its JSON persistence),
//   - pre-failure diagnosis (CollectDiagnosisWindows, TrainDiagnoser),
//   - the Fig. 8 recovery arithmetic (NewCheckpointStore, Recover),
//   - the Section 5 CTMC availability/reliability model (ModelParams,
//     RunModelExperiment, Fig10Curves),
//   - a telecom SCP simulator reproducing the paper's case-study system
//     (NewSCP), and
//   - the case study and the closed-loop experiment (RunCaseStudy, RunMEA).
//
// The streaming runtime, the multi-tenant fleet and their observability
// plane are internal packages; cmd/pfmd runs them as a service. See
// README.md for a quickstart and DESIGN.md for the architecture and the
// per-experiment index.
package pfm

import (
	"repro/internal/act"
	"repro/internal/core"
)

// Layer is one level of the layered prediction architecture (Fig. 11).
type Layer = core.Layer

// PredictorFunc adapts a bare evaluate closure to a Layer's predictor.
type PredictorFunc = core.PredictorFunc

// MEAConfig parameterizes the MEA engine.
type MEAConfig = core.Config

// MEAEngine drives the Monitor–Evaluate–Act cycle (Fig. 1).
type MEAEngine = core.Engine

// Combiner fuses per-layer scores into one confidence (e.g. a stacker).
type Combiner = core.Combiner

// NewMEAEngine assembles an MEA engine over the given layers, action
// selector, and countermeasures. combiner may be nil (layer voting). The
// engine decides; a ClosedLoop on the simulator runs it.
func NewMEAEngine(
	layers []*Layer,
	combiner Combiner,
	selector *ActionSelector,
	actions []*Action,
	cfg MEAConfig,
) (*MEAEngine, error) {
	return core.New(nil, layers, combiner, selector, actions, nil, cfg)
}

// Action is one prediction-triggered countermeasure (Fig. 7).
type Action = act.Action

// ActionParams quantifies an action for the objective function.
type ActionParams = act.Params

// ActionTarget is the control surface a managed system exposes to the Act
// stage.
type ActionTarget = act.Target

// ActionSelector picks the most effective countermeasure for a warning via
// the Sect. 2 objective function.
type ActionSelector = act.Selector

// NewActionSelector builds a selector with the given objective weights.
func NewActionSelector(w act.ObjectiveWeights) (*ActionSelector, error) {
	return act.NewSelector(w)
}

// DefaultObjectiveWeights returns a balanced objective function.
func DefaultObjectiveWeights() act.ObjectiveWeights { return act.DefaultWeights() }

// NewStateCleanup builds the state-cleanup action on a target.
func NewStateCleanup(t ActionTarget, p ActionParams) (*Action, error) {
	return act.NewStateCleanup(t, p)
}

// NewPreventiveRestart builds the rejuvenation action.
func NewPreventiveRestart(t ActionTarget, p ActionParams) (*Action, error) {
	return act.NewPreventiveRestart(t, p)
}
