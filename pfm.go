// Package pfm is the public API of the Proactive Fault Management library —
// a full reproduction of Salfner & Malek, "Architecting Dependable Systems
// with Proactive Fault Management" (Architecting Dependable Systems VII,
// LNCS 6420).
//
// The library provides:
//
//   - the Monitor–Evaluate–Act engine with layered predictors and a
//     cross-layer Act stage (MEAEngine, Layer — Figs. 1 and 11), run by the
//     streaming Runtime, or in a ClosedLoop on the simulator,
//   - online failure predictors: hidden semi-Markov sequence models over
//     error logs (TrainHSMMClassifier) and Universal Basis Functions over
//     monitoring variables (TrainUBF), plus one baseline per taxonomy
//     branch of Fig. 3,
//   - prediction-quality metrics (precision/recall/FPR/F-measure, ROC,
//     AUC — Sect. 3.3),
//   - prediction-driven countermeasures (Fig. 7) with objective-function
//     selection and low-utilization scheduling,
//   - the Section 5 CTMC availability/reliability model (ModelParams),
//   - a telecom SCP simulator reproducing the paper's case-study system
//     (NewSCP), and
//   - the experiment harness regenerating every table and figure
//     (RunModelExperiment, RunCaseStudy, RunMEA, …).
//
// See README.md for a quickstart and DESIGN.md for the architecture and the
// per-experiment index.
package pfm

import (
	"repro/internal/act"
	"repro/internal/core"
	"repro/internal/sim"
)

// SimEngine is the deterministic discrete-event simulation kernel on which
// systems and MEA loops run.
type SimEngine = sim.Engine

// NewSimEngine returns a simulation engine with the clock at zero.
func NewSimEngine() *SimEngine { return sim.NewEngine() }

// Layer is one level of the layered prediction architecture (Fig. 11).
type Layer = core.Layer

// MEAConfig parameterizes the MEA engine.
type MEAConfig = core.Config

// MEAEngine drives the Monitor–Evaluate–Act cycle (Fig. 1).
type MEAEngine = core.Engine

// Combiner fuses per-layer scores into one confidence (e.g. a stacker).
type Combiner = core.Combiner

// NewMEAEngine assembles an MEA engine over the given layers, action
// selector, and countermeasures. combiner may be nil (layer voting). The
// engine decides; a Runtime, or a ClosedLoop on the simulator, runs it.
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

// ActionCategory classifies countermeasures per Fig. 7.
type ActionCategory = act.Category

// The five Fig. 7 action categories.
const (
	StateCleanup       = act.StateCleanup
	PreventiveFailover = act.PreventiveFailover
	LoadLowering       = act.LoadLowering
	PreparedRepair     = act.PreparedRepair
	PreventiveRestart  = act.PreventiveRestart
)

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

// NewAction wraps a custom countermeasure.
func NewAction(name string, category ActionCategory, params ActionParams, execute func() error) (*Action, error) {
	return act.New(name, category, params, execute)
}

// NewStateCleanup, NewPreventiveFailover, NewLoadLowering, NewPreparedRepair
// and NewPreventiveRestart build the standard countermeasures on a target.
func NewStateCleanup(t ActionTarget, p ActionParams) (*Action, error) {
	return act.NewStateCleanup(t, p)
}

// NewPreventiveFailover builds the preventive failover action.
func NewPreventiveFailover(t ActionTarget, p ActionParams) (*Action, error) {
	return act.NewPreventiveFailover(t, p)
}

// NewLoadLowering builds the load-shedding action.
func NewLoadLowering(t ActionTarget, p ActionParams, fraction float64) (*Action, error) {
	return act.NewLoadLowering(t, p, fraction)
}

// NewPreparedRepair builds the repair-preparation action.
func NewPreparedRepair(t ActionTarget, p ActionParams) (*Action, error) {
	return act.NewPreparedRepair(t, p)
}

// NewPreventiveRestart builds the rejuvenation action.
func NewPreventiveRestart(t ActionTarget, p ActionParams) (*Action, error) {
	return act.NewPreventiveRestart(t, p)
}
