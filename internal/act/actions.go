// Package act implements the paper's prediction-driven countermeasures
// (Sect. 4, Fig. 7). Actions are classified by goal:
//
//	downtime avoidance:    state clean-up, preventive failover, lowering load
//	downtime minimization: prepared repair, preventive restart
//
// An objective-function Selector picks the most effective action for a
// warning (Sect. 2: cost, confidence in the prediction, probability of
// success, and complexity).
package act

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrAct is wrapped by all package errors.
var ErrAct = errors.New("act: invalid operation")

// Goal is the top split of Fig. 7.
type Goal int

// The two goals of prediction-triggered actions.
const (
	DowntimeAvoidance Goal = iota + 1
	DowntimeMinimization
)

// String names the goal.
func (g Goal) String() string {
	switch g {
	case DowntimeAvoidance:
		return "downtime avoidance"
	case DowntimeMinimization:
		return "downtime minimization"
	default:
		return fmt.Sprintf("Goal(%d)", int(g))
	}
}

// Category is the second level of Fig. 7.
type Category int

// The five action categories.
const (
	StateCleanup Category = iota + 1
	PreventiveFailover
	LoadLowering
	PreparedRepair
	PreventiveRestart
)

// Goal returns the category's goal.
func (c Category) Goal() Goal {
	switch c {
	case StateCleanup, PreventiveFailover, LoadLowering:
		return DowntimeAvoidance
	default:
		return DowntimeMinimization
	}
}

// String names the category.
func (c Category) String() string {
	switch c {
	case StateCleanup:
		return "state clean-up"
	case PreventiveFailover:
		return "preventive failover"
	case LoadLowering:
		return "lowering the load"
	case PreparedRepair:
		return "prepared repair"
	case PreventiveRestart:
		return "preventive restart"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Target is the control surface a managed system exposes to the Act stage.
// The SCP simulator implements it; any real system adapter would too.
type Target interface {
	// CleanupState frees leaked or hung resources (garbage collection,
	// queue clearance, killing hung processes).
	CleanupState() error
	// Failover migrates work to a spare unit preventively.
	Failover() error
	// ShedLoad rejects the given fraction of incoming load until reset.
	ShedLoad(fraction float64) error
	// PrepareRepair prewarms repair (boot the cold spare, save a
	// checkpoint) so a subsequent failure repairs faster.
	PrepareRepair() error
	// Restart forces a restart now; it returns the forced downtime.
	Restart() (downtime float64, err error)
}

// Params quantifies an action for the objective function.
type Params struct {
	Cost        float64 // execution cost in abstract units ≥ 0
	SuccessProb float64 // probability the action achieves its goal, [0,1]
	Complexity  float64 // operational complexity, [0,1]
}

// validate checks the parameter ranges.
func (p Params) validate() error {
	if p.Cost < 0 {
		return fmt.Errorf("%w: cost %g", ErrAct, p.Cost)
	}
	if p.SuccessProb < 0 || p.SuccessProb > 1 {
		return fmt.Errorf("%w: success probability %g", ErrAct, p.SuccessProb)
	}
	if p.Complexity < 0 || p.Complexity > 1 {
		return fmt.Errorf("%w: complexity %g", ErrAct, p.Complexity)
	}
	return nil
}

// ActionStats is a snapshot of one action's execution history.
type ActionStats struct {
	// Executions counts Execute calls; Failures counts those that
	// returned an error.
	Executions int64
	Failures   int64
}

// Action is one executable countermeasure.
type Action struct {
	name     string
	category Category
	params   Params
	execute  func() error

	executions atomic.Int64
	failures   atomic.Int64
}

// Name returns the action's display name.
func (a *Action) Name() string { return a.name }

// Category returns the Fig. 7 category.
func (a *Action) Category() Category { return a.category }

// Params returns the objective-function parameters.
func (a *Action) Params() Params { return a.params }

// Execute runs the countermeasure and records its outcome in the action's
// stats. Safe for concurrent use.
func (a *Action) Execute() error {
	err := a.execute()
	a.executions.Add(1)
	if err != nil {
		a.failures.Add(1)
	}
	return err
}

// Stats snapshots the action's execution history. Counters are read
// individually, so a snapshot taken during concurrent Executes may be off
// by the in-flight call.
func (a *Action) Stats() ActionStats {
	return ActionStats{
		Executions: a.executions.Load(),
		Failures:   a.failures.Load(),
	}
}

// New wraps a custom countermeasure.
func New(name string, category Category, params Params, execute func() error) (*Action, error) {
	if name == "" || execute == nil {
		return nil, fmt.Errorf("%w: action needs a name and an execute func", ErrAct)
	}
	switch category {
	case StateCleanup, PreventiveFailover, LoadLowering, PreparedRepair, PreventiveRestart:
	default:
		return nil, fmt.Errorf("%w: unknown category %d", ErrAct, int(category))
	}
	if err := params.validate(); err != nil {
		return nil, err
	}
	return &Action{name: name, category: category, params: params, execute: execute}, nil
}

// NewStateCleanup builds the state clean-up action on the target.
func NewStateCleanup(t Target, p Params) (*Action, error) {
	return New("state-cleanup", StateCleanup, p, t.CleanupState)
}

// NewPreventiveFailover builds the preventive failover action.
func NewPreventiveFailover(t Target, p Params) (*Action, error) {
	return New("preventive-failover", PreventiveFailover, p, t.Failover)
}

// NewLoadLowering builds the load-shedding action; fraction is the share of
// load rejected (risk-adaptive per Sect. 4.2).
func NewLoadLowering(t Target, p Params, fraction float64) (*Action, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("%w: shed fraction %g", ErrAct, fraction)
	}
	return New("load-lowering", LoadLowering, p, func() error {
		return t.ShedLoad(fraction)
	})
}

// NewPreparedRepair builds the prepared-repair action.
func NewPreparedRepair(t Target, p Params) (*Action, error) {
	return New("prepared-repair", PreparedRepair, p, t.PrepareRepair)
}

// NewPreventiveRestart builds the preventive-restart (rejuvenation) action.
func NewPreventiveRestart(t Target, p Params) (*Action, error) {
	return New("preventive-restart", PreventiveRestart, p, func() error {
		_, err := t.Restart()
		return err
	})
}
