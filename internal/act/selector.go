package act

import (
	"fmt"
	"math"
)

// ObjectiveWeights tunes the Sect. 2 objective function.
type ObjectiveWeights struct {
	// Benefit scales the expected gain of a successful action.
	Benefit float64
	// CostWeight penalizes action cost.
	CostWeight float64
	// ComplexityWeight penalizes operational complexity.
	ComplexityWeight float64
}

// DefaultWeights returns a balanced objective.
func DefaultWeights() ObjectiveWeights {
	return ObjectiveWeights{Benefit: 1, CostWeight: 0.1, ComplexityWeight: 0.1}
}

// Selector chooses the most effective action for a failure warning.
type Selector struct {
	weights ObjectiveWeights
}

// NewSelector builds a selector.
func NewSelector(w ObjectiveWeights) (*Selector, error) {
	if w.Benefit <= 0 || w.CostWeight < 0 || w.ComplexityWeight < 0 {
		return nil, fmt.Errorf("%w: weights %+v", ErrAct, w)
	}
	return &Selector{weights: w}, nil
}

// Utility scores one action under a prediction confidence in [0,1]:
//
//	U = confidence · successProb · benefit − wc·cost − wx·complexity
//
// A negative utility means doing nothing beats the action.
func (s *Selector) Utility(a *Action, confidence float64) float64 {
	p := a.Params()
	return confidence*p.SuccessProb*s.weights.Benefit -
		s.weights.CostWeight*p.Cost -
		s.weights.ComplexityWeight*p.Complexity
}

// Select returns the highest-utility action, its utility, and whether any
// action has positive utility (otherwise the best action is still returned
// so the caller can log the decision to do nothing).
func (s *Selector) Select(actions []*Action, confidence float64) (*Action, float64, bool, error) {
	if len(actions) == 0 {
		return nil, 0, false, fmt.Errorf("%w: no actions to select from", ErrAct)
	}
	if confidence < 0 || confidence > 1 || math.IsNaN(confidence) {
		return nil, 0, false, fmt.Errorf("%w: confidence %g", ErrAct, confidence)
	}
	best, bestU := actions[0], s.Utility(actions[0], confidence)
	for _, a := range actions[1:] {
		if u := s.Utility(a, confidence); u > bestU {
			best, bestU = a, u
		}
	}
	return best, bestU, bestU > 0, nil
}
