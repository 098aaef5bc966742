// Package meta implements the architectural blueprint's cross-layer
// prediction combination (Sect. 6): stacked generalization (Wolpert [34])
// over per-layer failure predictors, as applied to failure prediction for
// Blue Gene/L in [32]. The level-1 combiner is a from-scratch logistic
// regression trained by gradient descent.
//
// Stacking discipline: the level-0 scores used for training should be
// out-of-fold predictions (each base predictor scored on data it was not
// trained on); assembling those folds is the caller's responsibility.
package meta

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/mat"
)

// ErrMeta is wrapped by all package errors.
var ErrMeta = errors.New("meta: invalid operation")

// Logistic is a binary logistic-regression model P(y|x) = σ(w·x + b).
type Logistic struct {
	W []float64
	B float64
}

// LogisticConfig controls training.
type LogisticConfig struct {
	// Rate is the gradient-descent learning rate (default 0.1).
	Rate float64
	// Epochs is the number of full passes (default 200).
	Epochs int
}

// l2 is the ridge penalty on weights.
const l2 = 1e-4

func (c LogisticConfig) withDefaults() LogisticConfig {
	if c.Rate == 0 {
		c.Rate = 0.1
	}
	if c.Epochs == 0 {
		c.Epochs = 200
	}
	return c
}

// TrainLogistic fits the model on rows of x with boolean labels.
func TrainLogistic(x *mat.Matrix, y []bool, cfg LogisticConfig) (*Logistic, error) {
	cfg = cfg.withDefaults()
	if x.Rows != len(y) {
		return nil, fmt.Errorf("%w: %d rows vs %d labels", ErrMeta, x.Rows, len(y))
	}
	if x.Rows < 2 {
		return nil, fmt.Errorf("%w: need ≥ 2 training rows", ErrMeta)
	}
	if cfg.Rate <= 0 || cfg.Epochs < 1 {
		return nil, fmt.Errorf("%w: rate=%g epochs=%d", ErrMeta, cfg.Rate, cfg.Epochs)
	}
	model := &Logistic{W: make([]float64, x.Cols)}
	n := float64(x.Rows)
	gradW := make([]float64, x.Cols)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for i := range gradW {
			gradW[i] = l2 * model.W[i]
		}
		gradB := 0.0
		for r := 0; r < x.Rows; r++ {
			row := x.Data[r*x.Cols : (r+1)*x.Cols]
			p := model.prob(row)
			target := 0.0
			if y[r] {
				target = 1
			}
			diff := (p - target) / n
			for c, v := range row {
				gradW[c] += diff * v
			}
			gradB += diff
		}
		for c := range model.W {
			model.W[c] -= cfg.Rate * gradW[c]
		}
		model.B -= cfg.Rate * gradB
	}
	return model, nil
}

// prob is the sigmoid activation on a raw row slice.
func (l *Logistic) prob(row []float64) float64 {
	z := l.B
	for i, v := range row {
		z += l.W[i] * v
	}
	return 1 / (1 + math.Exp(-z))
}

// Prob returns P(failure-prone | x).
func (l *Logistic) Prob(x []float64) (float64, error) {
	if len(x) != len(l.W) {
		return 0, fmt.Errorf("%w: input dim %d, want %d", ErrMeta, len(x), len(l.W))
	}
	return l.prob(x), nil
}

// Stacker combines base-predictor scores into one meta-score. It is safe
// for concurrent use: Score takes a read lock, Reweight a write lock, so
// the predictor lifecycle can adjust a layer's weight at hot-swap time
// while act cycles keep scoring.
type Stacker struct {
	mu       sync.RWMutex
	combiner *Logistic
	names    []string
}

// TrainStacker fits the level-1 combiner: each row of scores holds the base
// predictors' scores for one instance (ideally out-of-fold), labels the
// ground truth. names document the base predictors (one per column).
func TrainStacker(scores *mat.Matrix, labels []bool, names []string, cfg LogisticConfig) (*Stacker, error) {
	if len(names) != scores.Cols {
		return nil, fmt.Errorf("%w: %d names for %d base predictors", ErrMeta, len(names), scores.Cols)
	}
	l, err := TrainLogistic(scores, labels, cfg)
	if err != nil {
		return nil, err
	}
	return &Stacker{combiner: l, names: append([]string(nil), names...)}, nil
}

// NewStacker builds a combiner directly from explicit logistic weights and
// bias (one weight per base predictor, in names order) — for loading a
// previously trained combiner or pinning hand-chosen layer weights (e.g. a
// -meta-weights flag) without a training pass.
func NewStacker(names []string, weights []float64, bias float64) (*Stacker, error) {
	if len(names) == 0 || len(names) != len(weights) {
		return nil, fmt.Errorf("%w: %d names for %d weights", ErrMeta, len(names), len(weights))
	}
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("%w: weight[%d]=%g for %q", ErrMeta, i, w, names[i])
		}
	}
	if math.IsNaN(bias) || math.IsInf(bias, 0) {
		return nil, fmt.Errorf("%w: bias %g", ErrMeta, bias)
	}
	return &Stacker{
		combiner: &Logistic{W: append([]float64(nil), weights...), B: bias},
		names:    append([]string(nil), names...),
	}, nil
}

// Score combines one instance's base scores into the stacked probability.
func (s *Stacker) Score(baseScores []float64) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.combiner.Prob(baseScores)
}

// Weights returns the combiner weight per base predictor, keyed by name —
// the "translucency" view of which layer contributes most.
func (s *Stacker) Weights() map[string]float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]float64, len(s.names))
	for i, n := range s.names {
		out[n] = s.combiner.W[i]
	}
	return out
}

// Weight returns one base predictor's combiner weight.
func (s *Stacker) Weight(name string) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, n := range s.names {
		if n == name {
			return s.combiner.W[i], nil
		}
	}
	return 0, fmt.Errorf("%w: unknown base predictor %q", ErrMeta, name)
}

// Reweight replaces one base predictor's combiner weight and returns the
// previous value. The lifecycle manager uses it to discount a layer whose
// predictor was just swapped (its calibration is unproven) and to restore
// the weight once shadow-quality evidence confirms the candidate.
func (s *Stacker) Reweight(name string, w float64) (prev float64, err error) {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return 0, fmt.Errorf("%w: weight %g for %q", ErrMeta, w, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, n := range s.names {
		if n == name {
			prev = s.combiner.W[i]
			s.combiner.W[i] = w
			return prev, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown base predictor %q", ErrMeta, name)
}
