// Package changepoint provides online change-point detection (Sect. 6:
// "Online change point detection algorithms such as [Basseville &
// Nikiforov] can be used to determine whether the parameters have to be
// re-adjusted"): two-sided CUSUM and Page–Hinkley detectors that trigger
// predictor re-training when the monitored system's behaviour shifts.
package changepoint

import (
	"errors"
	"fmt"
	"math"
)

// ErrDetector is wrapped by all construction errors.
var ErrDetector = errors.New("changepoint: invalid detector")

// Detector consumes a stream of observations and reports change points.
type Detector interface {
	// Update feeds one observation and reports whether a change was
	// detected at it. Detection resets the detector's internal state.
	Update(x float64) bool
	// Reset clears accumulated state (reference statistics are kept).
	Reset()
}

// CUSUM is a two-sided cumulative-sum detector around a reference mean:
// it accumulates deviations beyond an allowance (drift) and fires when
// either accumulator exceeds the threshold.
type CUSUM struct {
	ref       float64 // reference mean μ0
	drift     float64 // allowance k
	threshold float64 // decision boundary h
	pos, neg  float64
}

var _ Detector = (*CUSUM)(nil)

// NewCUSUM builds a detector around reference mean ref with allowance
// drift ≥ 0 and threshold > 0.
func NewCUSUM(ref, drift, threshold float64) (*CUSUM, error) {
	if drift < 0 || math.IsNaN(drift) {
		return nil, fmt.Errorf("%w: drift %g", ErrDetector, drift)
	}
	if threshold <= 0 || math.IsNaN(threshold) {
		return nil, fmt.Errorf("%w: threshold %g", ErrDetector, threshold)
	}
	return &CUSUM{ref: ref, drift: drift, threshold: threshold}, nil
}

// Update feeds one observation.
func (c *CUSUM) Update(x float64) bool {
	d := x - c.ref
	c.pos = math.Max(0, c.pos+d-c.drift)
	c.neg = math.Max(0, c.neg-d-c.drift)
	if c.pos > c.threshold || c.neg > c.threshold {
		c.Reset()
		return true
	}
	return false
}

// Reset clears the accumulators.
func (c *CUSUM) Reset() { c.pos, c.neg = 0, 0 }

// PageHinkley detects mean increases: it tracks the running mean and the
// gap between the cumulative deviation and its running minimum.
type PageHinkley struct {
	delta  float64 // tolerated deviation magnitude
	lambda float64 // detection threshold
	n      int
	mean   float64
	cum    float64
	minCum float64
}

var _ Detector = (*PageHinkley)(nil)

// NewPageHinkley builds a detector with deviation tolerance delta ≥ 0 and
// threshold lambda > 0.
func NewPageHinkley(delta, lambda float64) (*PageHinkley, error) {
	if delta < 0 || math.IsNaN(delta) {
		return nil, fmt.Errorf("%w: delta %g", ErrDetector, delta)
	}
	if lambda <= 0 || math.IsNaN(lambda) {
		return nil, fmt.Errorf("%w: lambda %g", ErrDetector, lambda)
	}
	return &PageHinkley{delta: delta, lambda: lambda}, nil
}

// Update feeds one observation.
func (p *PageHinkley) Update(x float64) bool {
	p.n++
	p.mean += (x - p.mean) / float64(p.n)
	p.cum += x - p.mean - p.delta
	if p.cum < p.minCum {
		p.minCum = p.cum
	}
	if p.cum-p.minCum > p.lambda {
		p.Reset()
		return true
	}
	return false
}

// Reset clears accumulated statistics (the detector re-learns the mean).
func (p *PageHinkley) Reset() {
	p.n, p.mean, p.cum, p.minCum = 0, 0, 0, 0
}
