// Package pfmmodel implements the paper's Section 5 stochastic model for
// assessing the effect of proactive fault management on steady-state
// availability, reliability, and hazard rate.
//
// The model is the seven-state CTMC of Fig. 9:
//
//	S0 (up) → S_TP, S_FP, S_TN, S_FN   at the four prediction-outcome rates
//	S_TP → S_R with P_TP, else back to S0      (downtime avoidance can fail)
//	S_FP → S_R with P_FP, else back to S0      (action-induced failures)
//	S_TN → S_F with P_TN, else back to S0      (prediction-induced failures)
//	S_FN → S_F                                  (missed failures, unprepared)
//	S_R → S0 at rate k·r_F (prepared repair), S_F → S0 at rate r_F
//
// Availability has the closed form of Eq. 8; reliability and hazard rate
// follow from the phase-type first-passage distribution (Eqs. 9–13).
package pfmmodel

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ctmc"
)

// ErrParams is wrapped by all parameter-validation failures.
var ErrParams = errors.New("pfmmodel: invalid parameters")

// State indices of the Fig. 9 chain, numbered exactly as in the paper.
const (
	StateUp = iota // S0: fault-free up state
	StateTP        // S_TP: true positive prediction in progress
	StateFP        // S_FP: false positive prediction in progress
	StateTN        // S_TN: true negative prediction in progress
	StateFN        // S_FN: false negative — unpredicted failure looming
	StateR         // S_R: prepared / forced downtime
	StateF         // S_F: unprepared / unplanned downtime
)

// Params holds every input of the Section 5 model. The first three rows are
// the predictor quality metrics of Sect. 3.3; the P_* values are the
// conditional failure probabilities of Eqs. 3–5; K is the repair-time
// improvement factor of Eq. 6. The rates are the "few additional
// assumptions" the paper defers to [64, Chap. 10]: the arrival rate of truly
// imminent failures, the unprepared repair rate, and the action rate.
type Params struct {
	Precision float64 // fraction of correct failure warnings
	Recall    float64 // true positive rate
	FPR       float64 // false positive rate

	PTP float64 // P(failure | true positive prediction), Eq. 3
	PFP float64 // P(failure | false positive prediction), Eq. 4
	PTN float64 // P(failure | true negative prediction), Eq. 5
	K   float64 // MTTR / MTTR_prepared, Eq. 6

	FailureRate float64 // λ_F: rate of truly imminent failures [1/s]
	RepairRate  float64 // r_F: unprepared repair rate [1/s]
	ActionRate  float64 // r_A: 1 / mean time from prediction to outcome [1/s]
}

// DefaultParams returns the paper's Table 2 parameters combined with the
// rate assumptions documented in DESIGN.md: MTTF 12500 s (matching the
// Fig. 10(b) no-PFM hazard plateau of ≈8e-5 /s), MTTR 600 s, and a 15 s
// mean action time. With these, Eq. 14 evaluates to 0.4888, matching the
// paper's reported ≈0.488.
func DefaultParams() Params {
	return Params{
		Precision:   0.70,
		Recall:      0.62,
		FPR:         0.016,
		PTP:         0.25,
		PFP:         0.1,
		PTN:         0.001,
		K:           2,
		FailureRate: 1.0 / 12500,
		RepairRate:  1.0 / 600,
		ActionRate:  1.0 / 15,
	}
}

// Validate checks that all parameters are in their admissible ranges.
func (p Params) Validate() error {
	check01 := func(name string, v float64, openLow, openHigh bool) error {
		if math.IsNaN(v) || v < 0 || v > 1 || (openLow && v == 0) || (openHigh && v == 1) {
			return fmt.Errorf("%w: %s = %g out of range", ErrParams, name, v)
		}
		return nil
	}
	if err := check01("precision", p.Precision, true, false); err != nil {
		return err
	}
	if err := check01("recall", p.Recall, false, false); err != nil {
		return err
	}
	if err := check01("fpr", p.FPR, true, true); err != nil {
		return err
	}
	if err := check01("PTP", p.PTP, false, false); err != nil {
		return err
	}
	if err := check01("PFP", p.PFP, false, false); err != nil {
		return err
	}
	if err := check01("PTN", p.PTN, false, false); err != nil {
		return err
	}
	if p.K <= 0 || math.IsNaN(p.K) {
		return fmt.Errorf("%w: k = %g must be positive", ErrParams, p.K)
	}
	for name, v := range map[string]float64{
		"failure rate": p.FailureRate,
		"repair rate":  p.RepairRate,
		"action rate":  p.ActionRate,
	} {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s = %g must be positive and finite", ErrParams, name, v)
		}
	}
	return nil
}

// Rates are the four prediction-outcome rates leaving the up state.
type Rates struct {
	TP, FP, TN, FN float64
}

// Total returns r_P, the overall prediction rate r_TP+r_FP+r_TN+r_FN.
func (r Rates) Total() float64 { return r.TP + r.FP + r.TN + r.FN }

// PredictionRates derives the four outcome rates from predictor quality and
// the failure arrival rate, following the dissertation's construction:
//
//	r_TP = recall·λ_F             (predicted failures)
//	r_FN = (1−recall)·λ_F         (missed failures)
//	r_FP = r_TP·(1−precision)/precision   (from precision = TP/(TP+FP))
//	r_TN = r_FP·(1−fpr)/fpr               (from fpr = FP/(FP+TN))
func (p Params) PredictionRates() (Rates, error) {
	if err := p.Validate(); err != nil {
		return Rates{}, err
	}
	tp := p.Recall * p.FailureRate
	fn := (1 - p.Recall) * p.FailureRate
	fp := tp * (1 - p.Precision) / p.Precision
	tn := fp * (1 - p.FPR) / p.FPR
	return Rates{TP: tp, FP: fp, TN: tn, FN: fn}, nil
}

// Chain builds the Fig. 9 CTMC.
func (p Params) Chain() (*ctmc.Chain, error) {
	r, err := p.PredictionRates()
	if err != nil {
		return nil, err
	}
	c := ctmc.New("S0", "S_TP", "S_FP", "S_TN", "S_FN", "S_R", "S_F")
	type arc struct {
		from, to int
		rate     float64
	}
	arcs := []arc{
		{StateUp, StateTP, r.TP},
		{StateUp, StateFP, r.FP},
		{StateUp, StateTN, r.TN},
		{StateUp, StateFN, r.FN},
		{StateTP, StateR, p.ActionRate * p.PTP},
		{StateTP, StateUp, p.ActionRate * (1 - p.PTP)},
		{StateFP, StateR, p.ActionRate * p.PFP},
		{StateFP, StateUp, p.ActionRate * (1 - p.PFP)},
		{StateTN, StateF, p.ActionRate * p.PTN},
		{StateTN, StateUp, p.ActionRate * (1 - p.PTN)},
		{StateFN, StateF, p.ActionRate},
		{StateR, StateUp, p.K * p.RepairRate},
		{StateF, StateUp, p.RepairRate},
	}
	for _, a := range arcs {
		if a.rate == 0 {
			continue
		}
		if err := c.SetRate(a.from, a.to, a.rate); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Availability returns the closed-form steady-state availability of Eq. 8:
//
//	A = (r_A + r_P)·k·r_F /
//	    (k·r_F·(r_A + r_P) + r_A·(P_FP·r_FP + P_TP·r_TP + k·P_TN·r_TN + k·r_FN))
func (p Params) Availability() (float64, error) {
	r, err := p.PredictionRates()
	if err != nil {
		return 0, err
	}
	ra, rf, k := p.ActionRate, p.RepairRate, p.K
	rp := r.Total()
	num := (ra + rp) * k * rf
	den := k*rf*(ra+rp) + ra*(p.PFP*r.FP+p.PTP*r.TP+k*p.PTN*r.TN+k*r.FN)
	return num / den, nil
}

// AvailabilityNumeric solves the Fig. 9 chain for its stationary
// distribution and returns Σ π_i over the five up states (Eq. 7). It should
// agree with Availability to machine precision (experiment E10).
func (p Params) AvailabilityNumeric() (float64, error) {
	c, err := p.Chain()
	if err != nil {
		return 0, err
	}
	pi, err := c.SteadyState()
	if err != nil {
		return 0, err
	}
	return 1 - pi[StateR] - pi[StateF], nil
}

// BaselineAvailability returns the steady-state availability of the
// two-state (up/down) reference system without PFM, using the same failure
// and repair rates (the comparison system of Eq. 14).
func (p Params) BaselineAvailability() (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	return p.RepairRate / (p.RepairRate + p.FailureRate), nil
}

// UnavailabilityRatio returns (1 − A_PFM)/(1 − A), Eq. 14. Values below one
// mean PFM reduced unavailability; the paper's example yields ≈ 0.488.
func (p Params) UnavailabilityRatio() (float64, error) {
	apfm, err := p.Availability()
	if err != nil {
		return 0, err
	}
	a, err := p.BaselineAvailability()
	if err != nil {
		return 0, err
	}
	return (1 - apfm) / (1 - a), nil
}
