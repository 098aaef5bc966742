package pfmmodel

import (
	"fmt"
	"math"

	"repro/internal/ctmc"
)

// ReliabilityModel returns the phase-type distribution of the first passage
// from S0 into a down state. Per Sect. 5.4, the chain is simplified: the
// two down states are merged into one absorbing state and the repair
// transitions are removed; the initial distribution α = [1 0 0 0 0]
// (Eq. 13).
func (p Params) ReliabilityModel() (*ctmc.PhaseType, error) {
	r, err := p.PredictionRates()
	if err != nil {
		return nil, err
	}
	c := ctmc.New("S0", "S_TP", "S_FP", "S_TN", "S_FN", "down")
	const down = 5
	type arc struct {
		from, to int
		rate     float64
	}
	arcs := []arc{
		{StateUp, StateTP, r.TP},
		{StateUp, StateFP, r.FP},
		{StateUp, StateTN, r.TN},
		{StateUp, StateFN, r.FN},
		{StateTP, down, p.ActionRate * p.PTP},
		{StateTP, StateUp, p.ActionRate * (1 - p.PTP)},
		{StateFP, down, p.ActionRate * p.PFP},
		{StateFP, StateUp, p.ActionRate * (1 - p.PFP)},
		{StateTN, down, p.ActionRate * p.PTN},
		{StateTN, StateUp, p.ActionRate * (1 - p.PTN)},
		{StateFN, down, p.ActionRate},
	}
	for _, a := range arcs {
		if a.rate == 0 {
			continue
		}
		if err := c.SetRate(a.from, a.to, a.rate); err != nil {
			return nil, err
		}
	}
	alpha := make([]float64, 6)
	alpha[StateUp] = 1
	return ctmc.AbsorbingFrom(c, []int{down}, alpha)
}

// Reliability returns R(t) with PFM (Eq. 9).
func (p Params) Reliability(t float64) (float64, error) {
	m, err := p.ReliabilityModel()
	if err != nil {
		return 0, err
	}
	return m.Survival(t)
}

// BaselineReliability returns R(t) = exp(−λ_F·t) of the system without PFM.
func (p Params) BaselineReliability(t float64) float64 {
	return math.Exp(-p.FailureRate * t)
}

// BaselineHazard returns the constant hazard rate λ_F without PFM.
func (p Params) BaselineHazard() float64 { return p.FailureRate }

// MTTF returns the mean time to failure with PFM (mean of the phase-type
// first-passage distribution).
func (p Params) MTTF() (float64, error) {
	m, err := p.ReliabilityModel()
	if err != nil {
		return 0, err
	}
	return m.Mean()
}

// CurvePoint is one sample of a with/without-PFM comparison curve.
type CurvePoint struct {
	T           float64 // time [s]
	WithPFM     float64
	WithoutPFM  float64
	Improvement float64 // WithPFM − WithoutPFM (reliability) or ratio (hazard)
}

// ReliabilityCurve samples R(t) with and without PFM at n+1 evenly spaced
// points on [0, tMax] (Fig. 10(a)).
func (p Params) ReliabilityCurve(tMax float64, n int) ([]CurvePoint, error) {
	if n < 1 || tMax <= 0 {
		return nil, fmt.Errorf("%w: curve needs tMax > 0 and n ≥ 1", ErrParams)
	}
	m, err := p.ReliabilityModel()
	if err != nil {
		return nil, err
	}
	pts := make([]CurvePoint, n+1)
	for i := 0; i <= n; i++ {
		t := tMax * float64(i) / float64(n)
		with, err := m.Survival(t)
		if err != nil {
			return nil, err
		}
		without := p.BaselineReliability(t)
		pts[i] = CurvePoint{T: t, WithPFM: with, WithoutPFM: without, Improvement: with - without}
	}
	return pts, nil
}

// HazardCurve samples h(t) with and without PFM at n+1 evenly spaced points
// on [0, tMax] (Fig. 10(b)). Improvement is the ratio without/with (> 1
// means PFM lowered the hazard).
func (p Params) HazardCurve(tMax float64, n int) ([]CurvePoint, error) {
	if n < 1 || tMax <= 0 {
		return nil, fmt.Errorf("%w: curve needs tMax > 0 and n ≥ 1", ErrParams)
	}
	m, err := p.ReliabilityModel()
	if err != nil {
		return nil, err
	}
	pts := make([]CurvePoint, n+1)
	for i := 0; i <= n; i++ {
		t := tMax * float64(i) / float64(n)
		with, err := m.Hazard(t)
		if err != nil {
			return nil, err
		}
		without := p.BaselineHazard()
		ratio := math.Inf(1)
		if with > 0 {
			ratio = without / with
		}
		pts[i] = CurvePoint{T: t, WithPFM: with, WithoutPFM: without, Improvement: ratio}
	}
	return pts, nil
}
