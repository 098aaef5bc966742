package ctmc

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// PhaseType is a continuous phase-type distribution: the time to absorption
// of a CTMC with transient sub-generator T and initial distribution alpha
// over the transient states (Eqs. 11–12 of the paper).
type PhaseType struct {
	alpha []float64
	t     *mat.Matrix
	exit  []float64 // t0 = -T·1, the absorption rate vector
}

// NewPhaseType validates and constructs a phase-type distribution. The
// sub-generator must have non-negative off-diagonals, non-positive
// diagonals, and row sums ≤ 0 (slack is the absorption rate).
func NewPhaseType(alpha []float64, t *mat.Matrix) (*PhaseType, error) {
	n := t.Rows
	if t.Cols != n {
		return nil, fmt.Errorf("%w: sub-generator is %dx%d", ErrChain, t.Rows, t.Cols)
	}
	if len(alpha) != n {
		return nil, fmt.Errorf("%w: alpha has length %d, want %d", ErrChain, len(alpha), n)
	}
	sum := 0.0
	for _, a := range alpha {
		if a < 0 {
			return nil, fmt.Errorf("%w: negative initial probability %g", ErrChain, a)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("%w: alpha sums to %g", ErrChain, sum)
	}
	exit := make([]float64, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			v := t.At(i, j)
			if i == j {
				if v > 1e-12 {
					return nil, fmt.Errorf("%w: positive diagonal %g at state %d", ErrChain, v, i)
				}
			} else if v < 0 {
				return nil, fmt.Errorf("%w: negative rate %g at (%d,%d)", ErrChain, v, i, j)
			}
			rowSum += v
		}
		if rowSum > 1e-9 {
			return nil, fmt.Errorf("%w: row %d of sub-generator sums to %g > 0", ErrChain, i, rowSum)
		}
		exit[i] = -rowSum
	}
	return &PhaseType{alpha: mat.CloneVec(alpha), t: t.Clone(), exit: exit}, nil
}

// AbsorbingFrom extracts the phase-type distribution of the first passage
// from the chain c into any of the absorbing states, starting from the
// distribution alphaFull over all states of c. Probability mass that
// alphaFull places on absorbing states is rejected.
func AbsorbingFrom(c *Chain, absorbing []int, alphaFull []float64) (*PhaseType, error) {
	n := c.NumStates()
	if len(alphaFull) != n {
		return nil, fmt.Errorf("%w: alpha has length %d, want %d", ErrChain, len(alphaFull), n)
	}
	isAbs := make(map[int]bool, len(absorbing))
	for _, a := range absorbing {
		if a < 0 || a >= n {
			return nil, fmt.Errorf("%w: absorbing state %d out of range", ErrChain, a)
		}
		isAbs[a] = true
	}
	if len(isAbs) == 0 || len(isAbs) == n {
		return nil, fmt.Errorf("%w: need a non-empty strict subset of absorbing states", ErrChain)
	}
	var transient []int
	for i := 0; i < n; i++ {
		if !isAbs[i] {
			transient = append(transient, i)
		} else if alphaFull[i] != 0 {
			return nil, fmt.Errorf("%w: initial probability %g on absorbing state %q", ErrChain, alphaFull[i], c.StateName(i))
		}
	}
	m := len(transient)
	sub := mat.New(m, m)
	alpha := make([]float64, m)
	for a, i := range transient {
		alpha[a] = alphaFull[i]
		for b, j := range transient {
			sub.Set(a, b, c.q.At(i, j))
		}
	}
	return NewPhaseType(alpha, sub)
}

// expAt returns alpha·exp(xT) for x ≥ 0.
func (p *PhaseType) expAt(x float64) ([]float64, error) {
	e, err := mat.Expm(p.t.Clone().Scale(x))
	if err != nil {
		return nil, err
	}
	return e.VecMul(p.alpha)
}

// CDF returns F(t) = 1 − α·exp(tT)·1 (Eq. 11).
func (p *PhaseType) CDF(t float64) (float64, error) {
	if t <= 0 {
		return 0, nil
	}
	v, err := p.expAt(t)
	if err != nil {
		return 0, err
	}
	f := 1 - mat.SumVec(v)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return f, nil
}

// Survival returns R(t) = 1 − F(t) (Eq. 9: reliability).
func (p *PhaseType) Survival(t float64) (float64, error) {
	f, err := p.CDF(t)
	if err != nil {
		return 0, err
	}
	return 1 - f, nil
}

// Hazard returns h(t) = f(t)/(1 − F(t)) (Eq. 10).
func (p *PhaseType) Hazard(t float64) (float64, error) {
	v, err := p.expAt(math.Max(t, 0))
	if err != nil {
		return 0, err
	}
	surv := mat.SumVec(v)
	if surv <= 0 {
		return math.Inf(1), nil
	}
	return mat.Dot(v, p.exit) / surv, nil
}

// Quantile returns the time t with F(t) = q, solved by bisection on the
// monotone CDF (Eq. 11). q must lie in (0, 1).
func (p *PhaseType) Quantile(q float64) (float64, error) {
	if math.IsNaN(q) || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("%w: quantile %g outside (0,1)", ErrChain, q)
	}
	mean, err := p.Mean()
	if err != nil {
		return 0, err
	}
	lo, hi := 0.0, math.Max(mean, 1e-12)
	for i := 0; i < 200; i++ {
		f, err := p.CDF(hi)
		if err != nil {
			return 0, err
		}
		if f >= q {
			break
		}
		lo, hi = hi, hi*2
	}
	for i := 0; i < 200 && hi-lo > 1e-12*math.Max(hi, 1); i++ {
		mid := lo + (hi-lo)/2
		f, err := p.CDF(mid)
		if err != nil {
			return 0, err
		}
		if f < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, nil
}

// Mean returns E[T] = −α·T⁻¹·1, the mean time to absorption.
func (p *PhaseType) Mean() (float64, error) {
	// Solve Tᵀ y = alpha, then mean = -Σ y.
	f, err := mat.Factorize(p.t.Transpose())
	if err != nil {
		return 0, fmt.Errorf("%w: mean: %v", ErrChain, err)
	}
	y, err := f.SolveVec(p.alpha)
	if err != nil {
		return 0, err
	}
	return -mat.SumVec(y), nil
}
