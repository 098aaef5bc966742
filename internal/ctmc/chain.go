// Package ctmc implements continuous-time Markov chains: generator
// matrices, steady-state solutions, absorbing-chain analysis and phase-type
// distributions. It is the engine behind the paper's Section 5
// availability/reliability model (Fig. 9, Eqs. 7–13).
package ctmc

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// ErrChain is wrapped by all chain-construction and solver errors.
var ErrChain = errors.New("ctmc: invalid chain")

// Chain is a finite-state CTMC described by its infinitesimal generator.
// Off-diagonal entries are transition rates; diagonal entries are maintained
// as the negated row sums.
type Chain struct {
	names []string
	q     *mat.Matrix
}

// New returns a chain with one state per name and no transitions.
func New(names ...string) *Chain {
	if len(names) == 0 {
		panic("ctmc: chain needs at least one state")
	}
	return &Chain{
		names: append([]string(nil), names...),
		q:     mat.New(len(names), len(names)),
	}
}

// NumStates returns the number of states.
func (c *Chain) NumStates() int { return len(c.names) }

// StateName returns the name of state i.
func (c *Chain) StateName(i int) string { return c.names[i] }

// SetRate sets the transition rate from state i to state j (i ≠ j) and
// rebalances the diagonal so rows keep summing to zero.
func (c *Chain) SetRate(i, j int, rate float64) error {
	n := c.NumStates()
	if i < 0 || i >= n || j < 0 || j >= n {
		return fmt.Errorf("%w: state index out of range (%d,%d)", ErrChain, i, j)
	}
	if i == j {
		return fmt.Errorf("%w: cannot set diagonal rate (%d,%d)", ErrChain, i, j)
	}
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("%w: rate %g from %q to %q", ErrChain, rate, c.names[i], c.names[j])
	}
	old := c.q.At(i, j)
	c.q.Set(i, j, rate)
	c.q.Add(i, i, old-rate)
	return nil
}

// Rate returns the transition rate from state i to state j.
func (c *Chain) Rate(i, j int) float64 { return c.q.At(i, j) }

// SteadyState returns the stationary distribution π with πQ = 0, Σπ = 1.
// The chain must be irreducible over the states that carry probability;
// a singular system (e.g. absorbing chains) returns an error.
func (c *Chain) SteadyState() ([]float64, error) {
	n := c.NumStates()
	// Solve Qᵀ π = 0 with the last balance equation replaced by Σπ = 1.
	a := c.q.Transpose()
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b := make([]float64, n)
	b[n-1] = 1
	pi, err := mat.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("%w: steady state: %v", ErrChain, err)
	}
	for i, p := range pi {
		if p < -1e-9 {
			return nil, fmt.Errorf("%w: negative steady-state probability %g in state %q", ErrChain, p, c.names[i])
		}
		if p < 0 {
			pi[i] = 0
		}
	}
	return mat.Normalize(pi), nil
}
