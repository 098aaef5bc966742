// Package ubf implements the paper's Universal Basis Functions failure
// predictor (Sect. 3.2): function approximation over monitored system
// variables with mixed kernels
//
//	k_i(x) = m_i·γ(x; λγ_i) + (1−m_i)·δ(x; λδ_i)        (Eq. 1)
//
// where γ is a Gaussian and δ a sigmoid kernel. By optimizing the mixture
// weight m_i along with the kernel parameters, a UBF network models peaked,
// stepping, or mixed behaviour in different regions of the input space.
// Output-layer weights are fitted by regularized least squares; kernel
// parameters by randomized search with local refinement.
//
// The package also provides the Probabilistic Wrapper Approach (PWA) for
// variable selection, combining forward selection and backward elimination
// in a probabilistic framework, plus both classic strategies for the E8
// comparison experiment.
package ubf

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// ErrUBF is wrapped by all package errors.
var ErrUBF = errors.New("ubf: invalid operation")

// Kernel is one universal basis function (Eq. 1): a convex mixture of a
// Gaussian kernel γ and a sigmoid kernel δ sharing the center.
type Kernel struct {
	Center []float64 // kernel location λ.c
	Width  float64   // length scale λ.w > 0
	Mix    float64   // m ∈ [0,1]: 1 = pure Gaussian, 0 = pure sigmoid
	Dir    []float64 // sigmoid direction (unit vector)
}

// maxMagnitude bounds every kernel parameter: Center and Dir coordinates
// lie within ±maxMagnitude and Width within [1/maxMagnitude, maxMagnitude].
// Inside it, a window whose coordinates lie within ±maxMagnitude meets no
// ∞−∞ and no 0·∞ on its way through the kernels, so it never scores NaN.
// Training stays far inside (centers are data points, widths a data scale,
// directions unit vectors).
const maxMagnitude = 1e100

// Validate checks the kernel parameters; an error names the one at fault.
func (k Kernel) Validate(dim int) error {
	if len(k.Center) != dim || len(k.Dir) != dim {
		return fmt.Errorf("%w: Center has %d coordinates and Dir %d, want dim %d", ErrUBF, len(k.Center), len(k.Dir), dim)
	}
	if !(k.Width >= 1/maxMagnitude && k.Width <= maxMagnitude) {
		return fmt.Errorf("%w: Width %g, want in [%g, %g]", ErrUBF, k.Width, 1/maxMagnitude, maxMagnitude)
	}
	if !(k.Mix >= 0 && k.Mix <= 1) {
		return fmt.Errorf("%w: Mix %g, want in [0, 1]", ErrUBF, k.Mix)
	}
	for _, c := range []struct {
		name string
		v    []float64
	}{{"Center", k.Center}, {"Dir", k.Dir}} {
		for j, x := range c.v {
			if !(math.Abs(x) <= maxMagnitude) {
				return fmt.Errorf("%w: %s[%d] %g, want within ±%g", ErrUBF, c.name, j, x, maxMagnitude)
			}
		}
	}
	return nil
}

// Eval returns k(x) = m·γ(x) + (1−m)·δ(x).
func (k Kernel) Eval(x []float64) float64 {
	g := 0.0
	if k.Mix > 0 {
		g = k.gaussian(x)
	}
	s := 0.0
	if k.Mix < 1 {
		s = k.sigmoid(x)
	}
	return k.Mix*g + (1-k.Mix)*s
}

// gaussian is γ(x) = exp(−‖x−c‖² / (2w²)).
func (k Kernel) gaussian(x []float64) float64 {
	d2 := 0.0
	for i, c := range k.Center {
		d := x[i] - c
		d2 += d * d
	}
	return math.Exp(-d2 / (2 * k.Width * k.Width))
}

// sigmoid is δ(x) = 1 / (1 + exp(−u·(x−c)/w)).
func (k Kernel) sigmoid(x []float64) float64 {
	z := 0.0
	for i, c := range k.Center {
		z += k.Dir[i] * (x[i] - c)
	}
	return 1 / (1 + math.Exp(-z/k.Width))
}

// Network is a trained UBF network: f(x) = w₀ + Σᵢ wᵢ·kᵢ(x).
type Network struct {
	Kernels []Kernel
	Weights []float64 // len(Kernels)+1; Weights[0] is the bias
	dim     int
	// eval is the flattened kernel bank every evaluation path runs through.
	// Training and deserialization build it eagerly; the lazy fallback in
	// flat() only serves in-package literals and is not safe for concurrent
	// first use.
	eval *evalSet
}

// Dim returns the expected input dimension.
func (n *Network) Dim() int { return n.dim }

// flat returns the flattened kernel bank, building it on first use.
func (n *Network) flat() *evalSet {
	if n.eval == nil {
		n.eval = newEvalSet(n.Kernels, n.dim)
	}
	return n.eval
}

// Predict evaluates the network at x.
func (n *Network) Predict(x []float64) (float64, error) {
	if len(x) != n.dim {
		return 0, fmt.Errorf("%w: input dim %d, want %d", ErrUBF, len(x), n.dim)
	}
	return n.flat().predict(x, n.Weights), nil
}

// PredictRows evaluates the network on every row of m.
func (n *Network) PredictRows(m *mat.Matrix) ([]float64, error) {
	out := make([]float64, m.Rows)
	if err := n.PredictRowsInto(m, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictRowsInto evaluates the network on every row of m into out
// (len m.Rows) without allocating.
func (n *Network) PredictRowsInto(m *mat.Matrix, out []float64) error {
	if m.Cols != n.dim {
		return fmt.Errorf("%w: matrix has %d columns, want %d", ErrUBF, m.Cols, n.dim)
	}
	if len(out) != m.Rows {
		return fmt.Errorf("%w: out has %d slots for %d rows", ErrUBF, len(out), m.Rows)
	}
	n.flat().predictInto(m, n.Weights, out)
	return nil
}

// EvalAll fills dst with the design-matrix rows [1, k₁(x_r), …, k_K(x_r)]
// for every row r of m. dst must have length m.Rows·(len(Kernels)+1). This
// is the batched kernel under training, cross-validation, and scoring; it
// performs no allocation.
func (n *Network) EvalAll(m *mat.Matrix, dst []float64) error {
	if m.Cols != n.dim {
		return fmt.Errorf("%w: matrix has %d columns, want %d", ErrUBF, m.Cols, n.dim)
	}
	if want := m.Rows * (len(n.Kernels) + 1); len(dst) != want {
		return fmt.Errorf("%w: dst has %d slots, want %d", ErrUBF, len(dst), want)
	}
	n.flat().designInto(m, dst)
	return nil
}
