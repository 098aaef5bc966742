package ubf

import (
	"math"

	"repro/internal/mat"
)

// evalSet is the evaluation-ready form of a kernel bank. Kernel holds its
// parameters the way the paper states them (center, width, mixture,
// direction), which is the right shape for search and serialization but a
// poor one for the inner loops: evaluating K kernels over N rows through
// []Kernel chases K slice headers per row and redoes the 1/(2w²) and u/w
// arithmetic every call. evalSet flattens the bank once — contiguous
// center and direction matrices (directions pre-scaled by 1/w) plus the
// per-kernel Gaussian exponent factor — so batch evaluation is a single
// fused pass per row with no per-call allocation.
type evalSet struct {
	dim, k  int
	centers []float64 // k×dim, row-major
	dirs    []float64 // k×dim, row-major, pre-scaled by 1/w
	inv2w2  []float64 // per kernel: 1/(2w²)
	mix     []float64 // per kernel: m
}

// newEvalSet flattens kernels for evaluation in dimension dim.
func newEvalSet(kernels []Kernel, dim int) *evalSet {
	k := len(kernels)
	es := &evalSet{
		dim:     dim,
		k:       k,
		centers: make([]float64, k*dim),
		dirs:    make([]float64, k*dim),
		inv2w2:  make([]float64, k),
		mix:     make([]float64, k),
	}
	for i, kn := range kernels {
		copy(es.centers[i*dim:], kn.Center)
		invW := 1 / kn.Width
		for j, u := range kn.Dir {
			es.dirs[i*dim+j] = u * invW
		}
		es.inv2w2[i] = 1 / (2 * kn.Width * kn.Width)
		es.mix[i] = kn.Mix
	}
	return es
}

// kernelsInto writes k₁(x)…k_K(x) into dst[:k]. The squared distance and
// the sigmoid projection share one pass over the coordinates.
func (es *evalSet) kernelsInto(x, dst []float64) {
	for i := 0; i < es.k; i++ {
		// Rows resliced to len(x): the loop indexes them unchecked.
		off := i * es.dim
		c, u := es.centers[off:off+len(x)], es.dirs[off:off+len(x)]
		d2, z := 0.0, 0.0
		for j, xv := range x {
			d := xv - c[j]
			d2 += d * d
			z += u[j] * d
		}
		m := es.mix[i]
		v := 0.0
		if m > 0 {
			v = m * math.Exp(-d2*es.inv2w2[i])
		}
		if m < 1 {
			v += (1 - m) / (1 + math.Exp(-z))
		}
		dst[i] = v
	}
}

// predict returns w₀ + Σᵢ wᵢ·kᵢ(x) without scratch: kernel values are
// folded into the accumulator as they are produced.
func (es *evalSet) predict(x, weights []float64) float64 {
	y := weights[0]
	for i := 0; i < es.k; i++ {
		off := i * es.dim
		d2, z := 0.0, 0.0
		for j, xv := range x {
			d := xv - es.centers[off+j]
			d2 += d * d
			z += es.dirs[off+j] * d
		}
		m := es.mix[i]
		v := 0.0
		if m > 0 {
			v = m * math.Exp(-d2*es.inv2w2[i])
		}
		if m < 1 {
			v += (1 - m) / (1 + math.Exp(-z))
		}
		y += weights[i+1] * v
	}
	return y
}

// designInto fills dst with the design-matrix rows [1, k₁(x_r), …, k_K(x_r)]
// for every row r of x; dst must have length x.Rows·(k+1).
func (es *evalSet) designInto(x *mat.Matrix, dst []float64) {
	stride := es.k + 1
	for r := 0; r < x.Rows; r++ {
		row := dst[r*stride : (r+1)*stride]
		row[0] = 1
		es.kernelsInto(x.RowView(r), row[1:])
	}
}

// predictInto fills out[r] with the network output on row r of x.
func (es *evalSet) predictInto(x *mat.Matrix, weights, out []float64) {
	for r := 0; r < x.Rows; r++ {
		out[r] = es.predict(x.RowView(r), weights)
	}
}
