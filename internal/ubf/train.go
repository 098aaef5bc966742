package ubf

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/stats"
)

// TrainConfig controls UBF training.
type TrainConfig struct {
	// NumKernels is the number of basis functions (default 8).
	NumKernels int
	// Candidates is the number of random kernel configurations tried
	// (default 20).
	Candidates int
	// Refinements is the number of local perturbation rounds applied to
	// the best candidate (default 10).
	Refinements int
	// Ridge is the output-weight regularization (default 1e-4).
	Ridge float64
	// Seed drives all randomness.
	Seed int64
	// PureRBF forces Mix = 1 (plain radial basis functions) — the
	// ablation baseline for the mixed-kernel design (DESIGN.md).
	PureRBF bool
}

// withDefaults fills zero fields.
func (c TrainConfig) withDefaults() TrainConfig {
	if c.NumKernels == 0 {
		c.NumKernels = 8
	}
	if c.Candidates == 0 {
		c.Candidates = 20
	}
	if c.Refinements == 0 {
		c.Refinements = 10
	}
	if c.Ridge == 0 {
		c.Ridge = 1e-4
	}
	return c
}

// validate rejects unusable configurations.
func (c TrainConfig) validate() error {
	if c.NumKernels < 1 || c.Candidates < 1 || c.Refinements < 0 {
		return fmt.Errorf("%w: kernels=%d candidates=%d refinements=%d",
			ErrUBF, c.NumKernels, c.Candidates, c.Refinements)
	}
	if c.Ridge < 0 || math.IsNaN(c.Ridge) {
		return fmt.Errorf("%w: ridge %g", ErrUBF, c.Ridge)
	}
	return nil
}

// Train fits a UBF network to the regression targets y (one per row of x).
// Kernel parameters are found by randomized search (candidates) followed by
// local refinement; output weights by ridge least squares at every step.
func Train(x *mat.Matrix, y []float64, cfg TrainConfig) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if x.Rows != len(y) {
		return nil, fmt.Errorf("%w: %d rows vs %d targets", ErrUBF, x.Rows, len(y))
	}
	if x.Rows < 2 {
		return nil, fmt.Errorf("%w: need ≥ 2 training rows", ErrUBF)
	}
	g := stats.NewRNG(cfg.Seed)
	scale := widthScale(x)

	// Random candidates are independent, so they follow the repo's parallel
	// determinism contract: one RNG stream per candidate, split in index
	// order before the fan-out; each worker writes only its own slot; the
	// best is chosen by a fixed-order scan. The result is bit-identical at
	// any worker count.
	streams := make([]*stats.RNG, cfg.Candidates)
	for c := range streams {
		streams[c] = g.Split(int64(c))
	}
	// Every try fits the same shape, so each worker fits in one trySpace
	// of its own.
	space := func() *trySpace { return newTrySpace(x.Rows, cfg.NumKernels+1) }
	nets := make([]*Network, cfg.Candidates)
	errs := make([]float64, cfg.Candidates)
	par.ForScratch(0, cfg.Candidates, space, func(sp *trySpace, c int) {
		nets[c], errs[c] = tryKernels(randomKernels(cfg, x, scale, streams[c]), x, y, cfg.Ridge, sp)
	})
	var best *Network
	bestErr := math.Inf(1)
	for c := range nets {
		if nets[c] != nil && errs[c] < bestErr {
			best, bestErr = nets[c], errs[c]
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: no candidate configuration was solvable", ErrUBF)
	}
	// Refinement is inherently serial — each round perturbs the incumbent —
	// but every round draws from its own pre-split stream.
	sp := space()
	for r := 0; r < cfg.Refinements; r++ {
		rg := g.Split(int64(cfg.Candidates + r))
		if net, e := tryKernels(perturbKernels(best.Kernels, scale, cfg, rg), x, y, cfg.Ridge, sp); net != nil && e < bestErr {
			best, bestErr = net, e
		}
	}
	return best, nil
}

// tryKernels fits output weights for a kernel configuration — the design
// matrix is built through the flattened kernel bank, which the returned
// network keeps for its own evaluation paths — and returns the network with
// its training MSE, or (nil, +Inf) if the fit is unsolvable. Φ and the
// normal equations live in sp, which the caller reuses across tries: the
// network keeps the kernels, the bank and the weights, never Φ.
func tryKernels(kernels []Kernel, x *mat.Matrix, y []float64, ridge float64, sp *trySpace) (*Network, float64) {
	es := newEvalSet(kernels, x.Cols)
	es.designInto(x, sp.phi.Data)
	w, err := sp.ls.Solve(sp.phi, y, ridge)
	if err != nil {
		return nil, math.Inf(1)
	}
	return &Network{Kernels: kernels, Weights: w, dim: x.Cols, eval: es}, designMSE(sp.phi, w, y)
}

// trySpace is one worker's storage for tryKernels over rows×cols design
// matrices (cols = kernels + 1): Φ, which designInto overwrites whole, and
// the least-squares solver's normal equations.
type trySpace struct {
	phi *mat.Matrix
	ls  *mat.LeastSquares
}

// newTrySpace allocates all of a trySpace up front.
func newTrySpace(rows, cols int) *trySpace {
	return &trySpace{phi: mat.New(rows, cols), ls: mat.NewLeastSquares(cols)}
}

// designMSE is the training MSE of weights w on the design matrix Φ, read
// off the matrix the fit already paid for: each prediction sums Φ[r,j]·w[j]
// from 0 in column order, w₀·1 first — evalSet.predict's accumulation
// order — so it is the MSE of net.PredictRows(x) to the bit without
// evaluating the bank a second time (TestTryKernelsMSEIsPredictRowsMSE).
func designMSE(phi *mat.Matrix, w, y []float64) float64 {
	s := 0.0
	for r, target := range y {
		p := 0.0
		for j, v := range phi.RowView(r) {
			p += v * w[j]
		}
		d := p - target
		s += d * d
	}
	return s / float64(len(y))
}

// widthScale estimates a characteristic length scale of the data: the mean
// per-column standard deviation (≥ a small floor).
func widthScale(x *mat.Matrix) float64 {
	total := 0.0
	for c := 0; c < x.Cols; c++ {
		sd := stats.StdDev(x.Col(c))
		if math.IsNaN(sd) {
			sd = 0
		}
		total += sd
	}
	scale := total / float64(x.Cols)
	if scale < 1e-3 {
		scale = 1e-3
	}
	return scale
}

// randomKernels draws a kernel configuration: centers at random training
// rows, widths around the data scale, random mixtures and directions.
func randomKernels(cfg TrainConfig, x *mat.Matrix, scale float64, g *stats.RNG) []Kernel {
	kernels := make([]Kernel, cfg.NumKernels)
	for i := range kernels {
		center := x.Row(g.Intn(x.Rows))
		kernels[i] = Kernel{
			Center: center,
			Width:  scale * math.Exp(g.NormFloat64()*0.7),
			Mix:    mixFor(cfg, g.Float64()),
			Dir:    randomUnit(x.Cols, g),
		}
	}
	return kernels
}

// perturbKernels jitters a configuration for local refinement.
func perturbKernels(base []Kernel, scale float64, cfg TrainConfig, g *stats.RNG) []Kernel {
	out := make([]Kernel, len(base))
	for i, k := range base {
		c := mat.CloneVec(k.Center)
		for j := range c {
			c[j] += g.NormFloat64() * scale * 0.2
		}
		w := k.Width * math.Exp(g.NormFloat64()*0.2)
		m := k.Mix + g.NormFloat64()*0.1
		if m < 0 {
			m = 0
		}
		if m > 1 {
			m = 1
		}
		out[i] = Kernel{
			Center: c,
			Width:  w,
			Mix:    mixFor(cfg, m),
			Dir:    mat.CloneVec(k.Dir),
		}
	}
	return out
}

// mixFor clamps the mixture to 1 when the pure-RBF ablation is requested.
func mixFor(cfg TrainConfig, m float64) float64 {
	if cfg.PureRBF {
		return 1
	}
	return m
}

// randomUnit draws a uniformly random unit vector.
func randomUnit(dim int, g *stats.RNG) []float64 {
	v := make([]float64, dim)
	for {
		for i := range v {
			v[i] = g.NormFloat64()
		}
		if n := mat.Norm2(v); n > 1e-12 {
			return mat.ScaleVec(v, 1/n)
		}
	}
}
