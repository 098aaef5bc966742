package baseline

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// MSET is the Multivariate State Estimation Technique (Singer, Gross et
// al. [68]) — the paper's named example of symptom-monitoring failure
// prediction. A memory matrix D of representative healthy observations
// defines the normal operating envelope; a new observation x is estimated
// as a similarity-weighted combination of memorized states,
//
//	x̂ = D·w,  w = (Dᵀ⊗D + γI)⁻¹ (Dᵀ⊗x),
//
// where ⊗ applies a nonlinear similarity kernel elementwise. The residual
// ‖x − x̂‖ is the failure-proneness score: healthy observations are
// reconstructed well, out-of-envelope states are not.
type MSET struct {
	memory    *mat.Matrix // n memorized states × m sensors (row per state)
	ginv      *mat.LU     // factorized similarity Gram matrix
	bandwidth float64
}

// MSETConfig controls training.
type MSETConfig struct {
	// MemorySize is the number of memorized states (default 40).
	MemorySize int
	// Bandwidth is the similarity kernel length scale; zero auto-scales
	// to the mean inter-state distance.
	Bandwidth float64
	// Ridge regularizes the Gram inversion (default 1e-6).
	Ridge float64
}

func (c MSETConfig) withDefaults() MSETConfig {
	if c.MemorySize == 0 {
		c.MemorySize = 40
	}
	if c.Ridge == 0 {
		c.Ridge = 1e-6
	}
	return c
}

// TrainMSET builds the memory matrix from healthy observations (rows of
// healthy) using the classic min-max selection: for each sensor the rows
// attaining its minimum and maximum are memorized, and the remaining slots
// are filled with evenly spaced rows.
func TrainMSET(healthy *mat.Matrix, cfg MSETConfig) (*MSET, error) {
	cfg = cfg.withDefaults()
	if healthy.Rows < 2 {
		return nil, fmt.Errorf("%w: MSET needs ≥ 2 healthy observations", ErrBaseline)
	}
	if cfg.MemorySize < 2 || cfg.Ridge < 0 || cfg.Bandwidth < 0 {
		return nil, fmt.Errorf("%w: MSET config %+v", ErrBaseline, cfg)
	}
	selected := selectMemory(healthy, cfg.MemorySize)
	n := len(selected)
	memory := mat.New(n, healthy.Cols)
	for i, r := range selected {
		for c := 0; c < healthy.Cols; c++ {
			memory.Set(i, c, healthy.At(r, c))
		}
	}
	m := &MSET{memory: memory, bandwidth: cfg.Bandwidth}
	if m.bandwidth == 0 {
		m.bandwidth = meanPairwiseDistance(memory)
	}
	if m.bandwidth <= 0 {
		m.bandwidth = 1
	}
	// Gram matrix G[i][j] = s(dᵢ, dⱼ), regularized and factorized once.
	gram := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			gram.Set(i, j, m.similarity(memory.RowView(i), memory.RowView(j)))
		}
		gram.Add(i, i, cfg.Ridge)
	}
	f, err := mat.Factorize(gram)
	if err != nil {
		return nil, fmt.Errorf("%w: gram factorization: %v", ErrBaseline, err)
	}
	m.ginv = f
	return m, nil
}

// selectMemory returns the min-max rows plus evenly spaced fillers.
func selectMemory(healthy *mat.Matrix, size int) []int {
	chosen := make(map[int]bool)
	for c := 0; c < healthy.Cols; c++ {
		minR, maxR := 0, 0
		for r := 1; r < healthy.Rows; r++ {
			if healthy.At(r, c) < healthy.At(minR, c) {
				minR = r
			}
			if healthy.At(r, c) > healthy.At(maxR, c) {
				maxR = r
			}
		}
		chosen[minR] = true
		chosen[maxR] = true
	}
	if len(chosen) < size {
		step := float64(healthy.Rows) / float64(size)
		for i := 0; i < size && len(chosen) < size; i++ {
			chosen[int(float64(i)*step)] = true
		}
	}
	out := make([]int, 0, len(chosen))
	for r := range chosen {
		out = append(out, r)
	}
	// Deterministic order.
	sortInts(out)
	if len(out) > size {
		out = out[:size]
	}
	return out
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// meanPairwiseDistance estimates the data scale from adjacent memory rows.
func meanPairwiseDistance(memory *mat.Matrix) float64 {
	total, n := 0.0, 0
	for i := 1; i < memory.Rows; i++ {
		total += distance(memory.RowView(i), memory.RowView(i-1))
		n++
	}
	if n == 0 {
		return 1
	}
	return total / float64(n)
}

func distance(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// similarity is the nonlinear kernel s(a,b) = 1/(1 + ‖a−b‖/h).
func (m *MSET) similarity(a, b []float64) float64 {
	return 1 / (1 + distance(a, b)/m.bandwidth)
}

// MSETScratch is one goroutine's working storage for MSET.Score: the
// similarity vector, the memory weights and the estimate. Make it with
// NewScratch; a scratch serves one Score call at a time.
type MSETScratch struct {
	sim, w, est []float64
}

// NewScratch returns storage for Score on this model, all of it allocated
// here, so Score itself allocates nothing.
func (m *MSET) NewScratch() *MSETScratch {
	return &MSETScratch{
		sim: make([]float64, m.memory.Rows),
		w:   make([]float64, m.memory.Rows),
		est: make([]float64, m.memory.Cols),
	}
}

// estimate reconstructs x from the memorized states into s.est.
func (m *MSET) estimate(x []float64, s *MSETScratch) ([]float64, error) {
	if len(x) != m.memory.Cols {
		return nil, fmt.Errorf("%w: MSET input dim %d, want %d", ErrBaseline, len(x), m.memory.Cols)
	}
	for i := range s.sim {
		s.sim[i] = m.similarity(m.memory.RowView(i), x)
	}
	if err := m.ginv.SolveVecInto(s.w, s.sim); err != nil {
		return nil, err
	}
	if err := m.memory.VecMulInto(s.est, s.w); err != nil {
		return nil, err
	}
	return s.est, nil
}

// Score returns the reconstruction residual ‖x − x̂‖ — higher means the
// observation sits further outside the healthy envelope. s is the caller's
// scratch (NewScratch); the score references none of it.
func (m *MSET) Score(x []float64, s *MSETScratch) (float64, error) {
	est, err := m.estimate(x, s)
	if err != nil {
		return 0, err
	}
	return distance(x, est), nil
}
