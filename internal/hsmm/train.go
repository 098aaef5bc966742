package hsmm

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/eventlog"
	"repro/internal/par"
	"repro/internal/stats"
)

// emissionFloor keeps emission probabilities bounded away from zero so
// unseen symbols at evaluation time cannot produce -Inf likelihoods.
const emissionFloor = 1e-6

// Fit trains a model on the given sequences with (generalized) EM:
// forward-backward responsibilities in the E step, through the hoisted
// lattices of forward.go and a ξ accumulation hoisted the same way (5n
// exponentials and 2n logarithms per event instead of 3n² + n and 2n);
// closed-form transition, emission and initial-distribution updates plus
// weighted-moment duration re-fits in the M step. It runs cfg.Restarts
// random initializations across a GOMAXPROCS-bounded worker pool and returns
// the model with the highest training log-likelihood.
//
// Determinism contract: restart RNG streams are split from cfg.Seed in
// restart order before any worker starts, every restart is independent, and
// the best-model scan runs in restart order — so a given seed produces the
// same model bit-for-bit regardless of scheduling. The E step inside each
// restart shards sequences into fixed contiguous blocks merged in block
// order (see em), so it is likewise schedule-independent; only changing
// GOMAXPROCS between runs can regroup the floating-point reductions.
func Fit(seqs []eventlog.Sequence, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var usable []eventlog.Sequence
	for _, s := range seqs {
		if s.Len() > 0 {
			usable = append(usable, s)
		}
	}
	if len(usable) == 0 {
		return nil, fmt.Errorf("%w: no non-empty training sequences", ErrModel)
	}
	alphabet, meanDelay := trainingAlphabet(usable)
	g := stats.NewRNG(cfg.Seed)
	// Pre-split the per-restart streams sequentially so the draw order —
	// and thus every initialization — matches the sequential
	// implementation exactly.
	rngs := make([]*stats.RNG, cfg.Restarts)
	for r := range rngs {
		rngs[r] = g.Split(int64(r))
	}
	models := make([]*Model, cfg.Restarts)
	lls := make([]float64, cfg.Restarts)
	errs := make([]error, cfg.Restarts)
	runRestart := func(r int) {
		model := newRandomModel(cfg, alphabet, meanDelay, rngs[r])
		lls[r], errs[r] = model.em(usable, cfg)
		models[r] = model
	}
	par.For(cfg.Restarts, runRestart)
	var best *Model
	bestLL := math.Inf(-1)
	for r := 0; r < cfg.Restarts; r++ {
		if errs[r] != nil {
			return nil, errs[r]
		}
		if lls[r] > bestLL {
			bestLL, best = lls[r], models[r]
		}
	}
	return best, nil
}

// trainingAlphabet collects the distinct event types and the mean delay.
func trainingAlphabet(seqs []eventlog.Sequence) ([]int, float64) {
	types := make(map[int]bool)
	var delaySum float64
	var delayN int
	for _, s := range seqs {
		for _, t := range s.Types {
			types[t] = true
		}
		for i := 1; i < len(s.Times); i++ {
			delaySum += s.Times[i] - s.Times[i-1]
			delayN++
		}
	}
	alphabet := make([]int, 0, len(types))
	for t := range types {
		alphabet = append(alphabet, t)
	}
	sort.Ints(alphabet)
	meanDelay := 1.0
	if delayN > 0 && delaySum > 0 {
		meanDelay = delaySum / float64(delayN)
	}
	return alphabet, meanDelay
}

// em iterates E/M steps until convergence and returns the final total
// log-likelihood. The E step fans sequences out across shard-local
// accumulators: shard s owns the s-th contiguous block of sequences,
// accumulates them in index order, and the shards are merged in shard
// order — a fixed-order reduction whose result does not depend on
// goroutine scheduling.
func (m *Model) em(seqs []eventlog.Sequence, cfg Config) (float64, error) {
	preps := m.prepareAll(seqs)
	totalEvents := 0
	for _, s := range seqs {
		totalEvents += s.Len()
	}
	shards := par.Workers(len(preps))
	accs := make([]*accumulator, shards)
	scratch := make([]*emScratch, shards)
	lls := make([]float64, shards)
	fails := make([]bool, shards)
	for s := range accs {
		accs[s] = newAccumulator(m.n, m.m)
		scratch[s] = &emScratch{
			tmp: make([]float64, m.n),
			row: make([]float64, m.n),
			w:   make([]float64, m.n),
		}
	}
	chunk := (len(preps) + shards - 1) / shards
	runShard := func(s int) {
		acc := accs[s]
		acc.reset()
		lls[s], fails[s] = 0, false
		hi := (s + 1) * chunk
		if hi > len(preps) {
			hi = len(preps)
		}
		for i := s * chunk; i < hi; i++ {
			seqLL := acc.accumulate(m, &preps[i], scratch[s])
			if math.IsNaN(seqLL) {
				fails[s] = true
				return
			}
			lls[s] += seqLL
		}
	}

	prevLL := math.Inf(-1)
	ll := prevLL
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if iter > 0 {
			// The M step moved the duration parameters: rebuild the tables.
			for i := range preps {
				preps[i].refreshDur(m)
			}
		}
		par.ForN(shards, shards, runShard)
		ll = 0
		for s := 0; s < shards; s++ {
			if fails[s] {
				return 0, fmt.Errorf("%w: NaN likelihood during EM", ErrModel)
			}
			ll += lls[s]
		}
		for s := 1; s < shards; s++ {
			accs[0].merge(accs[s])
		}
		m.applyMStep(accs[0])
		if iter > 0 && (ll-prevLL)/float64(totalEvents) < cfg.Tol {
			break
		}
		prevLL = ll
	}
	return ll, nil
}

// accumulator collects expected sufficient statistics across sequences.
// All buffers are preallocated once and reset between EM iterations — the
// duration statistics in particular are fixed-size weighted moments rather
// than per-observation append-grown slices.
type accumulator struct {
	pi []float64 // n: expected initial-state counts
	a  []float64 // n×n flat: expected transition counts
	b  []float64 // n×m flat: expected emission counts
	// Per-state duration sufficient statistics over minDelay-clamped
	// delays: total posterior weight, Σ w·log dt, Σ w·(log dt)², Σ w·dt.
	durW, durWLog, durWLog2, durWDt []float64
}

func newAccumulator(n, m int) *accumulator {
	return &accumulator{
		pi:       make([]float64, n),
		a:        make([]float64, n*n),
		b:        make([]float64, n*m),
		durW:     make([]float64, n),
		durWLog:  make([]float64, n),
		durWLog2: make([]float64, n),
		durWDt:   make([]float64, n),
	}
}

// reset zeroes the accumulator for reuse in the next iteration.
func (acc *accumulator) reset() {
	for _, buf := range [][]float64{acc.pi, acc.a, acc.b, acc.durW, acc.durWLog, acc.durWLog2, acc.durWDt} {
		for i := range buf {
			buf[i] = 0
		}
	}
}

// merge adds o's statistics element-wise.
func (acc *accumulator) merge(o *accumulator) {
	pairs := [][2][]float64{
		{acc.pi, o.pi}, {acc.a, o.a}, {acc.b, o.b},
		{acc.durW, o.durW}, {acc.durWLog, o.durWLog},
		{acc.durWLog2, o.durWLog2}, {acc.durWDt, o.durWDt},
	}
	for _, p := range pairs {
		for i, v := range p[1] {
			p[0][i] += v
		}
	}
}

// xiHoistMax is the largest exp(base_i + mw) a hoisted ξ row is formed
// with. ξ ≤ 1 bounds it by 1/A_ij toward the successor that sets mw, so a
// larger one means state i reaches that successor only through a vanishing
// or hard-zero transition, and the successors it does reach may lie below
// what exp(w_j − mw) represents (or the product be Inf·0): that row is
// summed cell by cell in log space. Below the bound a cell the hoisted
// product loses is below 1e-290.
const xiHoistMax = 1e15

// emScratch is one shard's reusable forward-backward workspace; the
// lattices grow to the largest sequence in the shard and stay there.
type emScratch struct {
	alpha, beta []float64 // k×n lattices
	tmp, row, w []float64 // n-sized kernel scratch
}

// accumulate runs forward-backward on one prepared sequence, adds its
// expected statistics, and returns its log-likelihood.
func (acc *accumulator) accumulate(m *Model, p *prepared, s *emScratch) float64 {
	n, k := m.n, len(p.obs)
	s.alpha = growF64(s.alpha, k*n)
	s.beta = growF64(s.beta, k*n)
	m.forwardInto(p, s.alpha, s.tmp, s.row)
	m.backwardInto(p, s.beta, s.w, s.row)
	ll := stats.LogSumExpSlice(s.alpha[(k-1)*n:])
	if math.IsInf(ll, -1) {
		return ll
	}
	withDur := m.family != FamilyNone
	// State posteriors γ.
	for t := 0; t < k; t++ {
		arow := s.alpha[t*n : (t+1)*n]
		brow := s.beta[t*n : (t+1)*n]
		o := p.obs[t]
		for i := 0; i < n; i++ {
			g := math.Exp(arow[i] + brow[i] - ll)
			if t == 0 {
				acc.pi[i] += g
			}
			acc.b[i*m.m+o] += g
			if withDur && t < k-1 {
				ld := p.logDel[t+1]
				dt := p.delays[t+1]
				if dt < minDelay {
					dt = minDelay
				}
				acc.durW[i] += g
				acc.durWLog[i] += g * ld
				acc.durWLog2[i] += g * ld * ld
				acc.durWDt[i] += g * dt
			}
		}
	}
	// Transition posteriors ξ_t(i,j) = exp(base_i + logA_ij + w_j), hoisted
	// like the lattices: exp(base_i + mw)·A_ij·exp(w_j − mw) with
	// mw = max_j w_j, 2n exponentials a step instead of n². A finite ll
	// leaves some successor with mass at every step, so mw is finite.
	for t := 0; t < k-1; t++ {
		o := p.obs[t+1]
		next := s.beta[(t+1)*n : (t+2)*n]
		// Successor emission + continuation − normalizer, shared across i.
		for j := 0; j < n; j++ {
			s.w[j] = m.logBf[j*m.m+o] + next[j] - ll
		}
		mw := shiftedExp(s.row, s.w)
		arow := s.alpha[t*n : (t+1)*n]
		for i := 0; i < n; i++ {
			base := arow[i] + p.durLP[i*k+t+1]
			accA := acc.a[i*n : (i+1)*n]
			eb := math.Exp(base + mw)
			if eb > xiHoistMax {
				ai := m.logAf[i*n : (i+1)*n]
				for j := 0; j < n; j++ {
					accA[j] += math.Exp(base + ai[j] + s.w[j])
				}
				continue
			}
			ai := m.af[i*n : (i+1)*n]
			for j, e := range s.row {
				accA[j] += eb * ai[j] * e
			}
		}
	}
	return ll
}

// applyMStep re-estimates all parameters from the accumulated statistics,
// flooring probabilities to keep the model usable on unseen data, and
// refreshes the flat kernel caches.
func (m *Model) applyMStep(acc *accumulator) {
	floorNormalizeToLogInto(m.logPi, acc.pi)
	for i := 0; i < m.n; i++ {
		floorNormalizeToLogInto(m.logA[i], acc.a[i*m.n:(i+1)*m.n])
		floorNormalizeToLogInto(m.logB[i], acc.b[i*m.m:(i+1)*m.m])
		m.dur[i].fitMoments(acc.durW[i], acc.durWLog[i], acc.durWLog2[i], acc.durWDt[i])
	}
	m.refreshKernel()
}

// floorNormalizeToLogInto normalizes non-negative weights to probabilities
// with an additive floor, writing log-probabilities into dst
// (len(dst) == len(w)). All-zero weights fall back to uniform.
func floorNormalizeToLogInto(dst, w []float64) {
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if sum <= 0 {
		// No evidence at all: fall back to uniform.
		u := -math.Log(float64(len(w)))
		for i := range dst {
			dst[i] = u
		}
		return
	}
	floorTotal := emissionFloor * float64(len(w))
	for i, v := range w {
		dst[i] = math.Log((v/sum + emissionFloor) / (1 + floorTotal))
	}
}
