package hsmm

import (
	"math"
	"sync"

	"repro/internal/stats"
)

// The inference kernels below are allocation-free on the steady-state path:
// lattices are flat k×n row-major buffers held by the scorer (scoreSpace),
// the duration log-PDFs come from the prepared sequence's table (built once
// per model per window, or per EM iteration, instead of once per lattice
// cell), and transition and emission parameters are read from the model's
// flat caches.
//
// The forward and backward recursions hoist the exponentials out of the
// cell loop. A step's n cells all sum over the same n predecessor (or
// successor) scores x_i, so with mx = max_i x_i
//
//	LSE_i(x_i + logA_ij) = mx + log Σ_i exp(x_i − mx)·A_ij
//
// costs n exponentials and n logarithms a step over the linear-domain
// caches af/aT instead of n² + n over logAf/logAT. The largest
// exp(x_i − mx) is exactly 1, so a sum below hoistFloor means the
// predecessor that sets mx reaches this cell only through a vanishing (or
// hard-zero) transition, and whatever does reach it sits where
// exp(x_i − mx) has underflowed or lost its precision; such a cell is
// recomputed by logCell, in log space with its own maximum, which is what
// the naive reference does for every cell. Accuracy contract: every cell
// within 1e-9 of that reference, −Inf exactly where it is −Inf
// (TestOptimizedKernelsMatchReference). Floored models — everything Fit
// produces — never take the fallback.

// scoreSpace is all the storage scoring needs: one prepared sequence,
// whose delays both models of a classifier share and whose emission
// indices and duration table each model refills, and the lattice with its
// two scratch rows. Every scorer owns one: each ScoreAll worker
// (par.ForScratch, sized for the batch's longest sequence), a Predictor's
// EvaluateBatch, and, through spacePool, each Score or ScoreAllInto call.
type scoreSpace struct {
	p       prepared
	lattice []float64
}

// spacePool lends Score and ScoreAllInto a scoreSpace, once a call.
var spacePool = sync.Pool{New: func() any { return new(scoreSpace) }}

// newScoreSpace returns a scoreSpace that holds sequences of up to k events
// under models of up to n states without growing.
func newScoreSpace(k, n int) *scoreSpace {
	return &scoreSpace{
		p: prepared{
			obs:    make([]int, k),
			delays: make([]float64, k),
			logDel: make([]float64, k),
			durLP:  make([]float64, n*k),
		},
		lattice: make([]float64, k*n+2*n),
	}
}

// logLikelihood returns log P(sequence | m) for the sequence whose times
// s.p.setDelays last took and whose event types are types. A non-nil last
// carries m's forward row from one call to the next: on entry, when from
// > 0, its row at event from−1 of this sequence, where the forward pass
// then resumes; on return its row at the sequence's last event.
func (s *scoreSpace) logLikelihood(m *Model, types []int, from int, last []float64) float64 {
	s.p.setModel(m, types)
	n, k := m.n, len(types)
	s.lattice = growF64(s.lattice, k*n+2*n)
	alpha, tmp, row := s.lattice[:k*n], s.lattice[k*n:k*n+n], s.lattice[k*n+n:]
	if from > 0 {
		copy(alpha[(from-1)*n:from*n], last)
		m.forwardFrom(&s.p, from, alpha, tmp, row)
	} else {
		m.forwardInto(&s.p, alpha, tmp, row)
	}
	copy(last, alpha[(k-1)*n:])
	return stats.LogSumExpSlice(alpha[(k-1)*n:])
}

// hoistFloor is the smallest hoisted sum the lattices take a logarithm of.
// Above it the terms lost to underflow are below 1e-30 of the sum; below it
// (0 and NaN included) the cell goes through logCell.
const hoistFloor = 1e-290

// logCell returns LSE_i(x[i] + logA[i]): one lattice cell in log space,
// -Inf when no term carries mass.
func logCell(x, logA []float64) float64 {
	mx := math.Inf(-1)
	for i, v := range x {
		if c := v + logA[i]; c > mx {
			mx = c
		}
	}
	if math.IsInf(mx, -1) {
		return mx
	}
	s := 0.0
	for i, v := range x {
		s += math.Exp(v + logA[i] - mx)
	}
	return mx + math.Log(s)
}

// shiftedExp writes exp(x[i] − max(x)) into e and returns max(x). When
// every x[i] is -Inf the entries are NaN, which no hoisted sum accepts.
func shiftedExp(e, x []float64) float64 {
	mx := math.Inf(-1)
	for _, v := range x {
		if v > mx {
			mx = v
		}
	}
	for i, v := range x {
		e[i] = math.Exp(v - mx)
	}
	return mx
}

// forwardInto fills the k×n row-major forward lattice:
// alpha[t*n+j] = log P(o_1..o_t, s_t=j). tmp and row are n-sized scratch
// buffers owned by the caller.
func (m *Model) forwardInto(p *prepared, alpha, tmp, row []float64) {
	for j := 0; j < m.n; j++ {
		alpha[j] = m.logPi[j] + m.logBf[j*m.m+p.obs[0]]
	}
	m.forwardFrom(p, 1, alpha, tmp, row)
}

// forwardFrom fills the forward lattice's rows from t = from on, each from
// the row before it. A row depends only on that row and event t's delay
// and type, so a lattice resumed at a row another pass of the same
// prefix computed is bit for bit the one a full pass fills.
func (m *Model) forwardFrom(p *prepared, from int, alpha, tmp, row []float64) {
	n, k := m.n, len(p.obs)
	for t := from; t < k; t++ {
		prev := alpha[(t-1)*n : t*n]
		cur := alpha[t*n : (t+1)*n]
		// The duration term depends on (i, t) only: fold it into the
		// predecessor scores once per timestep instead of once per cell.
		for i := 0; i < n; i++ {
			tmp[i] = prev[i] + p.durLP[i*k+t]
		}
		mx := shiftedExp(row, tmp)
		o := p.obs[t]
		for j := 0; j < n; j++ {
			at := m.aT[j*n : (j+1)*n]
			s := 0.0
			for i, e := range row {
				s += e * at[i]
			}
			if s >= hoistFloor {
				cur[j] = mx + math.Log(s) + m.logBf[j*m.m+o]
			} else {
				cur[j] = logCell(tmp, m.logAT[j*n:(j+1)*n]) + m.logBf[j*m.m+o]
			}
		}
	}
}

// backwardInto fills the k×n row-major backward lattice:
// beta[t*n+i] = log P(o_{t+1}.. | s_t=i). w and row are n-sized scratch
// buffers owned by the caller.
func (m *Model) backwardInto(p *prepared, beta, w, row []float64) {
	n, k := m.n, len(p.obs)
	last := beta[(k-1)*n : k*n]
	for i := range last {
		last[i] = 0 // log 1
	}
	for t := k - 2; t >= 0; t-- {
		next := beta[(t+1)*n : (t+2)*n]
		cur := beta[t*n : (t+1)*n]
		o := p.obs[t+1]
		// Successor emission + continuation, shared across all i.
		for j := 0; j < n; j++ {
			w[j] = m.logBf[j*m.m+o] + next[j]
		}
		mx := shiftedExp(row, w)
		for i := 0; i < n; i++ {
			ai := m.af[i*n : (i+1)*n]
			s := 0.0
			for j, e := range row {
				s += ai[j] * e
			}
			// The duration term is constant over j: add it after the sum.
			if s >= hoistFloor {
				cur[i] = mx + math.Log(s) + p.durLP[i*k+t+1]
			} else {
				cur[i] = logCell(w, m.logAf[i*n:(i+1)*n]) + p.durLP[i*k+t+1]
			}
		}
	}
}
