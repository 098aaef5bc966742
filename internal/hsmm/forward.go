package hsmm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/eventlog"
	"repro/internal/stats"
)

// The inference kernels below are allocation-free on the steady-state path:
// lattices are flat k×n row-major buffers recycled through pools, or held
// by a batch's workers (scoreSpace), the
// duration log-PDFs come from the prepared sequence's table (built once per
// prepare/refreshDur instead of once per lattice cell), and transition and
// emission parameters are read from the model's flat caches.
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

// bufPool recycles the flat float64 lattices and scratch rows.
var bufPool = sync.Pool{New: func() any { return new([]float64) }}

// getBuf returns a length-n float64 buffer from the pool (contents
// arbitrary); return it with putBuf.
func getBuf(n int) *[]float64 {
	bp := bufPool.Get().(*[]float64)
	if cap(*bp) < n {
		*bp = make([]float64, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putBuf(bp *[]float64) { bufPool.Put(bp) }

// LogLikelihood returns log P(sequence | model) via the forward algorithm
// in log space. The semi-Markov duration densities enter at every
// transition. Empty sequences are an error.
func (m *Model) LogLikelihood(seq eventlog.Sequence) (float64, error) {
	k := seq.Len()
	if k == 0 {
		return 0, errEmptySequence
	}
	p, bp := m.prepare(seq), getBuf(k*m.n+2*m.n)
	ll := m.forwardLL(p, *bp)
	putBuf(bp)
	p.release()
	return ll, nil
}

var errEmptySequence = fmt.Errorf("%w: empty sequence", ErrModel)

// scoreSpace is one scoring worker's own storage for what LogLikelihood
// borrows from the pools: the prepared sequence and the lattice with its two
// scratch rows. Classifier.ScoreAll gives each worker one (par.ForScratch),
// sized for the batch's longest sequence, so a batch allocates the same
// however often a GC has emptied the pools and whichever sequences each
// worker happens to claim.
type scoreSpace struct {
	p       prepared
	lattice []float64
}

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

// logLikelihood is m.LogLikelihood(seq) computed in s's storage.
func (s *scoreSpace) logLikelihood(m *Model, seq eventlog.Sequence) (float64, error) {
	k := seq.Len()
	if k == 0 {
		return 0, errEmptySequence
	}
	m.prepareInto(&s.p, seq)
	s.lattice = growF64(s.lattice, k*m.n+2*m.n)
	return m.forwardLL(&s.p, s.lattice), nil
}

// forwardLL runs the forward pass over p in buf — the k×n lattice, then two
// n-sized scratch rows — and returns log P(sequence | model).
func (m *Model) forwardLL(p *prepared, buf []float64) float64 {
	k := len(p.obs)
	alpha := buf[:k*m.n]
	tmp := buf[k*m.n : k*m.n+m.n]
	row := buf[k*m.n+m.n:]
	m.forwardInto(p, alpha, tmp, row)
	return stats.LogSumExpSlice(alpha[(k-1)*m.n:])
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
	n, k := m.n, len(p.obs)
	for j := 0; j < n; j++ {
		alpha[j] = m.logPi[j] + m.logBf[j*m.m+p.obs[0]]
	}
	for t := 1; t < k; t++ {
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
