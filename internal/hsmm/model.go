package hsmm

import (
	"fmt"
	"math"

	"repro/internal/eventlog"
	"repro/internal/stats"
)

// Config parameterizes model structure and training.
type Config struct {
	// States is the number of hidden states N ≥ 1.
	States int
	// Family selects the duration family (default lognormal).
	Family DurationFamily
	// MaxIter bounds the EM iterations (default 30).
	MaxIter int
	// Seed drives the random initialization.
	Seed int64
	// Restarts runs EM from this many random initializations and keeps the
	// best model (default 1).
	Restarts int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Family == 0 {
		c.Family = FamilyLogNormal
	}
	if c.MaxIter == 0 {
		c.MaxIter = 30
	}
	if c.Restarts == 0 {
		c.Restarts = 1
	}
	return c
}

// validate rejects unusable configurations.
func (c Config) validate() error {
	if c.States < 1 {
		return fmt.Errorf("%w: %d states", ErrModel, c.States)
	}
	if c.MaxIter < 1 || c.Restarts < 1 {
		return fmt.Errorf("%w: maxIter=%d restarts=%d", ErrModel, c.MaxIter, c.Restarts)
	}
	switch c.Family {
	case FamilyLogNormal, FamilyExponential, FamilyNone:
	default:
		return fmt.Errorf("%w: unknown duration family %d", ErrModel, int(c.Family))
	}
	return nil
}

// Model is a trained hidden semi-Markov model over error sequences.
// All probability parameters are stored in log space.
type Model struct {
	n       int            // hidden states
	m       int            // alphabet size including the catch-all slot
	symbols map[int]int    // event type ID → emission index
	logPi   []float64      // n
	logA    [][]float64    // n×n transition log-probabilities
	logB    [][]float64    // n×m emission log-probabilities
	dur     []durationDist // n per-state duration distributions
	family  DurationFamily

	// Kernel caches derived from the parameters by refreshKernel (at init,
	// after every M step, and on deserialization): logAf is row-major
	// (logAf[i*n+j] = logA[i][j]), logAT is its transpose
	// (logAT[j*n+i] = logA[i][j]), logBf is row-major
	// (logBf[j*m+o] = logB[j][o]). af and aT hold the same transition
	// matrix in the linear domain (af[i*n+j] = aT[j*n+i] = exp(logA[i][j])):
	// the lattices sum over them after one exponential per predecessor, and
	// read logAf/logAT only in the cells that fall back to log space. The
	// hot kernels walk all of these contiguously instead of chasing per-row
	// slice headers. Each dur[i] caches its log-density constant (norm),
	// and slots is symbols as a dense table: slots[typ] is the emission
	// index of every type from 0 to the largest trained one (at most
	// maxSlotType), the catch-all slot where training saw no such type.
	logAf, logAT, logBf []float64
	af, aT              []float64
	slots               []int
}

// maxSlotType bounds the dense type table: a trained type above it, or a
// negative one, is looked up in the symbols map instead.
const maxSlotType = 1 << 12

// refreshKernel rebuilds the kernel caches after the parameters change.
func (m *Model) refreshKernel() {
	if len(m.logAf) != m.n*m.n {
		m.logAf = make([]float64, m.n*m.n)
		m.logAT = make([]float64, m.n*m.n)
		m.af = make([]float64, m.n*m.n)
		m.aT = make([]float64, m.n*m.n)
	}
	if len(m.logBf) != m.n*m.m {
		m.logBf = make([]float64, m.n*m.m)
	}
	for i := 0; i < m.n; i++ {
		copy(m.logAf[i*m.n:(i+1)*m.n], m.logA[i])
		for j, v := range m.logA[i] {
			m.logAT[j*m.n+i] = v
			a := math.Exp(v)
			m.af[i*m.n+j], m.aT[j*m.n+i] = a, a
		}
		copy(m.logBf[i*m.m:(i+1)*m.m], m.logB[i])
		m.dur[i].refreshNorm()
	}
	if m.slots == nil { // the alphabet is fixed at construction
		top := -1
		for typ := range m.symbols {
			if typ <= maxSlotType {
				top = max(top, typ)
			}
		}
		m.slots = make([]int, top+1)
		for typ := range m.slots {
			m.slots[typ] = m.unknownSlot()
		}
		for typ, idx := range m.symbols {
			if typ >= 0 && typ < len(m.slots) {
				m.slots[typ] = idx
			}
		}
	}
}

// unknownSlot is the emission index for event types unseen in training.
func (m *Model) unknownSlot() int { return m.m - 1 }

// symbolIndex maps an event type to its emission index.
func (m *Model) symbolIndex(eventType int) int {
	if uint(eventType) < uint(len(m.slots)) {
		return m.slots[eventType]
	}
	if i, ok := m.symbols[eventType]; ok {
		return i
	}
	return m.unknownSlot()
}

// AlphabetSize returns the emission alphabet size (including the catch-all
// slot for unseen event types).
func (m *Model) AlphabetSize() int { return m.m }

// Family returns the duration family the model was trained with.
func (m *Model) Family() DurationFamily { return m.family }

// newRandomModel builds a randomly initialized model over the given symbol
// alphabet. meanDelay scales the duration initialization.
func newRandomModel(cfg Config, alphabet []int, meanDelay float64, g *stats.RNG) *Model {
	n := cfg.States
	m := len(alphabet) + 1 // + catch-all
	model := &Model{
		n:       n,
		m:       m,
		symbols: make(map[int]int, len(alphabet)),
		logPi:   make([]float64, n),
		logA:    make([][]float64, n),
		logB:    make([][]float64, n),
		dur:     make([]durationDist, n),
		family:  cfg.Family,
	}
	for i, s := range alphabet {
		model.symbols[s] = i
	}
	if meanDelay <= 0 {
		meanDelay = 1
	}
	randRow := func(k int) []float64 {
		row := make([]float64, k)
		for i := range row {
			row[i] = 0.2 + g.Float64()
		}
		row = normalizeToLog(row)
		return row
	}
	model.logPi = randRow(n)
	for i := 0; i < n; i++ {
		model.logA[i] = randRow(n)
		model.logB[i] = randRow(m)
		model.dur[i] = newDuration(cfg.Family)
		model.dur[i].randomize(g, meanDelay)
	}
	model.refreshKernel()
	return model
}

// normalizeToLog converts positive weights to log-probabilities.
func normalizeToLog(w []float64) []float64 {
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	out := make([]float64, len(w))
	for i, v := range w {
		out[i] = stats.Log(v / sum)
	}
	return out
}

// prepared is a sequence translated to a model's emission alphabet plus
// the per-sequence tables the kernels index instead of recomputing:
// inter-event delays, clamped log-delays, and the n×k duration log-PDF
// table. forward, backward and the EM ξ-accumulation all read
// durLP, turning the O(n·k²) transcendental calls of the naive lattices
// into an O(n·k) table build. The delays depend on the sequence alone
// (setDelays) and the emission indices and duration table on the model too
// (setModel), so a classifier fills the first half once per window and the
// second once per model. A scorer's instance lives in its scoreSpace; an
// EM run's are carved from arrays it owns (prepareAll).
type prepared struct {
	obs    []int     // emission indices
	delays []float64 // delays[t] is the delay preceding event t (t ≥ 1)
	logDel []float64 // log(max(delays[t], minDelay))
	durLP  []float64 // n×k row-major: durLP[i*k+t] = dur[i].logPDF(delays[t])
}

// prepareAll prepares every sequence of an EM run into storage the run
// owns: one array per buffer kind, carved in sequence order, so a run
// allocates the same four arrays and one slice however many sequences it
// fits.
func (m *Model) prepareAll(seqs []eventlog.Sequence) []prepared {
	events := 0
	for _, s := range seqs {
		events += s.Len()
	}
	ps := make([]prepared, len(seqs))
	obs := make([]int, events)
	f := make([]float64, 2*events)
	durLP := make([]float64, m.n*events)
	for i, s := range seqs {
		k := s.Len()
		p := &ps[i]
		p.obs, obs = obs[:k:k], obs[k:]
		p.delays, p.logDel, f = f[:k:k], f[k:2*k:2*k], f[2*k:]
		p.durLP, durLP = durLP[:m.n*k:m.n*k], durLP[m.n*k:]
		p.setDelays(s.Times)
		p.setModel(m, s.Types)
	}
	return ps
}

// setDelays fills the model-independent half of p from a sequence's event
// times: the delays and their clamped logarithms. p's buffers grow only
// when they are too short.
func (p *prepared) setDelays(times []float64) {
	k := len(times)
	p.delays = growF64(p.delays, k)
	p.logDel = growF64(p.logDel, k)
	for t := range times {
		d := 0.0
		if t > 0 {
			d = times[t] - times[t-1]
		}
		p.delays[t] = d
		if d < minDelay {
			d = minDelay
		}
		p.logDel[t] = math.Log(d)
	}
}

// setModel fills m's half of p, whose delays are set: the emission index
// of every event type and the duration table.
func (p *prepared) setModel(m *Model, types []int) {
	k := len(types)
	p.obs = growInts(p.obs, k)
	p.durLP = growF64(p.durLP, m.n*k)
	for t, typ := range types {
		p.obs[t] = m.symbolIndex(typ)
	}
	p.refreshDur(m)
}

// refreshDur rebuilds the duration table for the model's current duration
// parameters (needed between EM iterations, where the M step moves them).
func (p *prepared) refreshDur(m *Model) {
	k := len(p.obs)
	for i := 0; i < m.n; i++ {
		m.dur[i].fillLogPDF(p.durLP[i*k:(i+1)*k], p.delays, p.logDel)
	}
}

// growF64 returns buf resized to length n, reallocating only when the
// capacity is insufficient (contents arbitrary).
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growInts is growF64 for int buffers.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
