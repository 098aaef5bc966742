package hsmm

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/eventlog"
	"repro/internal/stats"
)

// This file keeps the original naive lattice implementations — [][]float64
// rows allocated per call, duration log-PDFs recomputed in the innermost
// loop, one exponential per term of every log-sum-exp — as an executable
// specification for the optimized kernels in forward.go and the E-step in
// train.go. The property tests below assert the two agree within 1e-9 on
// randomized models and sequences.

// LogLikelihood returns log P(seq | m) through the scoring path — one
// model's half of Classifier.Score, in a scoreSpace from the pool — for
// the tests that hold a single model to its reference or its properties.
// Empty sequences are an error.
func (m *Model) LogLikelihood(seq eventlog.Sequence) (float64, error) {
	if seq.Len() == 0 {
		return 0, fmt.Errorf("%w: empty sequence", ErrModel)
	}
	s := spacePool.Get().(*scoreSpace)
	defer spacePool.Put(s)
	s.p.setDelays(seq.Times)
	return s.logLikelihood(m, seq.Types, 0, nil), nil
}

// prepare fills a fresh prepared sequence for m as the scoring path does.
func (m *Model) prepare(seq eventlog.Sequence) *prepared {
	p := new(prepared)
	p.setDelays(seq.Times)
	p.setModel(m, seq.Types)
	return p
}

// release ends a prepare; the storage is the garbage collector's.
func (p *prepared) release() {}

// refPrepared mirrors the pre-optimization sequence translation.
type refPrepared struct {
	obs    []int
	delays []float64
}

func refPrepare(m *Model, seq eventlog.Sequence) refPrepared {
	p := refPrepared{
		obs:    make([]int, seq.Len()),
		delays: make([]float64, seq.Len()),
	}
	for k, typ := range seq.Types {
		p.obs[k] = m.symbolIndex(typ)
		if k > 0 {
			p.delays[k] = seq.Times[k] - seq.Times[k-1]
		}
	}
	return p
}

// refForward is the naive forward lattice: alpha[t][j] = log P(o_1..o_t, s_t=j).
func refForward(m *Model, p refPrepared) [][]float64 {
	k := len(p.obs)
	alpha := make([][]float64, k)
	alpha[0] = make([]float64, m.n)
	for j := 0; j < m.n; j++ {
		alpha[0][j] = m.logPi[j] + m.logB[j][p.obs[0]]
	}
	buf := make([]float64, m.n)
	for t := 1; t < k; t++ {
		alpha[t] = make([]float64, m.n)
		for j := 0; j < m.n; j++ {
			for i := 0; i < m.n; i++ {
				buf[i] = alpha[t-1][i] + m.logA[i][j] + m.dur[i].logPDF(p.delays[t])
			}
			alpha[t][j] = stats.LogSumExpSlice(buf) + m.logB[j][p.obs[t]]
		}
	}
	return alpha
}

// refBackward is the naive backward lattice: beta[t][i] = log P(o_{t+1}.. | s_t=i).
func refBackward(m *Model, p refPrepared) [][]float64 {
	k := len(p.obs)
	beta := make([][]float64, k)
	beta[k-1] = make([]float64, m.n)
	buf := make([]float64, m.n)
	for t := k - 2; t >= 0; t-- {
		beta[t] = make([]float64, m.n)
		for i := 0; i < m.n; i++ {
			for j := 0; j < m.n; j++ {
				buf[j] = m.logA[i][j] + m.dur[i].logPDF(p.delays[t+1]) +
					m.logB[j][p.obs[t+1]] + beta[t+1][j]
			}
			beta[t][i] = stats.LogSumExpSlice(buf)
		}
	}
	return beta
}

// refAccumulate is the naive E-step over the reference lattices: state
// posteriors γ, transition posteriors ξ and the duration moments, every term
// the exponential of its own log-space sum. Like accumulate it adds nothing
// for a sequence the model cannot produce.
func refAccumulate(m *Model, p refPrepared) (*accumulator, float64) {
	acc := newAccumulator(m.n, m.m)
	alpha, beta := refForward(m, p), refBackward(m, p)
	k := len(p.obs)
	ll := stats.LogSumExpSlice(alpha[k-1])
	if math.IsInf(ll, -1) {
		return acc, ll
	}
	for t := 0; t < k; t++ {
		for i := 0; i < m.n; i++ {
			g := math.Exp(alpha[t][i] + beta[t][i] - ll)
			if t == 0 {
				acc.pi[i] += g
			}
			acc.b[i*m.m+p.obs[t]] += g
			if t == k-1 {
				continue
			}
			if m.family != FamilyNone {
				dt := math.Max(p.delays[t+1], minDelay)
				acc.durW[i] += g
				acc.durWLog[i] += g * math.Log(dt)
				acc.durWLog2[i] += g * math.Log(dt) * math.Log(dt)
				acc.durWDt[i] += g * dt
			}
			for j := 0; j < m.n; j++ {
				acc.a[i*m.n+j] += math.Exp(alpha[t][i] + m.dur[i].logPDF(p.delays[t+1]) +
					m.logA[i][j] + m.logB[j][p.obs[t+1]] + beta[t+1][j] - ll)
			}
		}
	}
	return acc, ll
}

// randomModelAndSeq draws a random model (random family, 1–6 states) and a
// random sequence (1–40 events, delays spanning 7 orders of magnitude,
// symbols partly outside the training alphabet). Every other model has
// hard zeros punched into its transition and emission matrices, and every
// other lognormal model's sequence, from a random event on, delays so far in
// the tail that the states' duration densities differ by more than exp can
// represent — the inputs on which the hoisted kernels must take their
// log-space fallback cell. (Every later delay is scaled, not a few: an
// isolated jump would round the delays after it to zero.)
func randomModelAndSeq(seed int64) (*Model, eventlog.Sequence) {
	g := stats.NewRNG(seed)
	families := []DurationFamily{FamilyLogNormal, FamilyExponential, FamilyNone}
	cfg := Config{
		States: 1 + g.Intn(6),
		Family: families[g.Intn(len(families))],
	}.withDefaults()
	alphabet := make([]int, 1+g.Intn(8))
	for i := range alphabet {
		alphabet[i] = i * (1 + g.Intn(3))
	}
	model := newRandomModel(cfg, alphabet, math.Pow(10, g.NormFloat64()), g)
	if g.Intn(2) == 0 {
		for i := 0; i < model.n; i++ {
			for _, row := range [][]float64{model.logA[i], model.logB[i]} {
				for c := range row {
					if g.Intn(3) == 0 {
						row[c] = math.Inf(-1)
					}
				}
			}
		}
		model.refreshKernel()
	}
	n := 1 + g.Intn(40)
	tailFrom, tailScale := n, 1.0
	if cfg.Family == FamilyLogNormal && g.Intn(2) == 0 {
		tailFrom, tailScale = g.Intn(n), math.Pow(10, float64(5+g.Intn(20)))
	}
	seq := eventlog.Sequence{Times: make([]float64, n), Types: make([]int, n)}
	t := 0.0
	for i := 0; i < n; i++ {
		if i > 0 {
			d := g.ExpFloat64() * math.Pow(10, float64(g.Intn(7))-3)
			if i >= tailFrom {
				d *= tailScale
			}
			t += d
		}
		seq.Times[i] = t
		seq.Types[i] = g.Intn(20) - 5 // mix of in- and out-of-alphabet symbols
	}
	return model, seq
}

// close9 compares log-space quantities at 1e-9 absolute-or-relative
// tolerance, treating matching infinities as equal.
func close9(a, b float64) bool {
	if math.IsInf(a, -1) && math.IsInf(b, -1) {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-9 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// closeStat compares one accumulated statistic at 1e-9 relative tolerance;
// scale is its magnitude, or for a sum whose terms cancel the magnitude of
// those terms. Every posterior is exp(α + β − ll), so it carries the
// rounding of sums of magnitude |ll| whichever way the lattices were
// filled: the tolerance widens by 1e-14·|ll| (the generator's exponential
// models reach −1e7). Below 1e-290 both sides are sums of terms exp has
// already flushed.
func closeStat(a, b, scale, ll float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-290 || d <= (1e-9+1e-14*math.Abs(ll))*scale
}

// TestOptimizedKernelsMatchReference checks every lattice cell of the
// optimized forward/backward kernels and the E-step's sufficient statistics against the naive reference on randomized models
// and sequences. close9 holds −Inf to −Inf and finite to finite, so a cell
// the reference can reach must not be lost to the hoisted sum's underflow.
func TestOptimizedKernelsMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		m, seq := randomModelAndSeq(seed)
		rp := refPrepare(m, seq)
		p := m.prepare(seq)
		defer p.release()
		n, k := m.n, seq.Len()

		alpha := make([]float64, k*n)
		tmp := make([]float64, n)
		row := make([]float64, n)
		m.forwardInto(p, alpha, tmp, row)
		wantAlpha := refForward(m, rp)
		for tt := 0; tt < k; tt++ {
			for j := 0; j < n; j++ {
				if !close9(alpha[tt*n+j], wantAlpha[tt][j]) {
					t.Logf("seed %d: alpha[%d][%d] = %g, want %g", seed, tt, j, alpha[tt*n+j], wantAlpha[tt][j])
					return false
				}
			}
		}

		beta := make([]float64, k*n)
		m.backwardInto(p, beta, tmp, row)
		wantBeta := refBackward(m, rp)
		for tt := 0; tt < k; tt++ {
			for i := 0; i < n; i++ {
				if !close9(beta[tt*n+i], wantBeta[tt][i]) {
					t.Logf("seed %d: beta[%d][%d] = %g, want %g", seed, tt, i, beta[tt*n+i], wantBeta[tt][i])
					return false
				}
			}
		}

		ll, err := m.LogLikelihood(seq)
		if err != nil {
			return false
		}
		if want := stats.LogSumExpSlice(wantAlpha[k-1]); !close9(ll, want) {
			t.Logf("seed %d: ll %g, want %g", seed, ll, want)
			return false
		}

		acc := newAccumulator(n, m.m)
		accLL := acc.accumulate(m, p, &emScratch{tmp: tmp, row: row, w: make([]float64, n)})
		wantAcc, wantLL := refAccumulate(m, rp)
		if !close9(accLL, wantLL) {
			t.Logf("seed %d: accumulate ll %g, want %g", seed, accLL, wantLL)
			return false
		}
		for _, st := range []struct {
			name      string
			got, want []float64
		}{
			{"pi", acc.pi, wantAcc.pi}, {"a", acc.a, wantAcc.a}, {"b", acc.b, wantAcc.b},
			{"durW", acc.durW, wantAcc.durW}, {"durWLog", acc.durWLog, wantAcc.durWLog},
			{"durWLog2", acc.durWLog2, wantAcc.durWLog2}, {"durWDt", acc.durWDt, wantAcc.durWDt},
		} {
			for i := range st.got {
				scale := math.Max(math.Abs(st.got[i]), math.Abs(st.want[i]))
				if st.name == "durWLog" {
					// Σ g·log dt cancels; Cauchy–Schwarz bounds Σ g·|log dt|.
					scale = math.Sqrt(wantAcc.durW[i]) * math.Sqrt(wantAcc.durWLog2[i])
				}
				if !closeStat(st.got[i], st.want[i], scale, wantLL) {
					t.Logf("seed %d: %s[%d] = %g, want %g", seed, st.name, i, st.got[i], st.want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestDurationTableMatchesLogPDF pins the prepared duration table to the
// scalar logPDF it replaces, per state and timestep.
func TestDurationTableMatchesLogPDF(t *testing.T) {
	f := func(seed int64) bool {
		m, seq := randomModelAndSeq(seed)
		p := m.prepare(seq)
		defer p.release()
		k := seq.Len()
		delays := make([]float64, k)
		for i := 1; i < k; i++ {
			delays[i] = seq.Times[i] - seq.Times[i-1]
		}
		for i := 0; i < m.n; i++ {
			for tt := 1; tt < k; tt++ {
				if !close9(p.durLP[i*k+tt], m.dur[i].logPDF(delays[tt])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelFitMatchesSequentialScan verifies the parallel-restart Fit is
// reproducible: two Fits with the same seed must produce bit-identical
// models (the acceptance contract behind TestFitDeterministicForSeed, here
// exercised with enough restarts to occupy several workers).
func TestParallelFitMatchesSequentialScan(t *testing.T) {
	g := stats.NewRNG(59)
	seqs := genFailureSeqs(g, 10)
	cfg := Config{States: 3, Seed: 21, Restarts: 6, MaxIter: 8}
	m1, err := Fit(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := m1.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m2.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("same seed produced different models under parallel restarts")
	}
}

// TestTrainClassifierMatchesSequentialFits pins the side-by-side model fits
// to the two sequential Fit calls they replaced — the failure model at
// cfg.Seed, the non-failure model at cfg.Seed+1 — bit for bit.
func TestTrainClassifierMatchesSequentialFits(t *testing.T) {
	g := stats.NewRNG(67)
	fail, nonFail := genFailureSeqs(g, 12), genNonFailureSeqs(g, 16)
	cfg := Config{States: 3, Seed: 31, Restarts: 3, MaxIter: 8}
	clf, err := TrainClassifier(fail, nonFail, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nfCfg := cfg
	nfCfg.Seed = cfg.Seed + 1
	for _, c := range []struct {
		name string
		got  *Model
		seqs []eventlog.Sequence
		cfg  Config
	}{
		{"failure", clf.Failure, fail, cfg},
		{"non-failure", clf.NonFailure, nonFail, nfCfg},
	} {
		want, err := Fit(c.seqs, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := c.got.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := want.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("%s model differs from a sequential Fit at seed %d", c.name, c.cfg.Seed)
		}
	}
}

// TestScoreAllMatchesScore pins the batched classifier path to the scalar
// one, in order, including the empty-window convention.
func TestScoreAllMatchesScore(t *testing.T) {
	g := stats.NewRNG(61)
	clf, err := TrainClassifier(genFailureSeqs(g, 10), genNonFailureSeqs(g, 10),
		Config{States: 2, Seed: 22, MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	windows := append(genFailureSeqs(g, 9), eventlog.Sequence{})
	windows = append(windows, genNonFailureSeqs(g, 8)...)
	batch, err := clf.ScoreAll(windows)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(windows) {
		t.Fatalf("ScoreAll returned %d scores for %d windows", len(batch), len(windows))
	}
	for i, w := range windows {
		want, err := clf.Score(w)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != want {
			t.Fatalf("window %d: batch score %g != scalar %g", i, batch[i], want)
		}
	}
}
