package hsmm

import (
	"math"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/predict"
	"repro/internal/stats"
)

// genSeq draws a synthetic error sequence: event types from a categorical
// distribution, inter-event delays from delayDist.
func genSeq(g *stats.RNG, types []int, weights []float64, delayDist stats.Dist, n int) eventlog.Sequence {
	seq := eventlog.Sequence{
		Times: make([]float64, n),
		Types: make([]int, n),
	}
	t := 0.0
	for i := 0; i < n; i++ {
		if i > 0 {
			t += delayDist.Sample(g)
		}
		seq.Times[i] = t
		seq.Types[i] = types[g.Categorical(weights)]
	}
	return seq
}

// failure-like: types 1,2 dominant, short accelerating delays.
func genFailureSeqs(g *stats.RNG, n int) []eventlog.Sequence {
	out := make([]eventlog.Sequence, n)
	for i := range out {
		out[i] = genSeq(g, []int{1, 2, 3}, []float64{5, 4, 1},
			stats.LogNormal{Mu: math.Log(0.5), Sigma: 0.5}, 8+g.Intn(8))
	}
	return out
}

// non-failure-like: types 3,4 dominant, long delays.
func genNonFailureSeqs(g *stats.RNG, n int) []eventlog.Sequence {
	out := make([]eventlog.Sequence, n)
	for i := range out {
		out[i] = genSeq(g, []int{2, 3, 4}, []float64{1, 5, 4},
			stats.LogNormal{Mu: math.Log(10), Sigma: 0.5}, 4+g.Intn(6))
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{States: 0},
		{States: 2, MaxIter: -1},
		{States: 2, Restarts: -2},
		{States: 2, Family: DurationFamily(99)},
	}
	g := stats.NewRNG(1)
	seqs := genFailureSeqs(g, 3)
	for i, cfg := range bad {
		if _, err := Fit(seqs, cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestFitRejectsEmptyTrainingSet(t *testing.T) {
	if _, err := Fit(nil, Config{States: 2}); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := Fit([]eventlog.Sequence{{}}, Config{States: 2}); err == nil {
		t.Fatal("all-empty training set accepted")
	}
}

func TestFitProducesFiniteLikelihoods(t *testing.T) {
	g := stats.NewRNG(7)
	seqs := genFailureSeqs(g, 20)
	m, err := Fit(seqs, Config{States: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seqs {
		ll, err := m.LogLikelihood(s)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(ll) || math.IsInf(ll, 0) {
			t.Fatalf("sequence %d: log-likelihood %g", i, ll)
		}
	}
}

func TestEMImprovesLikelihood(t *testing.T) {
	g := stats.NewRNG(11)
	seqs := genFailureSeqs(g, 25)
	short, err := Fit(seqs, Config{States: 3, Seed: 2, MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Fit(seqs, Config{States: 3, Seed: 2, MaxIter: 25})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(m *Model) float64 {
		total := 0.0
		for _, s := range seqs {
			ll, err := m.LogLikelihood(s)
			if err != nil {
				t.Fatal(err)
			}
			total += ll
		}
		return total
	}
	if sum(long) < sum(short) {
		t.Fatalf("EM did not improve training likelihood: %g < %g", sum(long), sum(short))
	}
}

func TestUnknownSymbolsStayFinite(t *testing.T) {
	g := stats.NewRNG(3)
	m, err := Fit(genFailureSeqs(g, 10), Config{States: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	unseen := eventlog.Sequence{
		Times: []float64{0, 1, 2},
		Types: []int{999, 998, 997}, // never in training
	}
	ll, err := m.LogLikelihood(unseen)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(ll, 0) || math.IsNaN(ll) {
		t.Fatalf("unseen-symbol likelihood = %g", ll)
	}
}

func TestFitDeterministicForSeed(t *testing.T) {
	g1 := stats.NewRNG(17)
	seqs := genFailureSeqs(g1, 12)
	m1, err := Fit(seqs, Config{States: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(seqs, Config{States: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := m1.LogLikelihood(seqs[0])
	l2, _ := m2.LogLikelihood(seqs[0])
	if l1 != l2 {
		t.Fatalf("same seed, different models: %g vs %g", l1, l2)
	}
}

func TestClassifierSeparatesProcesses(t *testing.T) {
	g := stats.NewRNG(23)
	trainF := genFailureSeqs(g, 40)
	trainN := genNonFailureSeqs(g, 40)
	c, err := TrainClassifier(trainF, trainN, Config{States: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	testF := genFailureSeqs(g, 30)
	testN := genNonFailureSeqs(g, 30)
	var scored []predict.Scored
	for _, s := range testF {
		sc, err := c.Score(s)
		if err != nil {
			t.Fatal(err)
		}
		scored = append(scored, predict.Scored{Score: sc, Actual: true})
	}
	for _, s := range testN {
		sc, err := c.Score(s)
		if err != nil {
			t.Fatal(err)
		}
		scored = append(scored, predict.Scored{Score: sc, Actual: false})
	}
	auc, err := predict.AUCOf(scored)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.9 {
		t.Fatalf("classifier AUC = %g on cleanly separated processes, want ≥ 0.9", auc)
	}
}

// TestDurationAblation verifies the DESIGN.md ablation claim: when the two
// classes differ only in their timing (identical symbol distributions), the
// semi-Markov durations carry all the signal — a lognormal-duration model
// must beat the duration-blind FamilyNone (plain HMM) model.
func TestDurationAblation(t *testing.T) {
	g := stats.NewRNG(29)
	types := []int{1, 2}
	weights := []float64{1, 1}
	gen := func(delay stats.Dist, n int) []eventlog.Sequence {
		out := make([]eventlog.Sequence, n)
		for i := range out {
			out[i] = genSeq(g, types, weights, delay, 10)
		}
		return out
	}
	fast := stats.LogNormal{Mu: math.Log(0.5), Sigma: 0.3}
	slow := stats.LogNormal{Mu: math.Log(8), Sigma: 0.3}
	trainF, trainN := gen(fast, 30), gen(slow, 30)
	testF, testN := gen(fast, 25), gen(slow, 25)

	aucFor := func(family DurationFamily) float64 {
		c, err := TrainClassifier(trainF, trainN, Config{States: 2, Seed: 7, Family: family})
		if err != nil {
			t.Fatal(err)
		}
		var scored []predict.Scored
		for _, s := range testF {
			sc, _ := c.Score(s)
			scored = append(scored, predict.Scored{Score: sc, Actual: true})
		}
		for _, s := range testN {
			sc, _ := c.Score(s)
			scored = append(scored, predict.Scored{Score: sc, Actual: false})
		}
		auc, err := predict.AUCOf(scored)
		if err != nil {
			t.Fatal(err)
		}
		return auc
	}
	withDur := aucFor(FamilyLogNormal)
	without := aucFor(FamilyNone)
	if withDur < 0.95 {
		t.Fatalf("duration-aware AUC = %g on timing-separated classes", withDur)
	}
	if withDur <= without+0.2 {
		t.Fatalf("durations should dominate: with=%g without=%g", withDur, without)
	}
}

func TestClassifierEmptySequenceScoresZero(t *testing.T) {
	g := stats.NewRNG(31)
	c, err := TrainClassifier(genFailureSeqs(g, 10), genNonFailureSeqs(g, 10), Config{States: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Score(eventlog.Sequence{})
	if err != nil || s != 0 {
		t.Fatalf("empty sequence score = %g, %v", s, err)
	}
}

func TestTrainClassifierValidation(t *testing.T) {
	g := stats.NewRNG(37)
	if _, err := TrainClassifier(nil, genNonFailureSeqs(g, 3), Config{States: 2}); err == nil {
		t.Fatal("missing failure sequences accepted")
	}
	if _, err := TrainClassifier(genFailureSeqs(g, 3), nil, Config{States: 2}); err == nil {
		t.Fatal("missing non-failure sequences accepted")
	}
}

func TestExponentialFamily(t *testing.T) {
	g := stats.NewRNG(41)
	seqs := genFailureSeqs(g, 15)
	m, err := Fit(seqs, Config{States: 2, Seed: 9, Family: FamilyExponential})
	if err != nil {
		t.Fatal(err)
	}
	if m.Family() != FamilyExponential {
		t.Fatalf("family = %v", m.Family())
	}
	ll, err := m.LogLikelihood(seqs[0])
	if err != nil || math.IsNaN(ll) {
		t.Fatalf("exponential family ll = %g, %v", ll, err)
	}
}

func TestRestartsPickBest(t *testing.T) {
	g := stats.NewRNG(43)
	seqs := genFailureSeqs(g, 15)
	single, err := Fit(seqs, Config{States: 3, Seed: 10, Restarts: 1, MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Fit(seqs, Config{States: 3, Seed: 10, Restarts: 4, MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(m *Model) float64 {
		total := 0.0
		for _, s := range seqs {
			ll, _ := m.LogLikelihood(s)
			total += ll
		}
		return total
	}
	if sum(multi) < sum(single)-1e-9 {
		t.Fatalf("restarts picked a worse model: %g < %g", sum(multi), sum(single))
	}
}

func TestAlphabetIncludesCatchAll(t *testing.T) {
	g := stats.NewRNG(47)
	m, err := Fit(genFailureSeqs(g, 5), Config{States: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Training data uses types {1,2,3}: alphabet 3 + 1 catch-all.
	if m.AlphabetSize() != 4 {
		t.Fatalf("alphabet size = %d, want 4", m.AlphabetSize())
	}
}
