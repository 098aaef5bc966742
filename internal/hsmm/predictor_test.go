package hsmm

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/stats"
)

// labeledWindow synthesizes failure (dense, bursty) and non-failure
// (sparse) sequences with distinct event-type mixes.
func labeledWindow(seed int64, n int) (failure, nonFailure []eventlog.Sequence) {
	g := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		f := eventlog.Sequence{Label: true}
		t := 0.0
		for j := 0; j < 8; j++ {
			t += 0.1 + 0.2*g.Float64()
			f.Times = append(f.Times, t)
			f.Types = append(f.Types, g.Intn(2)) // types {0,1}
		}
		failure = append(failure, f)

		nf := eventlog.Sequence{}
		t = 0.0
		for j := 0; j < 4; j++ {
			t += 1 + 2*g.Float64()
			nf.Times = append(nf.Times, t)
			nf.Types = append(nf.Types, 1+g.Intn(2)) // types {1,2}
		}
		nonFailure = append(nonFailure, nf)
	}
	return failure, nonFailure
}

func testHSMMPredictor(t *testing.T) *Predictor {
	t.Helper()
	failure, nonFailure := labeledWindow(1, 10)
	cfg := Config{States: 2, MaxIter: 10, Seed: 3}
	clf, err := TrainClassifier(failure, nonFailure, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := failure[0]
	winF, winNF := labeledWindow(2, 10)
	p, err := NewPredictor(clf,
		func(now float64) (eventlog.Sequence, error) { return seq, nil },
		func(now float64) ([]eventlog.Sequence, []eventlog.Sequence, error) {
			return winF, winNF, nil
		}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestHSMMPredictorEvaluate(t *testing.T) {
	p := testHSMMPredictor(t)
	s, err := p.Evaluate(0)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("failure-like sequence scored %g, want positive log-likelihood ratio", s)
	}
}

// TestHSMMPredictorRetrainDeterministic: capture→retrain is bit-identical
// across repetitions at a fixed GOMAXPROCS, per the package's determinism
// contract (E-step reductions may only regroup when GOMAXPROCS changes).
func TestHSMMPredictorRetrainDeterministic(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	p := testHSMMPredictor(t)
	retrainOnce := func() []byte {
		w, err := p.CaptureWindow(0)
		if err != nil {
			t.Fatal(err)
		}
		cand, err := p.Retrain(w)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := cand.(*Predictor).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	ref := retrainOnce()
	for i := 0; i < 2; i++ {
		if got := retrainOnce(); !bytes.Equal(ref, got) {
			t.Fatalf("retrain %d not bit-identical", i)
		}
	}
}

func TestHSMMPredictorRetrainPreservesThreshold(t *testing.T) {
	p := testHSMMPredictor(t)
	p.Classifier().Threshold = 2.5
	w, err := p.CaptureWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	cand, err := p.Retrain(w)
	if err != nil {
		t.Fatal(err)
	}
	g1 := cand.(*Predictor)
	if g1.Classifier().Threshold != 2.5 {
		t.Fatalf("threshold after retrain = %g, want 2.5", g1.Classifier().Threshold)
	}
	if g1.Generation() != 1 || p.Generation() != 0 {
		t.Fatalf("generations = (%d, %d), want candidate 1 / incumbent 0",
			g1.Generation(), p.Generation())
	}
}

func TestHSMMPredictorWindowValidation(t *testing.T) {
	failure, nonFailure := labeledWindow(1, 5)
	clf, err := TrainClassifier(failure, nonFailure, Config{States: 2, MaxIter: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	empty := func(now float64) ([]eventlog.Sequence, []eventlog.Sequence, error) {
		return nil, nonFailure, nil
	}
	p, err := NewPredictor(clf,
		func(float64) (eventlog.Sequence, error) { return failure[0], nil }, empty,
		Config{States: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CaptureWindow(0); err == nil {
		t.Fatal("capture should reject a one-class window")
	}
	if _, err := p.Retrain(42); err == nil {
		t.Fatal("Retrain should reject a foreign window type")
	}
}

// TestHSMMPredictorEvaluateBatch: the batch path must score every
// gathered window bit-identically to per-time Evaluate — the
// core.BatchPredictor contract.
func TestHSMMPredictorEvaluateBatch(t *testing.T) {
	failure, nonFailure := labeledWindow(1, 10)
	cfg := Config{States: 2, MaxIter: 10, Seed: 3}
	clf, err := TrainClassifier(failure, nonFailure, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The sequence source varies with now: each time selects a different
	// window, so the batch really exercises distinct scores.
	all := append(append([]eventlog.Sequence{}, failure[:3]...), nonFailure[:3]...)
	p, err := NewPredictor(clf,
		func(now float64) (eventlog.Sequence, error) { return all[int(now)%len(all)], nil },
		func(now float64) ([]eventlog.Sequence, []eventlog.Sequence, error) {
			return failure, nonFailure, nil
		}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nows := []float64{0, 1, 2, 3, 4, 5}
	out := make([]float64, len(nows))
	if err := p.EvaluateBatch(nows, out); err != nil {
		t.Fatal(err)
	}
	distinct := false
	for i, now := range nows {
		want, err := p.Evaluate(now)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("EvaluateBatch[%d] = %g, Evaluate(%g) = %g — want bit-identical", i, out[i], now, want)
		}
		if i > 0 && out[i] != out[0] {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("all batch scores identical — sequence source did not vary, test is vacuous")
	}
	// The gather buffer is per-predictor scratch: a warmed predictor gathers
	// into the same array again, and keeps no window alive between calls
	// (TestPredictorEvaluateBatchZeroAlloc counts the allocations).
	buf := &p.seqs[:1][0]
	if err := p.EvaluateBatch(nows[:1], out[:1]); err != nil {
		t.Fatal(err)
	}
	if &p.seqs[:1][0] != buf {
		t.Fatal("a shorter batch reallocated the gather buffer")
	}
	for i, s := range p.seqs[:cap(p.seqs)] {
		if s.Times != nil || s.Types != nil {
			t.Fatalf("gather slot %d still references a window after the call", i)
		}
	}
}

// TestHSMMPredictorEvaluateBatchSourceError: a failing sequence source
// fails the whole batch (full-chunk abstain at the layer above).
func TestHSMMPredictorEvaluateBatchSourceError(t *testing.T) {
	p := testHSMMPredictor(t)
	bad, err := NewPredictor(p.Classifier(),
		func(now float64) (eventlog.Sequence, error) {
			if now > 1 {
				return eventlog.Sequence{}, ErrModel
			}
			return eventlog.Sequence{Times: []float64{0.1}, Types: []int{0}}, nil
		},
		func(now float64) ([]eventlog.Sequence, []eventlog.Sequence, error) {
			return nil, nil, ErrModel
		}, Config{States: 2, MaxIter: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 3)
	if err := bad.EvaluateBatch([]float64{0, 1, 2}, out); err == nil {
		t.Fatal("batch with a failing sequence source did not error")
	}
}

// TestScoreAllIntoShortOut: the batch kernel rejects an undersized out
// instead of truncating silently.
func TestScoreAllIntoShortOut(t *testing.T) {
	failure, nonFailure := labeledWindow(1, 4)
	clf, err := TrainClassifier(failure, nonFailure, Config{States: 2, MaxIter: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.ScoreAllInto(failure, make([]float64, len(failure)-1)); err == nil {
		t.Fatal("undersized out accepted")
	}
}

// TestPredictorEvaluateBatchZeroAlloc: a warmed EvaluateBatch allocates
// nothing, whether each window is unlike the one scored before it (scored
// in the predictor's scoreSpace and copied into the memo), begins with it
// (the forward passes resume where the memo's ended) or equals it (the
// memo's score is returned), and every score is Score's, bit for bit.
func TestPredictorEvaluateBatchZeroAlloc(t *testing.T) {
	failure, nonFailure := labeledWindow(1, 10)
	clf, err := TrainClassifier(failure, nonFailure, Config{States: 2, MaxIter: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := failure[0]
	windows := []eventlog.Sequence{a, nonFailure[0], {Times: a.Times[:4], Types: a.Types[:4]}}
	p, err := NewPredictor(clf,
		func(now float64) (eventlog.Sequence, error) { return windows[int(now)], nil }, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 2)
	for _, c := range []struct {
		name string
		nows []float64
	}{{"unlike", []float64{0, 1}}, {"grown", []float64{2, 0}}, {"equal", []float64{1, 1}}} {
		run := func() {
			if err := p.EvaluateBatch(c.nows, out); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if a := testing.AllocsPerRun(100, run); a != 0 {
			t.Errorf("%s: EvaluateBatch allocates %.1f per call, want 0", c.name, a)
		}
		for i, now := range c.nows {
			want, err := clf.Score(windows[int(now)])
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Errorf("%s: out[%d] = %g, want %g", c.name, i, out[i], want)
			}
		}
	}
}
