package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

// constPredictor is a fixed-score LayerPredictor for handle tests.
type constPredictor struct {
	score float64
	err   error
}

func (p *constPredictor) Evaluate(float64) (float64, error) { return p.score, p.err }

// TestLayerHandleVersioning pins the versioned-handle contract: the
// initial predictor serves as version 1, every swap bumps the version and
// redirects scoring, and the previous predictor comes back for rollback.
func TestLayerHandleVersioning(t *testing.T) {
	l := &Layer{Name: "app", Predictor: PredictorFunc(func(float64) (float64, error) { return 0.25, nil })}
	if v := l.Version(); v != 1 {
		t.Fatalf("initial version = %d, want 1", v)
	}
	if s := score(l, 0); s != 0.25 {
		t.Fatalf("score through wrapped closure = %v", s)
	}

	repl := &constPredictor{score: 0.75}
	prev, v := l.SwapPredictor(repl)
	if v != 2 {
		t.Fatalf("version after swap = %d, want 2", v)
	}
	if s := score(l, 0); s != 0.75 {
		t.Fatalf("score after swap = %g, want 0.75", s)
	}
	if s, err := prev.Evaluate(0); err != nil || s != 0.25 {
		t.Fatalf("previous predictor = %v, %v; want the original closure", s, err)
	}

	// Rollback is just another swap: the version keeps rising.
	if _, v := l.SwapPredictor(prev); v != 3 {
		t.Fatalf("version after rollback = %d, want 3", v)
	}
	if s := score(l, 0); s != 0.25 {
		t.Fatalf("score after rollback = %g, want 0.25", s)
	}
	if p, v := l.Current(); v != 3 {
		t.Fatalf("Current version = %d, want 3", v)
	} else if s, _ := p.Evaluate(0); s != 0.25 {
		t.Fatalf("Current predictor scores %g, want the original 0.25", s)
	}
}

// TestLayerEvalErrorsCounted: failed evaluations are counted per layer —
// through the engine's EvaluateLayersBatch and direct ScoreBatch calls
// alike.
func TestLayerEvalErrorsCounted(t *testing.T) {
	boom := errors.New("sensor offline")
	bad := &Layer{Name: "bad", Predictor: &constPredictor{err: boom}, Threshold: 0.5}
	good := constLayer("good", 0.9)
	eng, err := New(nil, []*Layer{bad, good}, nil, testSelector(t),
		testActions(t, &scriptedTarget{}), nil, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	scores := evaluate(eng, 1)
	if !math.IsNaN(scores[0]) || scores[1] != 0.9 {
		t.Fatalf("scores = %v, want [NaN 0.9]", scores)
	}
	if n := bad.EvalErrors(); n != 1 {
		t.Fatalf("bad.EvalErrors = %d, want 1", n)
	}
	if n := good.EvalErrors(); n != 0 {
		t.Fatalf("good.EvalErrors = %d, want 0", n)
	}
	if s := score(bad, 2); !math.IsNaN(s) {
		t.Fatalf("failing layer scored %g, want NaN", s)
	}
	if n := bad.EvalErrors(); n != 2 {
		t.Fatalf("bad.EvalErrors = %d, want 2", n)
	}
}

// TestActOnCombinerErrorCounted: a failing combiner no longer disappears —
// the decision is flagged and the engine counts it.
func TestActOnCombinerErrorCounted(t *testing.T) {
	combiner := func([]float64) (float64, error) { return 0, errors.New("degenerate weights") }
	eng, err := New(nil, []*Layer{constLayer("app", 0.9)}, combiner, testSelector(t),
		testActions(t, &scriptedTarget{}), nil, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	d := eng.ActOn(1, []float64{0.9})
	if !d.CombinerErr || d.Confidence != 0 || d.Warned {
		t.Fatalf("decision = %+v, want CombinerErr with zero confidence", d)
	}
	if n := eng.CombinerErrors(); n != 1 {
		t.Fatalf("CombinerErrors = %d, want 1", n)
	}
}

// TestDecisionLayerVersions: decisions carry the serving version of every
// layer, and they track hot swaps.
func TestDecisionLayerVersions(t *testing.T) {
	l1 := constLayer("a", 0.9)
	l2 := constLayer("b", 0.1)
	eng, err := New(nil, []*Layer{l1, l2}, nil, testSelector(t),
		testActions(t, &scriptedTarget{}), nil, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	d := eng.ActOn(1, evaluate(eng, 1))
	if len(d.LayerVersions) != 2 || d.LayerVersions[0] != 1 || d.LayerVersions[1] != 1 {
		t.Fatalf("versions = %v, want [1 1]", d.LayerVersions)
	}
	l2.SwapPredictor(&constPredictor{score: 0.2})
	d = eng.ActOn(2, evaluate(eng, 2))
	if d.LayerVersions[0] != 1 || d.LayerVersions[1] != 2 {
		t.Fatalf("versions after swap = %v, want [1 2]", d.LayerVersions)
	}
}

// TestConcurrentSwapAndScore hammers SwapPredictor against scoring from many
// goroutines (run with -race): every score must come from a coherent
// predictor and the version must end exactly at 1 + swaps.
func TestConcurrentSwapAndScore(t *testing.T) {
	l := &Layer{Name: "hot", Predictor: &constPredictor{score: 0.5}}
	const (
		swappers = 4
		swapsPer = 250
		scorers  = 4
	)
	var wg sync.WaitGroup
	for s := 0; s < swappers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < swapsPer; i++ {
				l.SwapPredictor(&constPredictor{score: float64(s)})
			}
		}(s)
	}
	for s := 0; s < scorers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if s := score(l, float64(i)); math.IsNaN(s) {
					t.Errorf("score at %d abstained", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if v := l.Version(); v != 1+swappers*swapsPer {
		t.Fatalf("final version = %d, want %d", v, 1+swappers*swapsPer)
	}
}

// TestPredictorFuncAdapter keeps the adapter honest.
func TestPredictorFuncAdapter(t *testing.T) {
	p := PredictorFunc(func(now float64) (float64, error) {
		if now < 0 {
			return 0, fmt.Errorf("negative time")
		}
		return now * 2, nil
	})
	if s, err := p.Evaluate(3); err != nil || s != 6 {
		t.Fatalf("Evaluate = %v, %v", s, err)
	}
	if _, err := p.Evaluate(-1); err == nil {
		t.Fatal("error should pass through")
	}
}

// TestLayerScoreZeroAllocs pins the versioned handle's read-side overhead:
// one atomic load per evaluation, no allocation — before and after a swap.
func TestLayerScoreZeroAllocs(t *testing.T) {
	layer := &Layer{
		Name:      "l",
		Predictor: PredictorFunc(func(float64) (float64, error) { return 0.5, nil }),
		Threshold: 0.5,
	}
	nows, out := []float64{1}, make([]float64, 1)
	scoreOne := func() {
		if layer.ScoreBatch(nows, out); out[0] == 0 || math.IsNaN(out[0]) {
			t.Fatalf("score = %g", out[0])
		}
	}
	scoreOne()
	if allocs := testing.AllocsPerRun(1000, scoreOne); allocs != 0 {
		t.Fatalf("Layer.ScoreBatch allocates %.1f objects/op, want 0", allocs)
	}
	layer.SwapPredictor(PredictorFunc(func(float64) (float64, error) { return 0.7, nil }))
	if allocs := testing.AllocsPerRun(1000, scoreOne); allocs != 0 {
		t.Fatalf("Layer.ScoreBatch allocates %.1f objects/op after a swap, want 0", allocs)
	}
}
