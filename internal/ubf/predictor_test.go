package ubf

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/stats"
)

// trainWindow builds a synthetic regression window y = f(x) + noise.
func trainWindow(t *testing.T, seed int64, n int, shift float64) (*mat.Matrix, []float64) {
	t.Helper()
	g := stats.NewRNG(seed)
	x := mat.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := g.Float64(), g.Float64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y[i] = math.Sin(3*a) + 0.5*b + shift + 0.01*g.NormFloat64()
	}
	return x, y
}

func testPredictor(t *testing.T, winShift float64) *Predictor {
	t.Helper()
	x, y := trainWindow(t, 11, 60, 0)
	cfg := TrainConfig{NumKernels: 4, Candidates: 6, Refinements: 3, Seed: 5}
	net, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wx, wy := trainWindow(t, 12, 60, winShift)
	p, err := NewPredictor(net,
		func(now float64) ([]float64, error) { return []float64{0.3, 0.7}, nil },
		func(now float64) (*mat.Matrix, []float64, error) { return wx, wy, nil },
		cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPredictorEvaluate(t *testing.T) {
	p := testPredictor(t, 0)
	s, err := p.Evaluate(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Network().Predict([]float64{0.3, 0.7})
	if err != nil || s != want {
		t.Fatalf("Evaluate = %g, want network prediction %g (err %v)", s, want, err)
	}
}

// TestPredictorRetrainDeterministic: the full capture→retrain path must be
// bit-identical across repetitions and across GOMAXPROCS settings (the
// issue's acceptance criterion for retraining determinism). Snapshots
// compare the serialized networks byte-for-byte.
func TestPredictorRetrainDeterministic(t *testing.T) {
	p := testPredictor(t, 0.5)
	retrainOnce := func() []byte {
		w, err := p.CaptureWindow(100)
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
	for _, procs := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		got := retrainOnce()
		runtime.GOMAXPROCS(prev)
		if !bytes.Equal(ref, got) {
			t.Fatalf("retrain not bit-identical at GOMAXPROCS=%d", procs)
		}
	}
}

// TestPredictorRetrainGenerationChain: generations advance and their seeds
// derive from the base seed, not from each other's mutated copies.
func TestPredictorRetrainGenerationChain(t *testing.T) {
	p := testPredictor(t, 0.5)
	if p.Generation() != 0 {
		t.Fatalf("initial generation = %d", p.Generation())
	}
	w, err := p.CaptureWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := p.Retrain(w)
	if err != nil {
		t.Fatal(err)
	}
	g1 := c1.(*Predictor)
	if g1.Generation() != 1 {
		t.Fatalf("candidate generation = %d, want 1", g1.Generation())
	}
	// Retraining the candidate advances to generation 2 (its distinct seed:
	// stats.TestStreamSeed).
	c2, err := g1.Retrain(w)
	if err != nil {
		t.Fatal(err)
	}
	if c2.(*Predictor).Generation() != 2 {
		t.Fatalf("second candidate generation = %d, want 2", c2.(*Predictor).Generation())
	}
	// The incumbent is untouched by retraining.
	if p.Generation() != 0 {
		t.Fatal("Retrain mutated the incumbent")
	}
}

// TestPredictorCaptureCopies: mutating the source window after capture
// must not leak into the retrain data.
func TestPredictorCaptureCopies(t *testing.T) {
	x, y := trainWindow(t, 21, 40, 0)
	net, err := Train(x, y, TrainConfig{NumKernels: 3, Candidates: 4, Refinements: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(net,
		func(float64) ([]float64, error) { return []float64{0.5, 0.5}, nil },
		func(float64) (*mat.Matrix, []float64, error) { return x, y, nil },
		TrainConfig{NumKernels: 3, Candidates: 4, Refinements: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	wAny, err := p.CaptureWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	w := wAny.(*Window)
	x.Set(0, 0, 999)
	y[0] = 999
	if w.X.At(0, 0) == 999 || w.Y[0] == 999 {
		t.Fatal("captured window aliases the live training data")
	}
}

func TestPredictorWithoutWindowSource(t *testing.T) {
	x, y := trainWindow(t, 31, 40, 0)
	net, err := Train(x, y, TrainConfig{NumKernels: 3, Candidates: 4, Refinements: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(net,
		func(float64) ([]float64, error) { return []float64{0.5, 0.5}, nil }, nil,
		TrainConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CaptureWindow(0); err == nil {
		t.Fatal("CaptureWindow should fail without a window source")
	}
	if _, err := p.Retrain("bogus"); err == nil {
		t.Fatal("Retrain should reject a foreign window type")
	}
	var _ core.LayerPredictor = p
}

// TestPredictorEvaluateBatch: the fused batch kernel must score every
// time bit-identically to per-time Evaluate — this is the core.BatchPredictor
// contract the runtime's chunk-parity guarantee rests on.
func TestPredictorEvaluateBatch(t *testing.T) {
	x, y := trainWindow(t, 11, 60, 0)
	cfg := TrainConfig{NumKernels: 4, Candidates: 6, Refinements: 3, Seed: 5}
	net, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(net,
		func(now float64) ([]float64, error) {
			return []float64{0.3 + 0.01*now, 0.7 - 0.02*now}, nil
		},
		func(now float64) (*mat.Matrix, []float64, error) { return x, y, nil },
		cfg)
	if err != nil {
		t.Fatal(err)
	}
	nows := []float64{0, 1.5, 3, 7.25, 12}
	out := make([]float64, len(nows))
	if err := p.EvaluateBatch(nows, out); err != nil {
		t.Fatal(err)
	}
	for i, now := range nows {
		want, err := p.Evaluate(now)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("EvaluateBatch[%d] = %g, Evaluate(%g) = %g — want bit-identical", i, out[i], now, want)
		}
	}
	if err := p.EvaluateBatch(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	// The design matrix is per-predictor scratch: a shorter batch after a
	// longer one must not read the longer one's rows, and a warmed predictor
	// over a non-allocating feature source allocates nothing.
	if err := p.EvaluateBatch(nows[3:], out[:2]); err != nil {
		t.Fatal(err)
	}
	if want, _ := p.Evaluate(nows[4]); math.Float64bits(out[1]) != math.Float64bits(want) {
		t.Fatalf("shorter batch after a longer one: got %g, want %g", out[1], want)
	}
	row := make([]float64, 2)
	q, err := NewPredictor(net, func(now float64) ([]float64, error) {
		row[0], row[1] = 0.3+0.01*now, 0.7-0.02*now
		return row, nil
	}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.EvaluateBatch(nows, out); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = q.EvaluateBatch(nows[:1], out[:1]) }); allocs != 0 {
		t.Fatalf("warmed EvaluateBatch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPredictorEvaluateBatchFeatureError: a failing feature source fails
// the whole batch — the layer above turns that into a full-chunk abstain.
func TestPredictorEvaluateBatchFeatureError(t *testing.T) {
	p := testPredictor(t, 0)
	bad, err := NewPredictor(p.Network(),
		func(now float64) ([]float64, error) {
			if now > 1 {
				return nil, ErrUBF
			}
			return []float64{0.3, 0.7}, nil
		},
		func(now float64) (*mat.Matrix, []float64, error) { return nil, nil, ErrUBF },
		TrainConfig{NumKernels: 4, Candidates: 6, Refinements: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 3)
	if err := bad.EvaluateBatch([]float64{0, 0.5, 2}, out); err == nil {
		t.Fatal("batch with a failing feature source did not error")
	}
}
