package meta

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/predict"
	"repro/internal/stats"
)

// stackData simulates two base predictors: predictor A is informative but
// noisy, predictor B is informative on the instances where A is blind.
// Stacking both should beat either alone.
func stackData(g *stats.RNG, n int) (*mat.Matrix, []bool) {
	x := mat.New(n, 2)
	y := make([]bool, n)
	for i := 0; i < n; i++ {
		label := g.Bernoulli(0.4)
		y[i] = label
		signal := 0.0
		if label {
			signal = 1
		}
		if g.Bernoulli(0.5) {
			x.Set(i, 0, signal+g.NormFloat64()*0.3)
			x.Set(i, 1, g.NormFloat64()*0.3)
		} else {
			x.Set(i, 0, g.NormFloat64()*0.3)
			x.Set(i, 1, signal+g.NormFloat64()*0.3)
		}
	}
	return x, y
}

func TestTrainLogisticSeparable(t *testing.T) {
	x, _ := mat.FromRows([][]float64{{-2}, {-1.5}, {-1}, {1}, {1.5}, {2}})
	y := []bool{false, false, false, true, true, true}
	m, err := TrainLogistic(x, y, LogisticConfig{Epochs: 2000, Rate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := m.Prob([]float64{-2})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := m.Prob([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if lo > 0.2 || hi < 0.8 {
		t.Fatalf("separable logistic: P(-2)=%g P(2)=%g", lo, hi)
	}
}

func TestTrainLogisticValidation(t *testing.T) {
	x := mat.New(4, 1)
	if _, err := TrainLogistic(x, []bool{true}, LogisticConfig{}); err == nil {
		t.Fatal("mismatched labels accepted")
	}
	if _, err := TrainLogistic(mat.New(1, 1), []bool{true}, LogisticConfig{}); err == nil {
		t.Fatal("single row accepted")
	}
	if _, err := TrainLogistic(x, []bool{true, false, true, false}, LogisticConfig{Rate: -1}); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestProbDimCheck(t *testing.T) {
	m := &Logistic{W: []float64{1, 2}}
	if _, err := m.Prob([]float64{1}); err == nil {
		t.Fatal("wrong dim accepted")
	}
}

// TestStackerBeatsBasePredictors is the library-level version of E11: the
// stacked combination must out-rank each individual base predictor.
func TestStackerBeatsBasePredictors(t *testing.T) {
	g := stats.NewRNG(21)
	trainX, trainY := stackData(g, 400)
	testX, testY := stackData(g, 400)

	s, err := TrainStacker(trainX, trainY, []string{"A", "B"}, LogisticConfig{Epochs: 500, Rate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	aucOfColumn := func(col int) float64 {
		scored := make([]predict.Scored, testX.Rows)
		for r := 0; r < testX.Rows; r++ {
			scored[r] = predict.Scored{Score: testX.At(r, col), Actual: testY[r]}
		}
		auc, err := predict.AUCOf(scored)
		if err != nil {
			t.Fatal(err)
		}
		return auc
	}
	scored := make([]predict.Scored, testX.Rows)
	for r := 0; r < testX.Rows; r++ {
		p, err := s.Score(testX.Row(r))
		if err != nil {
			t.Fatal(err)
		}
		scored[r] = predict.Scored{Score: p, Actual: testY[r]}
	}
	stackAUC, err := predict.AUCOf(scored)
	if err != nil {
		t.Fatal(err)
	}
	aucA, aucB := aucOfColumn(0), aucOfColumn(1)
	if stackAUC <= aucA || stackAUC <= aucB {
		t.Fatalf("stacking AUC %g not above bases %g, %g", stackAUC, aucA, aucB)
	}
}

func TestStackerWeightsExposed(t *testing.T) {
	g := stats.NewRNG(23)
	x, y := stackData(g, 100)
	s, err := TrainStacker(x, y, []string{"hw", "vmm"}, LogisticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w := s.Weights()
	if len(w) != 2 {
		t.Fatalf("weights = %v", w)
	}
	if _, ok := w["hw"]; !ok {
		t.Fatal("weight for hw missing")
	}
}

func TestTrainStackerValidation(t *testing.T) {
	g := stats.NewRNG(25)
	x, y := stackData(g, 50)
	if _, err := TrainStacker(x, y, []string{"only-one"}, LogisticConfig{}); err == nil {
		t.Fatal("wrong name count accepted")
	}
}

func TestNewStackerExplicitWeights(t *testing.T) {
	s, err := NewStacker([]string{"hw", "os"}, []float64{2, -1}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.names; len(got) != 2 || got[0] != "hw" || got[1] != "os" {
		t.Fatalf("names = %v", got)
	}
	// σ(2·0.8 − 1·0.2 + 0.5) = σ(1.9)
	p, err := s.Score([]float64{0.8, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (1 + math.Exp(-1.9))
	if math.Abs(p-want) > 1e-12 {
		t.Fatalf("score = %g, want %g", p, want)
	}
	w := s.Weights()
	if w["hw"] != 2 || w["os"] != -1 {
		t.Fatalf("weights = %v", w)
	}
}

func TestNewStackerValidation(t *testing.T) {
	if _, err := NewStacker(nil, nil, 0); err == nil {
		t.Fatal("empty stacker accepted")
	}
	if _, err := NewStacker([]string{"a"}, []float64{1, 2}, 0); err == nil {
		t.Fatal("name/weight mismatch accepted")
	}
	if _, err := NewStacker([]string{"a"}, []float64{math.NaN()}, 0); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if _, err := NewStacker([]string{"a"}, []float64{1}, math.Inf(1)); err == nil {
		t.Fatal("infinite bias accepted")
	}
}
