package ubf

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"repro/internal/mat"
	"repro/internal/stats"
)

// TestEvalAllMatchesScalarKernels pins the flattened batch path to the
// scalar Kernel.Eval reference. The flat form precomputes 1/(2w²) and u/w,
// so agreement is to rounding, not bit-exact.
func TestEvalAllMatchesScalarKernels(t *testing.T) {
	g := stats.NewRNG(11)
	x, y := trainData(math.Sin, 60, g)
	net, err := Train(x, y, TrainConfig{NumKernels: 6, Candidates: 5, Refinements: 3, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	k := len(net.Kernels)
	dst := make([]float64, x.Rows*(k+1))
	if err := net.EvalAll(x, dst); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		if got := dst[r*(k+1)]; got != 1 {
			t.Fatalf("row %d: bias column %g, want 1", r, got)
		}
		for i, kn := range net.Kernels {
			want := kn.Eval(row)
			got := dst[r*(k+1)+i+1]
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("row %d kernel %d: flat %g vs scalar %g", r, i, got, want)
			}
		}
	}
	// Predict must agree with the explicit weight dot product over EvalAll.
	for r := 0; r < x.Rows; r++ {
		want := 0.0
		for i, w := range net.Weights {
			want += w * dst[r*(k+1)+i]
		}
		got, err := net.Predict(x.Row(r))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("row %d: Predict %g vs Φ·w %g", r, got, want)
		}
	}
}

// TestEvalAllErrors exercises the dimension and size checks.
func TestEvalAllErrors(t *testing.T) {
	g := stats.NewRNG(13)
	x, y := trainData(math.Sin, 20, g)
	net, err := Train(x, y, TrainConfig{NumKernels: 3, Candidates: 3, Refinements: 1, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.EvalAll(mat.New(4, 2), make([]float64, 4*4)); err == nil {
		t.Fatal("wrong column count accepted")
	}
	if err := net.EvalAll(x, make([]float64, 3)); err == nil {
		t.Fatal("short dst accepted")
	}
	if err := net.PredictRowsInto(x, make([]float64, 3)); err == nil {
		t.Fatal("short out accepted")
	}
}

// TestEvalAllZeroAlloc verifies the batched kernel allocates nothing in
// steady state — the property the case-study scoring loops rely on.
func TestEvalAllZeroAlloc(t *testing.T) {
	g := stats.NewRNG(15)
	x, y := trainData(math.Sin, 100, g)
	net, err := Train(x, y, TrainConfig{NumKernels: 8, Candidates: 4, Refinements: 2, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, x.Rows*(len(net.Kernels)+1))
	out := make([]float64, x.Rows)
	allocs := testing.AllocsPerRun(20, func() {
		if err := net.EvalAll(x, dst); err != nil {
			t.Fatal(err)
		}
		if err := net.PredictRowsInto(x, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EvalAll+PredictRowsInto allocate %g per run, want 0", allocs)
	}
}

// TestTrainBitIdenticalAcrossGOMAXPROCS verifies the parallel candidate
// search honours the determinism contract: the serialized model trained
// with one worker is byte-identical to the one trained with many.
func TestTrainBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	g := stats.NewRNG(17)
	x, y := trainData(func(v float64) float64 { return v*v - math.Cos(3*v) }, 120, g)
	cfg := TrainConfig{NumKernels: 6, Candidates: 12, Refinements: 6, Seed: 18}

	train := func(procs int) []byte {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		net, err := Train(x, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(net)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	serial := train(1)
	for _, procs := range []int{2, 4, 8} {
		if got := train(procs); string(got) != string(serial) {
			t.Fatalf("model differs between GOMAXPROCS=1 and %d", procs)
		}
	}
}

// TestTryKernelsMSEIsPredictRowsMSE pins the shortcut in tryKernels: the
// training MSE it reads off the design matrix is, to the bit, the MSE of the
// returned network's own predictions — one trySpace reused by every trial,
// over random banks on six variables
// whose mixtures are drawn, forced pure-Gaussian (m = 1) or forced
// pure-sigmoid (m = 0), the three branches of the kernel evaluation.
func TestTryKernelsMSEIsPredictRowsMSE(t *testing.T) {
	g := stats.NewRNG(29)
	x, y := selectionData(g, 200)
	cfg := TrainConfig{NumKernels: 7}.withDefaults()
	scale := widthScale(x)
	sp := newTrySpace(x.Rows, cfg.NumKernels+1)
	for trial := 0; trial < 30; trial++ {
		kernels := randomKernels(cfg, x, scale, g.Split(int64(trial)))
		for i := range kernels {
			switch (trial + i) % 3 {
			case 1:
				kernels[i].Mix = 1
			case 2:
				kernels[i].Mix = 0
			}
		}
		if trial%10 == 9 { // a whole bank of one kind
			for i := range kernels {
				kernels[i].Mix = float64(trial / 10 % 2)
			}
		}
		net, got := tryKernels(kernels, x, y, cfg.Ridge, sp)
		if net == nil {
			t.Fatalf("trial %d: unsolvable", trial)
		}
		pred, err := net.PredictRows(x)
		if err != nil {
			t.Fatal(err)
		}
		if want := mse(pred, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: tryKernels MSE %v, PredictRows MSE %v", trial, got, want)
		}
	}
}

// mse returns the mean squared error of predictions vs targets: the oracle
// tryKernels' designMSE is held to.
func mse(pred, y []float64) float64 {
	s := 0.0
	for i, p := range pred {
		d := p - y[i]
		s += d * d
	}
	return s / float64(len(y))
}

// TestTryKernelsSteadyStateAllocs: on a warmed trySpace a try allocates only
// what the returned network keeps — the Network, its flattened bank (the
// evalSet and its four arrays) and the weights, seven objects — and never
// Φ, the normal equations or a prediction vector; and the network it
// returns shares no storage with the space, so the next try cannot change
// it.
func TestTryKernelsSteadyStateAllocs(t *testing.T) {
	g := stats.NewRNG(41)
	x, y := selectionData(g, 300)
	cfg := TrainConfig{NumKernels: 12}.withDefaults()
	scale := widthScale(x)
	kernels := randomKernels(cfg, x, scale, g.Split(1))
	sp := newTrySpace(x.Rows, cfg.NumKernels+1)
	first, firstErr := tryKernels(kernels, x, y, cfg.Ridge, sp)
	if first == nil {
		t.Fatal("unsolvable")
	}
	before, err := first.PredictRows(x)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		tryKernels(kernels, x, y, cfg.Ridge, sp)
	}); allocs != 7 {
		t.Fatalf("warmed tryKernels allocates %.1f/op, want 7 (the network's own)", allocs)
	}
	// Another try on the same space leaves the first network as it was.
	if net, _ := tryKernels(randomKernels(cfg, x, scale, g.Split(2)), x, y, cfg.Ridge, sp); net == nil {
		t.Fatal("second try unsolvable")
	}
	after, err := first.PredictRows(x)
	if err != nil {
		t.Fatal(err)
	}
	if want := mse(after, y); math.Float64bits(firstErr) != math.Float64bits(want) {
		t.Fatalf("first network's MSE moved: %v, now %v", firstErr, want)
	}
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Fatalf("row %d: first network predicts %v, then %v", i, before[i], after[i])
		}
	}
}
