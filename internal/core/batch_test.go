package core

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// batchStub is a BatchPredictor whose per-time score is a pure function of
// the time, so serial and batched evaluation must agree bit-for-bit. It
// counts kernel invocations to prove the batch path really is one call.
type batchStub struct {
	calls int
	err   error
}

func (p *batchStub) score(now float64) float64 { return math.Sin(3*now) + 0.25*now }

func (p *batchStub) Evaluate(now float64) (float64, error) {
	if p.err != nil {
		return 0, p.err
	}
	return p.score(now), nil
}

func (p *batchStub) EvaluateBatch(nows []float64, out []float64) error {
	p.calls++
	if p.err != nil {
		return p.err
	}
	for i, now := range nows {
		out[i] = p.score(now)
	}
	return nil
}

func batchTimes(n int) []float64 {
	nows := make([]float64, n)
	for i := range nows {
		nows[i] = 0.1 + 0.7*float64(i)
	}
	return nows
}

// TestScoreBatchKernelPath: a BatchPredictor layer scores the whole batch
// in one kernel call, bit-identical to a serial Evaluate scan.
func TestScoreBatchKernelPath(t *testing.T) {
	stub := &batchStub{}
	l := &Layer{Name: "batched", Threshold: 0.5}
	l.SwapPredictor(stub)

	nows := batchTimes(17)
	want := make([]float64, len(nows))
	for i, now := range nows {
		s, err := stub.Evaluate(now)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}

	out := make([]float64, len(nows))
	l.ScoreBatch(nows, out)
	if stub.calls != 1 {
		t.Fatalf("kernel calls = %d, want 1", stub.calls)
	}
	for i := range out {
		if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
			t.Fatalf("out[%d] = %g, serial Evaluate = %g — batch must be bit-identical", i, out[i], want[i])
		}
	}
	if got := l.EvalErrors(); got != 0 {
		t.Fatalf("EvalErrors = %d after clean runs, want 0", got)
	}
}

// TestScoreBatchKernelError: a failing batch kernel abstains the whole
// chunk and accounts one evaluation error per time — the same count a
// uniformly failing serial scan would produce.
func TestScoreBatchKernelError(t *testing.T) {
	stub := &batchStub{err: errors.New("window capture failed")}
	l := &Layer{Name: "failing", Threshold: 0.5}
	l.SwapPredictor(stub)

	nows := batchTimes(9)
	out := make([]float64, len(nows))
	for i := range out {
		out[i] = 42 // ensure every slot is overwritten
	}
	l.ScoreBatch(nows, out)
	for i, s := range out {
		if !math.IsNaN(s) {
			t.Fatalf("out[%d] = %g, want NaN abstention", i, s)
		}
	}
	if got := l.EvalErrors(); got != int64(len(nows)) {
		t.Fatalf("EvalErrors = %d, want %d (one per batched time)", got, len(nows))
	}
}

// erraticPredictor is a plain LayerPredictor (no batch kernel) that fails
// only at one specific time, exercising ScoreBatch's serial fallback.
type erraticPredictor struct{ failAt float64 }

func (p *erraticPredictor) Evaluate(now float64) (float64, error) {
	if now == p.failAt {
		return 0, errors.New("transient")
	}
	return 2 * now, nil
}

// TestScoreBatchSerialFallback: a non-batch predictor is scanned per time —
// a single failing time abstains only its own slot and counts one error.
func TestScoreBatchSerialFallback(t *testing.T) {
	nows := batchTimes(8)
	l := &Layer{Name: "fallback", Threshold: 0.5}
	l.SwapPredictor(&erraticPredictor{failAt: nows[3]})

	out := make([]float64, len(nows))
	l.ScoreBatch(nows, out)
	for i, s := range out {
		if i == 3 {
			if !math.IsNaN(s) {
				t.Fatalf("out[3] = %g, want NaN for the failing time", s)
			}
			continue
		}
		if want := 2 * nows[i]; math.Float64bits(s) != math.Float64bits(want) {
			t.Fatalf("out[%d] = %g, want %g", i, s, want)
		}
	}
	if got := l.EvalErrors(); got != 1 {
		t.Fatalf("EvalErrors = %d, want 1 (only the failing time)", got)
	}
}

// TestEvaluateLayersBatchLayout pins the layer-major flat matrix contract:
// out[j*len(nows)+i] is layer j at nows[i], equal to scoring each layer at
// each time alone, and a mis-sized out panics.
func TestEvaluateLayersBatchLayout(t *testing.T) {
	layers := []*Layer{
		{Name: "kernel", Threshold: 0.5, Predictor: &batchStub{}},
		constLayer("flat", 0.4),
		{Name: "sometimes", Threshold: 0.5, Predictor: PredictorFunc(func(now float64) (float64, error) {
			if now > 2 {
				return 0, errors.New("late failure")
			}
			return now / 10, nil
		})},
	}
	eng, err := New(nil, layers, nil, testSelector(t), testActions(t, &scriptedTarget{}), nil, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}

	nows := batchTimes(5)
	out := make([]float64, len(layers)*len(nows))
	eng.EvaluateLayersBatch(nows, out)
	for i, now := range nows {
		for j, l := range layers {
			got, want := out[j*len(nows)+i], score(l, now)
			if math.Float64bits(got) != math.Float64bits(want) &&
				!(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("out[%d*%d+%d] = %g, layer %d alone at %g = %g",
					j, len(nows), i, got, j, now, want)
			}
		}
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mis-sized out did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "EvaluateLayersBatch") {
			t.Fatalf("panic = %v, want an EvaluateLayersBatch size message", r)
		}
	}()
	eng.EvaluateLayersBatch(nows, out[:len(out)-1])
}
