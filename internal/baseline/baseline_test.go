package baseline

import (
	"math"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

func seqFromDelays(delays []float64, typ int) eventlog.Sequence {
	times := make([]float64, len(delays)+1)
	types := make([]int, len(delays)+1)
	for i := range types {
		types[i] = typ
	}
	for i, d := range delays {
		times[i+1] = times[i] + d
	}
	return eventlog.Sequence{Times: times, Types: types}
}

func TestDFTAcceleratingBeatsSteady(t *testing.T) {
	var d DFT
	accel, err := d.Score(seqFromDelays([]float64{16, 8, 4, 2, 1}, 1))
	if err != nil {
		t.Fatal(err)
	}
	steady, err := d.Score(seqFromDelays([]float64{4, 4, 4, 4, 4}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if accel <= steady {
		t.Fatalf("accelerating %g not above steady %g", accel, steady)
	}
	if steady != 0 {
		t.Fatalf("steady arrivals scored %g, want 0", steady)
	}
}

// TestDFTScoreZeroAlloc: DFT reads the frames straight off the event
// times, allocating nothing. The accelerating trace scores its four
// halvings, two monotone-run steps and two 4-in-1 pile-ups.
func TestDFTScoreZeroAlloc(t *testing.T) {
	var d DFT
	seq := seqFromDelays([]float64{16, 8, 4, 2, 1}, 1)
	var got float64
	allocs := testing.AllocsPerRun(100, func() {
		got, _ = d.Score(seq)
	})
	if allocs != 0 {
		t.Fatalf("DFT.Score allocates %.1f per call, want 0", allocs)
	}
	if got != 8 {
		t.Fatalf("accelerating trace scored %g, want 8", got)
	}
}

func TestDFTEmptyAndSingle(t *testing.T) {
	var d DFT
	if s, _ := d.Score(eventlog.Sequence{}); s != 0 {
		t.Fatalf("empty sequence score %g", s)
	}
	if s, _ := d.Score(seqFromDelays(nil, 1)); s != 0 {
		t.Fatalf("single event score %g", s)
	}
}

func TestErrorRate(t *testing.T) {
	e := ErrorRate{Window: 10}
	s, err := e.Score(seqFromDelays([]float64{1, 1, 1, 1}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s != 0.5 { // 5 events / 10 s
		t.Fatalf("rate = %g", s)
	}
	raw := ErrorRate{}
	s, _ = raw.Score(seqFromDelays([]float64{1}, 1))
	if s != 2 {
		t.Fatalf("raw count = %g", s)
	}
}

func TestEventSetLearnsIndicativeTypes(t *testing.T) {
	fail := []eventlog.Sequence{
		{Times: []float64{0, 1}, Types: []int{1, 2}},
		{Times: []float64{0, 1}, Types: []int{1, 2}},
		{Times: []float64{0}, Types: []int{1}},
	}
	non := []eventlog.Sequence{
		{Times: []float64{0, 1}, Types: []int{3, 4}},
		{Times: []float64{0}, Types: []int{3}},
		{Times: []float64{0}, Types: []int{4}},
	}
	m, err := TrainEventSet(fail, non, 1)
	if err != nil {
		t.Fatal(err)
	}
	fScore, err := m.Score(eventlog.Sequence{Times: []float64{0, 1}, Types: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	nScore, err := m.Score(eventlog.Sequence{Times: []float64{0, 1}, Types: []int{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if fScore <= nScore {
		t.Fatalf("failure pattern %g not above benign pattern %g", fScore, nScore)
	}
	// Repeated types count once (sets, not bags).
	once, _ := m.Score(eventlog.Sequence{Times: []float64{0}, Types: []int{1}})
	thrice, _ := m.Score(eventlog.Sequence{Times: []float64{0, 1, 2}, Types: []int{1, 1, 1}})
	if once != thrice {
		t.Fatalf("set semantics violated: %g vs %g", once, thrice)
	}
}

func TestEventSetValidation(t *testing.T) {
	if _, err := TrainEventSet(nil, nil, 1); err == nil {
		t.Fatal("empty training accepted")
	}
}

func TestTrendDetectsLeak(t *testing.T) {
	// Free memory shrinking: direction −1 means shrinkage is bad.
	s := timeseries.New("mem.free")
	for i := 0; i <= 10; i++ {
		if err := s.Append(float64(i*60), 1000-float64(i)*50); err != nil {
			t.Fatal(err)
		}
	}
	tr := Trend{Direction: -1, Window: 600}
	score, err := tr.Score(s, 600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(score-50.0/60.0) > 1e-9 {
		t.Fatalf("leak trend score = %g", score)
	}
	// A healthy flat series scores ≈ 0.
	flat := timeseries.New("flat")
	for i := 0; i <= 10; i++ {
		_ = flat.Append(float64(i*60), 1000)
	}
	score, err = tr.Score(flat, 600)
	if err != nil {
		t.Fatal(err)
	}
	if score != 0 {
		t.Fatalf("flat trend score = %g", score)
	}
}

func TestTrendValidation(t *testing.T) {
	s := timeseries.New("x")
	if _, err := (Trend{Direction: 0.5, Window: 10}).Score(s, 0); err == nil {
		t.Fatal("bad direction accepted")
	}
	if _, err := (Trend{Direction: 1, Window: 0}).Score(s, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	// Too few points: no signal, no error.
	if got, err := (Trend{Direction: 1, Window: 10}).Score(s, 5); err != nil || got != 0 {
		t.Fatalf("empty window = %g, %v", got, err)
	}
}

func TestFailureTrackerRecoversWeibullShape(t *testing.T) {
	g := stats.NewRNG(9)
	aging := stats.Weibull{K: 3, Lambda: 100}
	samples := make([]float64, 3000)
	for i := range samples {
		samples[i] = aging.Sample(g)
	}
	f, err := FitFailureTracker(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Shape()-3) > 0.3 {
		t.Fatalf("fitted shape %g, want ≈3", f.Shape())
	}
	// Aging hazard grows with elapsed time.
	h1, err := f.Score(50)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := f.Score(150)
	if err != nil {
		t.Fatal(err)
	}
	if h2 <= h1 {
		t.Fatalf("aging hazard not increasing: %g, %g", h1, h2)
	}
}

func TestFailureTrackerValidation(t *testing.T) {
	if _, err := FitFailureTracker([]float64{5}); err == nil {
		t.Fatal("single sample accepted")
	}
	if _, err := FitFailureTracker([]float64{5, -1}); err == nil {
		t.Fatal("negative inter-failure time accepted")
	}
	f, err := FitFailureTracker([]float64{10, 12, 9, 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Score(-1); err == nil {
		t.Fatal("negative elapsed time accepted")
	}
}
