package baseline

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/stats"
)

// healthyCluster draws observations around a normal operating point with
// correlated structure (two sensors move together).
func healthyCluster(g *stats.RNG, n int) *mat.Matrix {
	x := mat.New(n, 3)
	for i := 0; i < n; i++ {
		base := g.NormFloat64()
		x.Set(i, 0, 10+base)
		x.Set(i, 1, 20+2*base+0.2*g.NormFloat64())
		x.Set(i, 2, 5+0.5*g.NormFloat64())
	}
	return x
}

func TestMSETReconstructsHealthyStates(t *testing.T) {
	g := stats.NewRNG(111)
	m, err := TrainMSET(healthyCluster(g, 300), MSETConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh healthy observations score low; out-of-envelope ones score
	// high — including a correlation break where each sensor is
	// individually in range.
	healthyScores, anomalyScores := 0.0, 0.0
	sc := m.NewScratch()
	for trial := 0; trial < 50; trial++ {
		base := g.NormFloat64()
		healthy := []float64{10 + base, 20 + 2*base, 5 + 0.5*g.NormFloat64()}
		s, err := m.Score(healthy, sc)
		if err != nil {
			t.Fatal(err)
		}
		healthyScores += s
		// Break the sensor correlation: x0 high while x1 low.
		anomaly := []float64{12, 16, 5}
		s, err = m.Score(anomaly, sc)
		if err != nil {
			t.Fatal(err)
		}
		anomalyScores += s
	}
	if anomalyScores <= healthyScores*2 {
		t.Fatalf("MSET separation too weak: healthy=%g anomaly=%g",
			healthyScores/50, anomalyScores/50)
	}
}

func TestMSETEstimateDims(t *testing.T) {
	g := stats.NewRNG(113)
	m, err := TrainMSET(healthyCluster(g, 100), MSETConfig{MemorySize: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Score([]float64{1, 2}, m.NewScratch()); err == nil {
		t.Fatal("wrong dim accepted")
	}
	est, err := m.estimate([]float64{10, 20, 5}, m.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != 3 {
		t.Fatalf("estimate dim = %d", len(est))
	}
}

func TestTrainMSETValidation(t *testing.T) {
	g := stats.NewRNG(115)
	if _, err := TrainMSET(mat.New(1, 2), MSETConfig{}); err == nil {
		t.Fatal("single observation accepted")
	}
	if _, err := TrainMSET(healthyCluster(g, 50), MSETConfig{MemorySize: 1}); err == nil {
		t.Fatal("memory size 1 accepted")
	}
	if _, err := TrainMSET(healthyCluster(g, 50), MSETConfig{Ridge: -1}); err == nil {
		t.Fatal("negative ridge accepted")
	}
	if _, err := TrainMSET(healthyCluster(g, 50), MSETConfig{Bandwidth: -1}); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

func TestMSETMemorySelectionCoversExtremes(t *testing.T) {
	// A data set with one extreme row per sensor: those rows must be
	// memorized so the envelope covers them.
	x := mat.New(20, 2)
	g := stats.NewRNG(117)
	for i := 0; i < 20; i++ {
		x.Set(i, 0, g.Float64())
		x.Set(i, 1, g.Float64())
	}
	x.Set(7, 0, 100)  // extreme sensor 0
	x.Set(13, 1, -50) // extreme sensor 1
	m, err := TrainMSET(x, MSETConfig{MemorySize: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The extremes reconstruct almost exactly (they are in memory).
	s, err := m.Score(x.Row(7), m.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if s > 1 {
		t.Fatalf("memorized extreme scores %g", s)
	}
}

// TestMSETScoreZeroAlloc: with a caller's scratch, Score allocates nothing,
// and a scratch reused row after row scores each row bit for bit as the
// allocating formulation does (fresh similarity vector, SolveVec, VecMul).
func TestMSETScoreZeroAlloc(t *testing.T) {
	g := stats.NewRNG(119)
	m, err := TrainMSET(healthyCluster(g, 200), MSETConfig{MemorySize: 30})
	if err != nil {
		t.Fatal(err)
	}
	sc := m.NewScratch()
	rows := healthyCluster(g, 40)
	for r := 0; r < rows.Rows; r++ {
		x := rows.RowView(r)
		if r%3 == 0 {
			x = []float64{12, 16, float64(r)} // out of the envelope
		}
		got, err := m.Score(x, sc)
		if err != nil {
			t.Fatal(err)
		}
		sim := make([]float64, m.memory.Rows)
		for i := range sim {
			sim[i] = m.similarity(m.memory.RowView(i), x)
		}
		w, err := m.ginv.SolveVec(sim)
		if err != nil {
			t.Fatal(err)
		}
		est, err := m.memory.VecMul(w)
		if err != nil {
			t.Fatal(err)
		}
		if want := distance(x, est); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d: Score %v, allocating formulation %v", r, got, want)
		}
	}
	x := rows.RowView(5)
	if allocs := testing.AllocsPerRun(100, func() { _, _ = m.Score(x, sc) }); allocs != 0 {
		t.Fatalf("warmed Score allocates %.1f/op, want 0", allocs)
	}
}
