package predict

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// TestFailureIn: a failure counts for a prediction at from when it lies in
// (from, to] — after the prediction, up to and including the horizon's end —
// and a run of failures equal to from does not hide a later one.
func TestFailureIn(t *testing.T) {
	fails := []float64{10, 10, 10, 20, 30}
	for _, c := range []struct {
		from, to float64
		want     bool
	}{
		{0, 9.9, false}, {0, 10, true}, {10, 19.9, false}, {10, 20, true},
		{5, 15, true}, {20, 25, false}, {29, 30, true}, {30, 100, false},
		{math.NaN(), 100, false},
	} {
		if got := FailureIn(fails, c.from, c.to); got != c.want {
			t.Errorf("FailureIn(%v, %g, %g) = %v, want %v", fails, c.from, c.to, got, c.want)
		}
	}
	if FailureIn(nil, 0, 1) {
		t.Error("FailureIn(nil) = true")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		predicted, actual bool
		want              Outcome
	}{
		{true, true, TruePositive},
		{true, false, FalsePositive},
		{false, false, TrueNegative},
		{false, true, FalseNegative},
	}
	for _, tc := range cases {
		if got := Classify(tc.predicted, tc.actual); got != tc.want {
			t.Fatalf("Classify(%v,%v) = %v", tc.predicted, tc.actual, got)
		}
	}
}

func TestContingencyMetricsPaperInterpretation(t *testing.T) {
	// The paper's worked interpretation (Sect. 3.3): precision 0.8 means
	// 80% of warnings are correct; recall 0.9 means 90% of failures are
	// caught; fpr 0.1 means 10% of non-failures falsely warned.
	c := ContingencyTable{TP: 72, FP: 18, FN: 8, TN: 162}
	if got := c.Precision(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("precision = %g", got)
	}
	if got := c.Recall(); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("recall = %g", got)
	}
	if got := c.FPR(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("fpr = %g", got)
	}
	wantF := 2 * 0.8 * 0.9 / 1.7
	if got := c.FMeasure(); math.Abs(got-wantF) > 1e-12 {
		t.Fatalf("F = %g, want %g", got, wantF)
	}
	if got := c.Accuracy(); math.Abs(got-234.0/260.0) > 1e-12 {
		t.Fatalf("accuracy = %g", got)
	}
}

func TestMetricsDegenerateCases(t *testing.T) {
	var empty ContingencyTable
	if !math.IsNaN(empty.Precision()) || !math.IsNaN(empty.Recall()) ||
		!math.IsNaN(empty.FPR()) || !math.IsNaN(empty.Accuracy()) {
		t.Fatal("degenerate metrics should be NaN")
	}
	if empty.FMeasure() != 0 {
		t.Fatal("degenerate F-measure should be 0")
	}
}

func TestAddAccumulates(t *testing.T) {
	var c ContingencyTable
	c.Add(true, true)
	c.Add(true, false)
	c.Add(false, false)
	c.Add(false, true)
	if c.TP != 1 || c.FP != 1 || c.TN != 1 || c.FN != 1 || c.Total() != 4 {
		t.Fatalf("table = %+v", c)
	}
}

func TestEvaluateThreshold(t *testing.T) {
	scored := []Scored{
		{0.9, true}, {0.8, false}, {0.4, true}, {0.1, false},
	}
	c := Evaluate(scored, 0.5)
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("Evaluate = %+v", c)
	}
	// Threshold at the score value is inclusive.
	c = Evaluate(scored, 0.9)
	if c.TP != 1 || c.FP != 0 {
		t.Fatalf("inclusive threshold = %+v", c)
	}
}

func TestROCPerfectPredictor(t *testing.T) {
	scored := []Scored{
		{0.9, true}, {0.8, true}, {0.2, false}, {0.1, false},
	}
	auc, err := AUCOf(scored)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 1 {
		t.Fatalf("perfect AUC = %g", auc)
	}
}

func TestROCInvertedPredictor(t *testing.T) {
	scored := []Scored{
		{0.9, false}, {0.8, false}, {0.2, true}, {0.1, true},
	}
	auc, err := AUCOf(scored)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 0 {
		t.Fatalf("inverted AUC = %g", auc)
	}
}

func TestROCRandomScoresNearHalf(t *testing.T) {
	g := stats.NewRNG(5)
	scored := make([]Scored, 4000)
	for i := range scored {
		scored[i] = Scored{Score: g.Float64(), Actual: g.Bernoulli(0.3)}
	}
	auc, err := AUCOf(scored)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 0.03 {
		t.Fatalf("random AUC = %g, want ≈0.5", auc)
	}
}

func TestROCEndpointsAndTies(t *testing.T) {
	scored := []Scored{
		{0.5, true}, {0.5, false}, {0.5, true}, {0.2, false},
	}
	curve, err := ROC(scored)
	if err != nil {
		t.Fatal(err)
	}
	first, last := curve[0], curve[len(curve)-1]
	if first.TPR != 0 || first.FPR != 0 {
		t.Fatalf("ROC start = %+v", first)
	}
	if last.TPR != 1 || last.FPR != 1 {
		t.Fatalf("ROC end = %+v", last)
	}
	// Ties at 0.5 are a single point: 3 points total (start, tie, end).
	if len(curve) != 3 {
		t.Fatalf("ROC has %d points: %v", len(curve), curve)
	}
}

func TestROCValidation(t *testing.T) {
	if _, err := ROC([]Scored{{0.5, true}}); err == nil {
		t.Fatal("single-class ROC accepted")
	}
	if _, err := ROC([]Scored{{math.NaN(), true}, {0.1, false}}); err == nil {
		t.Fatal("NaN score accepted")
	}
	if _, err := AUC(nil); err == nil {
		t.Fatal("empty AUC accepted")
	}
}

// Property: AUC is always within [0,1], and relabeling scores by a strictly
// increasing transform leaves AUC unchanged.
func TestAUCInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		n := 10 + g.Intn(50)
		scored := make([]Scored, n)
		hasPos, hasNeg := false, false
		for i := range scored {
			scored[i] = Scored{Score: g.Float64(), Actual: g.Bernoulli(0.4)}
			if scored[i].Actual {
				hasPos = true
			} else {
				hasNeg = true
			}
		}
		if !hasPos || !hasNeg {
			return true
		}
		auc1, err := AUCOf(scored)
		if err != nil {
			return false
		}
		transformed := make([]Scored, n)
		for i, s := range scored {
			transformed[i] = Scored{Score: math.Exp(3*s.Score) + 7, Actual: s.Actual}
		}
		auc2, err := AUCOf(transformed)
		if err != nil {
			return false
		}
		return auc1 >= 0 && auc1 <= 1 && math.Abs(auc1-auc2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxFMeasure(t *testing.T) {
	scored := []Scored{
		{0.9, true}, {0.85, true}, {0.6, false}, {0.5, true}, {0.2, false}, {0.1, false},
	}
	th, c, err := MaxFMeasure(scored)
	if err != nil {
		t.Fatal(err)
	}
	// Best operating point: threshold 0.85 gives P=1, R=2/3, F=0.8;
	// threshold 0.5 gives P=0.75, R=1, F≈0.857 — the latter wins.
	if th != 0.5 {
		t.Fatalf("best threshold = %g (table %v)", th, c)
	}
	if math.Abs(c.FMeasure()-6.0/7.0) > 1e-12 {
		t.Fatalf("best F = %g", c.FMeasure())
	}
	if _, _, err := MaxFMeasure(nil); err == nil {
		t.Fatal("empty MaxFMeasure accepted")
	}
}

// refMaxFMeasure is the quadratic sweep MaxFMeasure replaced — a fresh
// Evaluate per distinct score — kept as its executable specification on
// NaN-free input (every NaN was its own map key, so on NaN its tie-break
// depended on iteration order).
func refMaxFMeasure(scored []Scored) (threshold float64, best ContingencyTable) {
	distinct := make(map[float64]bool, len(scored))
	for _, s := range scored {
		distinct[s.Score] = true
	}
	bestF := -1.0
	for th := range distinct {
		c := Evaluate(scored, th)
		if f := c.FMeasure(); f > bestF || (f == bestF && th > threshold) {
			bestF, threshold, best = f, th, c
		}
	}
	return threshold, best
}

// TestMaxFMeasureMatchesQuadratic holds the sort-and-sweep to the quadratic
// reference — same threshold, same table — on sets drawn to tie: scores from
// a pool of at most six values including ±Inf, down to all-equal, with both
// classes or only one.
func TestMaxFMeasureMatchesQuadratic(t *testing.T) {
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		pool := []float64{math.Inf(1), math.Inf(-1), 0, g.NormFloat64(), g.NormFloat64(), g.NormFloat64()}
		g.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		pool = pool[:1+g.Intn(len(pool))]
		classes := g.Intn(3) // 0: both, 1: failures only, 2: non-failures only
		scored := make([]Scored, 1+g.Intn(60))
		for i := range scored {
			scored[i] = Scored{
				Score:  pool[g.Intn(len(pool))],
				Actual: classes == 1 || (classes == 0 && g.Intn(3) == 0),
			}
		}
		th, c, err := MaxFMeasure(scored)
		wantTh, wantC := refMaxFMeasure(scored)
		if err != nil || th != wantTh || c != wantC {
			t.Logf("seed %d: got %g %+v (%v), want %g %+v", seed, th, c, err, wantTh, wantC)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxFMeasureNaN pins what a NaN score means: an example never warned
// about (it still counts as a miss or a true negative) and never the
// threshold.
func TestMaxFMeasureNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		scored []Scored
		th     float64
		table  ContingencyTable
	}{
		{"missed failure", []Scored{{nan, true}, {0.5, true}, {0.2, false}},
			0.5, ContingencyTable{TP: 1, TN: 1, FN: 1}},
		{"quiet non-failure", []Scored{{0.7, true}, {nan, false}},
			0.7, ContingencyTable{TP: 1, TN: 1}},
		// F is 0 at every threshold: the highest one, not NaN.
		{"no failures", []Scored{{0.1, false}, {nan, false}, {0.3, false}},
			0.3, ContingencyTable{FP: 1, TN: 2}},
		{"only NaN failures", []Scored{{nan, true}, {nan, true}, {-1, false}},
			-1, ContingencyTable{FP: 1, FN: 2}},
	}
	for _, tc := range cases {
		th, c, err := MaxFMeasure(tc.scored)
		if err != nil || th != tc.th || c != tc.table {
			t.Errorf("%s: got %g %+v (%v), want %g %+v", tc.name, th, c, err, tc.th, tc.table)
		}
		if e := Evaluate(tc.scored, th); c != e {
			t.Errorf("%s: table %+v is not Evaluate's %+v at %g", tc.name, c, e, th)
		}
	}
	if _, _, err := MaxFMeasure([]Scored{{nan, true}, {nan, false}}); err == nil {
		t.Error("a set with no score but NaN was accepted")
	}
}
