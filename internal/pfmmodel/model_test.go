package pfmmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadInputs(t *testing.T) {
	base := DefaultParams()
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero precision", func(p *Params) { p.Precision = 0 }},
		{"precision above one", func(p *Params) { p.Precision = 1.2 }},
		{"negative recall", func(p *Params) { p.Recall = -0.1 }},
		{"zero fpr", func(p *Params) { p.FPR = 0 }},
		{"fpr of one", func(p *Params) { p.FPR = 1 }},
		{"PTP above one", func(p *Params) { p.PTP = 1.5 }},
		{"negative PFP", func(p *Params) { p.PFP = -0.2 }},
		{"NaN PTN", func(p *Params) { p.PTN = math.NaN() }},
		{"zero k", func(p *Params) { p.K = 0 }},
		{"negative failure rate", func(p *Params) { p.FailureRate = -1 }},
		{"zero repair rate", func(p *Params) { p.RepairRate = 0 }},
		{"infinite action rate", func(p *Params) { p.ActionRate = math.Inf(1) }},
	}
	for _, tc := range cases {
		p := base
		tc.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted bad params", tc.name)
		}
	}
}

func TestPredictionRatesIdentities(t *testing.T) {
	p := DefaultParams()
	r, err := p.PredictionRates()
	if err != nil {
		t.Fatal(err)
	}
	// r_TP + r_FN must equal λ_F: every imminent failure is either caught
	// or missed.
	if got := r.TP + r.FN; math.Abs(got-p.FailureRate) > 1e-15 {
		t.Fatalf("TP+FN = %g, want λF = %g", got, p.FailureRate)
	}
	// Reconstructed precision = TP/(TP+FP).
	if got := r.TP / (r.TP + r.FP); math.Abs(got-p.Precision) > 1e-12 {
		t.Fatalf("reconstructed precision = %g", got)
	}
	// Reconstructed fpr = FP/(FP+TN).
	if got := r.FP / (r.FP + r.TN); math.Abs(got-p.FPR) > 1e-12 {
		t.Fatalf("reconstructed fpr = %g", got)
	}
	// Reconstructed recall = TP/(TP+FN).
	if got := r.TP / (r.TP + r.FN); math.Abs(got-p.Recall) > 1e-12 {
		t.Fatalf("reconstructed recall = %g", got)
	}
}

// TestEq14PaperExample is experiment E4: the paper's headline result.
// "The analysis shows that unavailability is roughly cut down by half"
// with (1−A_PFM)/(1−A) ≈ 0.488 for the Table 2 parameters.
func TestEq14PaperExample(t *testing.T) {
	ratio, err := DefaultParams().UnavailabilityRatio()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratio-0.488) > 0.01 {
		t.Fatalf("Eq. 14 unavailability ratio = %.4f, paper reports ≈ 0.488", ratio)
	}
}

// TestEq8ClosedFormMatchesNumeric is experiment E10: the closed form of
// Eq. 8 must agree with the numerically solved stationary distribution of
// the Fig. 9 chain, for the paper's parameters and for random ones.
func TestEq8ClosedFormMatchesNumeric(t *testing.T) {
	closed, err := DefaultParams().Availability()
	if err != nil {
		t.Fatal(err)
	}
	numeric, err := DefaultParams().AvailabilityNumeric()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(closed-numeric) > 1e-12 {
		t.Fatalf("closed form %.15f vs numeric %.15f", closed, numeric)
	}
}

func TestEq8ClosedFormMatchesNumericProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
		p := Params{
			Precision:   u(0.05, 0.99),
			Recall:      u(0.05, 0.99),
			FPR:         u(0.001, 0.5),
			PTP:         u(0, 1),
			PFP:         u(0, 1),
			PTN:         u(0, 0.2),
			K:           u(0.5, 10),
			FailureRate: u(1e-6, 1e-2),
			RepairRate:  u(1e-4, 1e-1),
			ActionRate:  u(1e-3, 1),
		}
		closed, err := p.Availability()
		if err != nil {
			return false
		}
		numeric, err := p.AvailabilityNumeric()
		if err != nil {
			return false
		}
		return math.Abs(closed-numeric) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAvailabilityImprovesWithBetterPredictor(t *testing.T) {
	base := DefaultParams()
	a0, err := base.Availability()
	if err != nil {
		t.Fatal(err)
	}
	better := base
	better.Recall = 0.95
	better.Precision = 0.95
	better.FPR = 0.001
	a1, err := better.Availability()
	if err != nil {
		t.Fatal(err)
	}
	if a1 <= a0 {
		t.Fatalf("better predictor lowered availability: %.8f vs %.8f", a1, a0)
	}
}

func TestAvailabilityMonotoneInK(t *testing.T) {
	prev := 0.0
	for i, k := range []float64{0.5, 1, 2, 4, 8} {
		p := DefaultParams()
		p.K = k
		a, err := p.Availability()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && a <= prev {
			t.Fatalf("availability not increasing in k: A(%g)=%.8f ≤ %.8f", k, a, prev)
		}
		prev = a
	}
}

func TestUselessPredictorIsNotBetterThanBaseline(t *testing.T) {
	// A predictor that misses everything (recall→0) and whose actions never
	// avoid failures still forces every failure through the unprepared
	// path, so unavailability should be essentially the baseline's.
	p := DefaultParams()
	p.Recall = 0.0001
	p.PTP = 1
	p.K = 1
	ratio, err := p.UnavailabilityRatio()
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 0.95 || ratio > 1.1 {
		t.Fatalf("useless predictor ratio = %g, want ≈ 1", ratio)
	}
}

func TestChainStructure(t *testing.T) {
	c, err := DefaultParams().Chain()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumStates() != StateF+1 {
		t.Fatalf("chain has %d states", c.NumStates())
	}
	// No transition from S_FN back to up: missed failures always fail.
	if c.Rate(StateFN, StateUp) != 0 {
		t.Fatal("S_FN must not transition directly back to S0")
	}
	// Prepared repair is k times faster than unprepared.
	p := DefaultParams()
	if got := c.Rate(StateR, StateUp) / c.Rate(StateF, StateUp); math.Abs(got-p.K) > 1e-12 {
		t.Fatalf("r_R/r_F = %g, want k = %g", got, p.K)
	}
}

func TestBaselineAvailability(t *testing.T) {
	p := DefaultParams()
	a, err := p.BaselineAvailability()
	if err != nil {
		t.Fatal(err)
	}
	want := p.RepairRate / (p.RepairRate + p.FailureRate)
	if a != want {
		t.Fatalf("baseline availability = %g, want %g", a, want)
	}
	if a <= 0.9 || a >= 1 {
		t.Fatalf("baseline availability %g implausible for defaults", a)
	}
}
