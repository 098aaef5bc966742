package experiments

import (
	"math"
	"testing"

	"repro/internal/pfmmodel"
)

func TestRunModelReproducesEq14(t *testing.T) {
	res, err := RunModel(pfmmodel.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckEq14(res); err != nil {
		t.Fatal(err)
	}
	// E10: closed form equals numeric.
	if math.Abs(res.Availability-res.AvailabilityNum) > 1e-12 {
		t.Fatalf("closed %.15f vs numeric %.15f", res.Availability, res.AvailabilityNum)
	}
	if res.MTTFWithPFM <= res.MTTFBaseline {
		t.Fatalf("MTTF with PFM %g not above baseline %g", res.MTTFWithPFM, res.MTTFBaseline)
	}
	if len(res.Rows()) != 4 {
		t.Fatalf("rows = %d", len(res.Rows()))
	}
}

func TestFig10CurvesShape(t *testing.T) {
	rel, haz, err := Fig10Curves(pfmmodel.DefaultParams(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 26 || len(haz) != 26 {
		t.Fatalf("curve lengths %d/%d", len(rel), len(haz))
	}
	// E5: PFM reliability dominates; E6: PFM hazard stays below λF.
	for _, p := range rel[1:] {
		if p.WithPFM <= p.WithoutPFM {
			t.Fatalf("R curve not dominating at t=%g", p.T)
		}
	}
	for _, p := range haz {
		if p.WithPFM >= p.WithoutPFM {
			t.Fatalf("h curve not below baseline at t=%g", p.T)
		}
	}
}

// TestRejuvenationComparison is the E15 acceptance test: prediction-
// triggered PFM beats optimally tuned blind rejuvenation in every
// degradation regime, and blind rejuvenation only pays under slow aging.
func TestRejuvenationComparison(t *testing.T) {
	res, err := RunRejuvenationComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regimes) != 3 {
		t.Fatalf("regimes = %d", len(res.Regimes))
	}
	for _, reg := range res.Regimes {
		if reg.PFM <= reg.OptimalBlind {
			t.Fatalf("dwell %g: PFM %.5f not above blind %.5f",
				reg.DegradedDwell, reg.PFM, reg.OptimalBlind)
		}
		if reg.OptimalBlind < reg.NoAction-1e-9 {
			t.Fatalf("dwell %g: optimum below no-action", reg.DegradedDwell)
		}
	}
	// Fast post-degradation failure: blind restarts cannot pay.
	if res.Regimes[0].OptimalBlind > res.Regimes[0].NoAction+1e-6 {
		t.Fatalf("fast regime should not benefit: %+v", res.Regimes[0])
	}
	// Slow aging: they do.
	slow := res.Regimes[2]
	if slow.OptimalBlind <= slow.NoAction+1e-4 {
		t.Fatalf("slow regime should benefit: %+v", slow)
	}
	if len(res.Rows()) != 3 {
		t.Fatal("rows missing")
	}
}
