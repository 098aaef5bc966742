package experiments

import (
	"fmt"
	"math"

	"repro/internal/pfmmodel"
)

// ModelResult holds the E4/E10 outputs: Eq. 8 availability (closed form and
// numeric), the no-PFM baseline, and the Eq. 14 unavailability ratio.
type ModelResult struct {
	Params              pfmmodel.Params
	Availability        float64 // Eq. 8 closed form
	AvailabilityNum     float64 // numeric steady state of the Fig. 9 chain
	BaselineAvail       float64 // two-state system without PFM
	UnavailabilityRatio float64 // Eq. 14
	MTTFWithPFM         float64
	MTTFBaseline        float64
}

// RunModel evaluates the Section 5 model (experiments E4 and E10).
func RunModel(p pfmmodel.Params) (ModelResult, error) {
	av, err := p.Availability()
	if err != nil {
		return ModelResult{}, fmt.Errorf("%w: %v", ErrExperiment, err)
	}
	avNum, err := p.AvailabilityNumeric()
	if err != nil {
		return ModelResult{}, fmt.Errorf("%w: %v", ErrExperiment, err)
	}
	base, err := p.BaselineAvailability()
	if err != nil {
		return ModelResult{}, fmt.Errorf("%w: %v", ErrExperiment, err)
	}
	ratio, err := p.UnavailabilityRatio()
	if err != nil {
		return ModelResult{}, fmt.Errorf("%w: %v", ErrExperiment, err)
	}
	mttf, err := p.MTTF()
	if err != nil {
		return ModelResult{}, fmt.Errorf("%w: %v", ErrExperiment, err)
	}
	return ModelResult{
		Params:              p,
		Availability:        av,
		AvailabilityNum:     avNum,
		BaselineAvail:       base,
		UnavailabilityRatio: ratio,
		MTTFWithPFM:         mttf,
		MTTFBaseline:        1 / p.FailureRate,
	}, nil
}

// Rows renders the model result for printing.
func (r ModelResult) Rows() []Row {
	return []Row{
		{
			Name:   "availability (Eq. 8)",
			Values: map[string]float64{"closed": r.Availability, "numeric": r.AvailabilityNum},
			Order:  []string{"closed", "numeric"},
		},
		{
			Name:   "baseline (no PFM)",
			Values: map[string]float64{"A": r.BaselineAvail},
			Order:  []string{"A"},
		},
		{
			Name:   "unavailability ratio (Eq. 14)",
			Values: map[string]float64{"ratio": r.UnavailabilityRatio},
			Order:  []string{"ratio"},
		},
		{
			Name:   "MTTF [s]",
			Values: map[string]float64{"withPFM": r.MTTFWithPFM, "baseline": r.MTTFBaseline},
			Order:  []string{"withPFM", "baseline"},
		},
	}
}

// Fig10Curves samples the Fig. 10 reliability and hazard series
// (experiments E5 and E6).
func Fig10Curves(p pfmmodel.Params, nPoints int) (reliability, hazard []pfmmodel.CurvePoint, err error) {
	reliability, err = p.ReliabilityCurve(50000, nPoints)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: reliability: %v", ErrExperiment, err)
	}
	hazard, err = p.HazardCurve(1000, nPoints)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: hazard: %v", ErrExperiment, err)
	}
	return reliability, hazard, nil
}

// CheckEq14 verifies the headline result against the paper's ≈0.488.
func CheckEq14(r ModelResult) error {
	if math.Abs(r.UnavailabilityRatio-0.488) > 0.01 {
		return fmt.Errorf("%w: Eq. 14 ratio %.4f deviates from the paper's 0.488",
			ErrExperiment, r.UnavailabilityRatio)
	}
	return nil
}
