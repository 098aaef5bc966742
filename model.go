package pfm

import (
	"repro/internal/experiments"
	"repro/internal/pfmmodel"
)

// ModelParams holds the inputs of the Section 5 availability/reliability
// model: the Table 2 predictor-quality metrics, the conditional failure
// probabilities (Eqs. 3–5), the repair-time improvement factor k (Eq. 6),
// and the rate assumptions.
type ModelParams = pfmmodel.Params

// CurvePoint is one sample of a with/without-PFM comparison curve (Fig. 10).
type CurvePoint = pfmmodel.CurvePoint

// DefaultModelParams returns the paper's Table 2 parameters with the
// documented rate assumptions (DESIGN.md); Eq. 14 evaluates to ≈0.488.
func DefaultModelParams() ModelParams { return pfmmodel.DefaultParams() }

// ModelResult bundles the Section 5 model outputs (Eq. 8, Eq. 14, MTTFs).
type ModelResult = experiments.ModelResult

// RunModelExperiment evaluates the Section 5 model (experiments E4/E10).
func RunModelExperiment(p ModelParams) (ModelResult, error) {
	return experiments.RunModel(p)
}

// Fig10Curves samples the reliability and hazard comparison curves
// (experiments E5/E6).
func Fig10Curves(p ModelParams, points int) (reliability, hazard []CurvePoint, err error) {
	return experiments.Fig10Curves(p, points)
}

// CaseStudyConfig parameterizes the Sect. 3.3 case-study reproduction.
type CaseStudyConfig = experiments.CaseStudyConfig

// CaseStudyResult aggregates the case-study outcomes (E1/E2/E9).
type CaseStudyResult = experiments.CaseStudyResult

// DefaultCaseStudyConfig mirrors the paper's setup.
func DefaultCaseStudyConfig() CaseStudyConfig { return experiments.DefaultCaseStudyConfig() }

// RunCaseStudy generates synthetic SCP data, trains the HSMM and UBF
// predictors plus all taxonomy baselines, and evaluates them (Sect. 3.3).
func RunCaseStudy(cfg CaseStudyConfig) (CaseStudyResult, error) {
	return experiments.RunCaseStudy(cfg)
}

// MEAExperimentConfig parameterizes the closed-loop experiment (E3).
type MEAExperimentConfig = experiments.MEAConfig

// MEAExperimentResult aggregates the closed-loop outcomes.
type MEAExperimentResult = experiments.MEAResult

// DefaultMEAExperimentConfig returns the standard closed-loop setup.
func DefaultMEAExperimentConfig() MEAExperimentConfig { return experiments.DefaultMEAConfig() }

// RunMEA trains a predictor offline, deploys the full MEA loop against the
// simulated SCP, and compares with the identical unmitigated system (E3).
func RunMEA(cfg MEAExperimentConfig) (MEAExperimentResult, error) {
	return experiments.RunMEA(cfg)
}
