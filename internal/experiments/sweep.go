package experiments

import (
	"fmt"

	"repro/internal/par"
)

// RunCaseStudySweep runs one full case study per configuration — its own
// simulation, training, and evaluation — sharding whole experiments across
// workers (0 = GOMAXPROCS). Every experiment draws all randomness from its
// own configured seed, each worker writes only its own result slot, and
// errors are reported in configuration order, so the output is identical
// at any worker count. This is the unit of parallelism that scales best:
// unlike stages inside a single experiment, nothing here is serialized on
// the simulator.
func RunCaseStudySweep(cfgs []CaseStudyConfig, workers int) ([]CaseStudyResult, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("%w: empty sweep", ErrExperiment)
	}
	results := make([]CaseStudyResult, len(cfgs))
	errs := make([]error, len(cfgs))
	par.ForN(workers, len(cfgs), func(i int) {
		results[i], errs[i] = RunCaseStudy(cfgs[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep config %d (seed %d): %w", i, cfgs[i].Seed, err)
		}
	}
	return results, nil
}

// ReplicateConfigs derives n configurations from base that differ only in
// seed — the standard replicate sweep for confidence intervals over the
// case-study metrics.
func ReplicateConfigs(base CaseStudyConfig, n int) []CaseStudyConfig {
	cfgs := make([]CaseStudyConfig, n)
	for i := range cfgs {
		cfgs[i] = base
		cfgs[i].Seed = base.Seed + int64(i)
	}
	return cfgs
}

// RunMEAReplicates runs n closed-loop MEA experiments that differ only in
// seed, sharding whole replicates across workers. Like RunCaseStudySweep,
// every replicate is seed-self-contained, so the results are identical at
// any worker count.
func RunMEAReplicates(base MEAConfig, n, workers int) ([]MEAResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: %d replicates", ErrExperiment, n)
	}
	results := make([]MEAResult, n)
	errs := make([]error, n)
	par.ForN(workers, n, func(i int) {
		cfg := base
		cfg.Seed = base.Seed + int64(i)
		results[i], errs[i] = RunMEA(cfg)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("replicate %d (seed %d): %w", i, base.Seed+int64(i), err)
		}
	}
	return results, nil
}

// LeadTimePoint is one grid point of the lead-time sweep: the Δtl value and
// the per-predictor results at that horizon.
type LeadTimePoint struct {
	LeadTime float64
	Result   CaseStudyResult
}

// RunLeadTimeSweep evaluates the case study at several lead times Δtl over
// a single simulated run: the platform is simulated once and every grid
// point builds its own dataset, trains, and evaluates against it
// concurrently (the finished system and its training log are only read).
// This reproduces the paper's prediction-horizon analysis without paying for
// one simulation per point.
func RunLeadTimeSweep(base CaseStudyConfig, leadTimes []float64, workers int) ([]LeadTimePoint, error) {
	if len(leadTimes) == 0 {
		return nil, fmt.Errorf("%w: empty lead-time grid", ErrExperiment)
	}
	if err := base.validate(); err != nil {
		return nil, err
	}
	sys, trainLog, err := simulateSCP(base, nil)
	if err != nil {
		return nil, err
	}
	points := make([]LeadTimePoint, len(leadTimes))
	errs := make([]error, len(leadTimes))
	par.ForN(workers, len(leadTimes), func(i int) {
		cfg := base
		cfg.LeadTime = leadTimes[i]
		ds, err := makeDataset(cfg, sys, trainLog)
		if err != nil {
			errs[i] = err
			return
		}
		res, err := runCaseStudyOn(ds)
		if err != nil {
			errs[i] = err
			return
		}
		points[i] = LeadTimePoint{LeadTime: leadTimes[i], Result: res}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("lead time %g: %w", leadTimes[i], err)
		}
	}
	return points, nil
}
