package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/baseline"
	"repro/internal/eventlog"
	"repro/internal/hsmm"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/predict"
	"repro/internal/scp"
	ts "repro/internal/timeseries"
	"repro/internal/ubf"
)

// The fixed parts of the Sect. 3.3 setup.
const (
	// dataWindow is the data window Δtd of Fig. 6 [s].
	dataWindow = 300.0
	// slack widens the failure-matching window when labeling [s].
	slack = 300.0
	// evalStride is the evaluation grid spacing [s].
	evalStride = 300.0
	// hsmmStates / hsmmRestarts control the sequence models.
	hsmmStates   = 6
	hsmmRestarts = 2
	// maxNonFailure caps the non-failure training sequences.
	maxNonFailure = 400
	// ubfKernels controls the UBF network size.
	ubfKernels = 12
)

// CaseStudyConfig parameterizes the Sect. 3.3 reproduction (E1, E2, E9);
// the windows, the stride and the model sizes are the constants above.
type CaseStudyConfig struct {
	Seed      int64
	TrainDays float64
	TestDays  float64
	// LeadTime Δtl of Fig. 6 [s].
	LeadTime float64
	// UsePWA selects UBF input variables with the probabilistic wrapper.
	UsePWA bool
	// Workers bounds the worker goroutines of the parallelizable stages
	// (baseline grid scoring and experiment sweeps): 0 means GOMAXPROCS,
	// 1 is the serial reference. Any value produces identical results —
	// parallel stages follow the pre-split/fixed-merge determinism
	// contract.
	Workers int
}

// DefaultCaseStudyConfig mirrors the paper's setup: five-minute data
// windows and lead times on weeks of telecom operation.
func DefaultCaseStudyConfig() CaseStudyConfig {
	return CaseStudyConfig{
		Seed:      7,
		TrainDays: 14,
		TestDays:  7,
		LeadTime:  300,
		UsePWA:    false,
	}
}

// validate rejects unusable configurations.
func (c CaseStudyConfig) validate() error {
	if c.TrainDays <= 0 || c.TestDays <= 0 {
		return fmt.Errorf("%w: train/test days %g/%g", ErrExperiment, c.TrainDays, c.TestDays)
	}
	if c.LeadTime < 0 {
		return fmt.Errorf("%w: lead time Δtl=%g", ErrExperiment, c.LeadTime)
	}
	return nil
}

// PredictorResult is one row of the Sect. 3.3 results table.
type PredictorResult struct {
	Name      string
	AUC       float64
	Threshold float64                  // max-F operating point
	Table     predict.ContingencyTable // at that threshold
	// ROC holds the full receiver-operating-characteristic curve (the
	// paper's Sect. 3.3 visualization).
	ROC []predict.ROCPoint
}

// Row renders the result for printing.
func (p PredictorResult) Row() Row {
	return Row{
		Name: p.Name,
		Values: map[string]float64{
			"AUC":       p.AUC,
			"precision": p.Table.Precision(),
			"recall":    p.Table.Recall(),
			"fpr":       p.Table.FPR(),
			"F":         p.Table.FMeasure(),
		},
		Order: []string{"AUC", "precision", "recall", "fpr", "F"},
	}
}

// CaseStudyResult aggregates the case study (E1, E2, E9).
type CaseStudyResult struct {
	TrainFailures int
	TestFailures  int
	EvalPoints    int
	Predictors    []PredictorResult
	// SelectedVariables holds the PWA choice when UsePWA is set.
	SelectedVariables []string
}

// ByName returns the named predictor's result.
func (r CaseStudyResult) ByName(name string) (PredictorResult, bool) {
	for _, p := range r.Predictors {
		if p.Name == name {
			return p, true
		}
	}
	return PredictorResult{}, false
}

// dataset is the shared evaluation substrate.
type dataset struct {
	cfg      CaseStudyConfig
	sys      *scp.System
	splitAt  float64
	endAt    float64
	failures []float64

	trainLog *eventlog.Log
	// hsmmFit waits for the HSMM classifier fit buildDataset started on the
	// training leg; nil when the dataset was built without one.
	hsmmFit func() (*hsmm.Classifier, error)

	trainTimes  []float64
	trainLabels []bool
	testTimes   []float64
	testLabels  []bool

	// cached standardized feature matrices (built on first use)
	featTrainX *mat.Matrix
	featTestX  *mat.Matrix
	featNames  []string
}

// featureData builds (once) the standardized SAR feature matrices over the
// train and test grids.
func (ds *dataset) featureData() (trainX, testX *mat.Matrix, names []string, err error) {
	if ds.featTrainX != nil {
		return ds.featTrainX, ds.featTestX, ds.featNames, nil
	}
	specs, err := ds.ubfSpecs()
	if err != nil {
		return nil, nil, nil, err
	}
	trainX, names, err = ts.BuildMatrix(specs, ds.trainTimes)
	if err != nil {
		return nil, nil, nil, err
	}
	testX, _, err = ts.BuildMatrix(specs, ds.testTimes)
	if err != nil {
		return nil, nil, nil, err
	}
	means, stds := ts.StandardizeColumns(trainX)
	if err := ts.ApplyStandardization(testX, means, stds); err != nil {
		return nil, nil, nil, err
	}
	ds.featTrainX, ds.featTestX, ds.featNames = trainX, testX, names
	return trainX, testX, names, nil
}

// RunCaseStudy reproduces the Sect. 3.3 case study.
func RunCaseStudy(cfg CaseStudyConfig) (CaseStudyResult, error) {
	ds, err := buildDataset(cfg, true)
	if err != nil {
		return CaseStudyResult{}, err
	}
	return runCaseStudyOn(ds)
}

// runCaseStudyOn trains and evaluates every predictor on a built dataset.
// Split from RunCaseStudy so sweeps can share one simulated system across
// many dataset variants.
//
// It is a fixed-slot task graph: the feature matrices and the test grid's
// error windows are built first (UBF and MSET both read the matrices, HSMM
// and the error-log baselines the windows, and an early HSMM fit may still
// be running meanwhile), then three independent tasks — HSMM scoring, UBF training
// and scoring, the baselines — run through par.ForN, each writing only its
// own variables, and the results are assembled in table order.
func runCaseStudyOn(ds *dataset) (CaseStudyResult, error) {
	result := CaseStudyResult{
		TrainFailures: countBefore(ds.failures, ds.splitAt),
		TestFailures:  len(ds.failures) - countBefore(ds.failures, ds.splitAt),
		EvalPoints:    len(ds.testTimes),
	}
	if _, _, _, err := ds.featureData(); err != nil {
		if ds.hsmmFit != nil {
			_, _ = ds.hsmmFit() // wait, so no fit outlives the call; err is the one to report
		}
		return CaseStudyResult{}, fmt.Errorf("features: %w", err)
	}

	// The test grid's error windows, built once into one arena and only
	// read from here on: HSMM and the three error-log baselines score them.
	windows := eventlog.SlidingWindows(ds.sys.Log(), ds.testTimes, dataWindow)
	var (
		hsmmScores, ubfScores []float64
		selected              []string
		baselines             []scoreSet
		hsmmErr, ubfErr       error
	)
	tasks := [...]func(){
		func() { hsmmScores, hsmmErr = ds.hsmmScores(windows) },
		func() { ubfScores, selected, ubfErr = ds.ubfScores() },
		func() { baselines = ds.baselineScoreSets(windows) },
	}
	par.ForN(ds.cfg.Workers, len(tasks), func(i int) { tasks[i]() })
	if hsmmErr != nil {
		return CaseStudyResult{}, fmt.Errorf("hsmm: %w", hsmmErr)
	}
	if ubfErr != nil {
		return CaseStudyResult{}, fmt.Errorf("ubf: %w", ubfErr)
	}
	result.SelectedVariables = selected

	scoreSets := append([]scoreSet{
		{name: "HSMM", scores: hsmmScores},
		{name: "UBF", scores: ubfScores},
	}, baselines...)
	for _, set := range scoreSets {
		if set.err != nil {
			return CaseStudyResult{}, fmt.Errorf("%s: %w", set.name, set.err)
		}
		pr, err := evaluateScores(set.name, set.scores, ds.testLabels)
		if err != nil {
			return CaseStudyResult{}, fmt.Errorf("%s: %w", set.name, err)
		}
		result.Predictors = append(result.Predictors, pr)
	}
	return result, nil
}

// buildDataset simulates the SCP and constructs the labeled grids. With
// fitHSMM it starts the HSMM classifier fit between the simulation's two
// legs, on the training log and the failures before the split, so the fit
// overlaps the test leg, the grids and whatever the caller does next;
// trainHSMMClassifier waits for it. Workers == 1 fits inline instead, the
// serial reference.
func buildDataset(cfg CaseStudyConfig, fitHSMM bool) (*dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var fit func() (*hsmm.Classifier, error)
	var atSplit func(*scp.System, *eventlog.Log)
	if fitHSMM {
		atSplit = func(sys *scp.System, trainLog *eventlog.Log) {
			failures := keepBefore(sys.FailureTimes(), cfg.TrainDays*86400)
			fit = start(cfg.Workers, func() (*hsmm.Classifier, error) {
				return trainHSMMOn(trainLog, failures, cfg)
			})
		}
	}
	sys, trainLog, err := simulateSCP(cfg, atSplit)
	var ds *dataset
	if err == nil {
		ds, err = makeDataset(cfg, sys, trainLog)
	}
	if err != nil {
		if fit != nil {
			_, _ = fit() // wait, so no fit outlives a failed build; err is the one to report
		}
		return nil, err
	}
	ds.hsmmFit = fit
	return ds, nil
}

// simulateSCP runs the simulated platform over the configured horizon in
// two legs, training then test, and returns it with the training log (the
// events before the split, carved between the legs). sim.Engine.Run leaves
// the clock at the split, so the two legs execute the same events as one
// run; and Log.Slice copies, so the training log shares nothing with the
// test leg's appends. The SAR series and interval log are reserved for both
// legs before the first, so the test leg does not regrow and copy them.
// atSplit, when not nil, runs between the legs.
func simulateSCP(cfg CaseStudyConfig, atSplit func(*scp.System, *eventlog.Log)) (*scp.System, *eventlog.Log, error) {
	sys, err := scp.New(scpConfigWithSeed(cfg.Seed))
	if err != nil {
		return nil, nil, err
	}
	splitAt := cfg.TrainDays * 86400
	sys.Reserve(splitAt + cfg.TestDays*86400)
	if err := sys.Run(splitAt); err != nil {
		return nil, nil, err
	}
	trainLog := sys.Log().Slice(0, splitAt)
	if atSplit != nil {
		atSplit(sys, trainLog)
	}
	if err := sys.Run(cfg.TestDays * 86400); err != nil {
		return nil, nil, err
	}
	return sys, trainLog, nil
}

// start runs fn on a goroutine of its own and returns a function that waits
// for its result (and may be called any number of times). With one worker —
// workers == 1, or 0 on a single-P runtime — fn runs inline before start
// returns.
func start[T any](workers int, fn func() (T, error)) func() (T, error) {
	var (
		v    T
		err  error
		done = make(chan struct{})
	)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		v, err = fn()
		close(done)
	} else {
		go func() {
			defer close(done)
			v, err = fn()
		}()
	}
	return func() (T, error) {
		<-done
		return v, err
	}
}

// makeDataset constructs the labeled grids over a finished simulation and
// its training log (simulateSCP's). The system and the log are only read,
// so several datasets (e.g. a lead-time sweep) can be built concurrently
// over the same run.
func makeDataset(cfg CaseStudyConfig, sys *scp.System, trainLog *eventlog.Log) (*dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ds := &dataset{
		cfg:      cfg,
		sys:      sys,
		splitAt:  cfg.TrainDays * 86400,
		endAt:    (cfg.TrainDays + cfg.TestDays) * 86400,
		failures: sys.FailureTimes(),
		trainLog: trainLog,
	}
	grid := labelledGrid(cfg, sys, ds.failures)
	ds.trainTimes, ds.trainLabels = grid(dataWindow+evalStride, ds.splitAt)
	ds.testTimes, ds.testLabels = grid(ds.splitAt+dataWindow, ds.endAt-cfg.LeadTime-slack)
	if len(ds.testTimes) == 0 {
		return nil, fmt.Errorf("%w: empty evaluation grid", ErrExperiment)
	}
	return ds, nil
}

// labelledGrid returns the evaluation grid over a finished run: the times in
// [from, to) every evalStride, outside the run's downtime, each labelled
// whether one of failures (sorted) follows within (t, t+LeadTime+slack].
func labelledGrid(cfg CaseStudyConfig, sys *scp.System, failures []float64) func(from, to float64) ([]float64, []bool) {
	down := downSpans(sys)
	return func(from, to float64) (times []float64, labels []bool) {
		for t := from; t < to; t += evalStride {
			if inSpan(down, t) {
				continue
			}
			times = append(times, t)
			labels = append(labels, predict.FailureIn(failures, t, t+cfg.LeadTime+slack))
		}
		return times, labels
	}
}

// scpConfigWithSeed returns the default SCP configuration with the seed.
func scpConfigWithSeed(seed int64) scp.Config {
	cfg := scp.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// hsmmScores trains the two-model classifier (Fig. 6) and scores the test
// grid's windows (E1).
func (ds *dataset) hsmmScores(windows []eventlog.Sequence) ([]float64, error) {
	clf, err := ds.trainHSMMClassifier()
	if err != nil {
		return nil, err
	}
	return clf.ScoreAll(windows)
}

// trainHSMMClassifier returns the two-model classifier fit on the training
// log: the one buildDataset started, or a fit run here when it started none.
func (ds *dataset) trainHSMMClassifier() (*hsmm.Classifier, error) {
	if ds.hsmmFit != nil {
		return ds.hsmmFit()
	}
	return trainHSMMOn(ds.trainLog, keepBefore(ds.failures, ds.splitAt), ds.cfg)
}

// trainHSMMOn fits the two-model classifier (Fig. 6) on the given log and
// failure times. Labels credit warnings raised anywhere within Δtl+slack of
// a failure, so the failure model is trained on windows at both lead
// phases: Δtl ahead and directly adjacent to the failure.
func trainHSMMOn(log *eventlog.Log, failures []float64, cfg CaseStudyConfig) (*hsmm.Classifier, error) {
	var fail, nonFail []eventlog.Sequence
	for _, lead := range []float64{cfg.LeadTime, 0} {
		f, nf, err := eventlog.Extract(log, failures, eventlog.ExtractConfig{
			DataWindow:       dataWindow,
			LeadTime:         lead,
			MinEvents:        2,
			NonFailureStride: evalStride * 2,
			NonFailureGuard:  dataWindow + cfg.LeadTime + slack,
		})
		if err != nil {
			return nil, err
		}
		fail = append(fail, f...)
		if nonFail == nil {
			nonFail = thin(nf, maxNonFailure)
		}
	}
	return hsmm.TrainClassifier(fail, nonFail, hsmm.Config{
		States:   hsmmStates,
		Seed:     cfg.Seed + 100,
		Restarts: hsmmRestarts,
		MaxIter:  20,
	})
}

// hsmmScoresAt scores sliding windows ending at the given times, batched
// through the classifier so windows score in parallel where cores allow.
func (ds *dataset) hsmmScoresAt(clf *hsmm.Classifier, times []float64) ([]float64, error) {
	return clf.ScoreAll(eventlog.SlidingWindows(ds.sys.Log(), times, dataWindow))
}

// ubfFeatureNames are the SAR variables offered to the UBF predictor (the
// slow-call fraction itself is excluded: it is the target).
var ubfFeatureNames = []string{"load", "cpu", "mem_free", "swap", "queue", "semops", "err_rate"}

// ubfSpecs assembles the feature specs over the live SAR series.
func (ds *dataset) ubfSpecs() ([]ts.FeatureSpec, error) {
	specs := make([]ts.FeatureSpec, 0, len(ubfFeatureNames))
	for _, name := range ubfFeatureNames {
		series, err := ds.sys.SAR(name)
		if err != nil {
			return nil, err
		}
		spec := ts.FeatureSpec{Series: series}
		if name == "mem_free" || name == "err_rate" || name == "cpu" {
			spec.Window = dataWindow * 2
			spec.WithMean = true
			spec.WithTrend = name == "mem_free"
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// ubfTarget is the UBF regression target over the training grid: the
// slow-call fraction Δtl ahead — the failure indicator of Eq. 2 (one minus
// interval service availability).
func (ds *dataset) ubfTarget() ([]float64, error) {
	target, err := ds.sys.SAR("frac_slow")
	if err != nil {
		return nil, err
	}
	y := make([]float64, len(ds.trainTimes))
	for i, t := range ds.trainTimes {
		v, ok := target.ValueAt(t + ds.cfg.LeadTime)
		if !ok {
			return nil, fmt.Errorf("%w: no target at %g", ErrExperiment, t)
		}
		// Compress the heavy tail so the regression is not dominated by
		// the rare saturated windows.
		y[i] = math.Log10(v + 1e-6)
	}
	return y, nil
}

// ubfScores trains the UBF regression on the availability target (Fig. 5)
// and scores the test grid (E2). It returns the selected variable names
// when PWA is enabled.
func (ds *dataset) ubfScores() ([]float64, []string, error) {
	trainX, testX, names, err := ds.featureData()
	if err != nil {
		return nil, nil, err
	}
	y, err := ds.ubfTarget()
	if err != nil {
		return nil, nil, err
	}

	var selected []string
	if ds.cfg.UsePWA {
		eval, err := ubf.LinearCVEvaluator(trainX, y, 5, 1e-6, ds.cfg.Seed+200)
		if err != nil {
			return nil, nil, err
		}
		subset, _, err := ubf.PWASelect(trainX.Cols, eval, ubf.SelectorConfig{
			Iterations: 60,
			Seed:       ds.cfg.Seed + 201,
		})
		if err != nil {
			return nil, nil, err
		}
		if len(subset) > 0 {
			trainX, err = ubf.SubsetColumns(trainX, subset)
			if err != nil {
				return nil, nil, err
			}
			testX, err = ubf.SubsetColumns(testX, subset)
			if err != nil {
				return nil, nil, err
			}
			for _, c := range subset {
				selected = append(selected, names[c])
			}
		}
	}
	net, err := ubf.Train(trainX, y, ubf.TrainConfig{
		NumKernels:  ubfKernels,
		Candidates:  15,
		Refinements: 10,
		Seed:        ds.cfg.Seed + 202,
	})
	if err != nil {
		return nil, nil, err
	}
	scores, err := net.PredictRows(testX)
	if err != nil {
		return nil, nil, err
	}
	return scores, selected, nil
}

// scoreSet is one predictor's scores over the test grid.
type scoreSet struct {
	name   string
	scores []float64
	err    error
}

// baselineScoreSets computes every taxonomy-branch baseline on the test
// grid (E9); windows are the grid's error windows.
func (ds *dataset) baselineScoreSets(windows []eventlog.Sequence) []scoreSet {
	n := len(ds.testTimes)
	// The grid points are independent and every scorer is read-only once
	// trained, so each baseline shards its evaluation loop across the
	// configured workers; slot-per-index writes and a fixed-order error
	// scan keep the result identical to the serial run.
	mk := func(name string, f func(i int, t float64) (float64, error)) scoreSet {
		scores := make([]float64, n)
		errs := make([]error, n)
		par.ForN(ds.cfg.Workers, n, func(i int) {
			scores[i], errs[i] = f(i, ds.testTimes[i])
		})
		for _, err := range errs {
			if err != nil {
				return scoreSet{name: name, err: err}
			}
		}
		return scoreSet{name: name, scores: scores}
	}

	var dft baseline.DFT
	dftSet := mk("DFT", func(i int, _ float64) (float64, error) {
		return dft.Score(windows[i])
	})

	rate := baseline.ErrorRate{Window: dataWindow}
	rateSet := mk("error-rate", func(i int, _ float64) (float64, error) {
		return rate.Score(windows[i])
	})

	trainFailures := keepBefore(ds.failures, ds.splitAt)
	var esSet scoreSet
	fail, nonFail, err := eventlog.Extract(ds.trainLog, trainFailures, eventlog.ExtractConfig{
		DataWindow:       dataWindow,
		LeadTime:         ds.cfg.LeadTime,
		MinEvents:        1,
		NonFailureStride: evalStride * 2,
	})
	if err != nil {
		esSet = scoreSet{name: "event-set", err: err}
	} else {
		es, err := baseline.TrainEventSet(fail, thin(nonFail, maxNonFailure), 1)
		if err != nil {
			esSet = scoreSet{name: "event-set", err: err}
		} else {
			esSet = mk("event-set", func(i int, _ float64) (float64, error) {
				return es.Score(windows[i])
			})
		}
	}

	var trendSet scoreSet
	mem, err := ds.sys.SAR("mem_free")
	if err != nil {
		trendSet = scoreSet{name: "trend", err: err}
	} else {
		tr := baseline.Trend{Direction: -1, Window: dataWindow * 4}
		trendSet = mk("trend", func(_ int, t float64) (float64, error) {
			return tr.Score(mem, t)
		})
	}

	var trackSet scoreSet
	inter := interFailureTimes(trainFailures)
	if len(inter) < 2 {
		trackSet = scoreSet{name: "failure-tracking", err: fmt.Errorf("%w: too few training failures", ErrExperiment)}
	} else {
		tracker, err := baseline.FitFailureTracker(inter)
		if err != nil {
			trackSet = scoreSet{name: "failure-tracking", err: err}
		} else {
			trackSet = mk("failure-tracking", func(_ int, t float64) (float64, error) {
				return tracker.Score(t - lastBefore(ds.failures, t))
			})
		}
	}

	return []scoreSet{dftSet, rateSet, esSet, trendSet, trackSet, ds.msetScoreSet()}
}

// msetScoreSet trains the Multivariate State Estimation Technique on the
// healthy portion of the training grid and scores the test grid by
// reconstruction residual (the symptom branch's classic method, [68]).
func (ds *dataset) msetScoreSet() scoreSet {
	trainX, testX, _, err := ds.featureData()
	if err != nil {
		return scoreSet{name: "MSET", err: err}
	}
	var healthyRows []int
	for i, label := range ds.trainLabels {
		if !label {
			healthyRows = append(healthyRows, i)
		}
	}
	if len(healthyRows) < 10 {
		return scoreSet{name: "MSET", err: fmt.Errorf("%w: too few healthy rows", ErrExperiment)}
	}
	healthy := mat.New(len(healthyRows), trainX.Cols)
	for r, src := range healthyRows {
		for c := 0; c < trainX.Cols; c++ {
			healthy.Set(r, c, trainX.At(src, c))
		}
	}
	model, err := baseline.TrainMSET(healthy, baseline.MSETConfig{MemorySize: 60})
	if err != nil {
		return scoreSet{name: "MSET", err: err}
	}
	scores := make([]float64, testX.Rows)
	errs := make([]error, testX.Rows)
	par.ForScratch(ds.cfg.Workers, testX.Rows, model.NewScratch, func(sc *baseline.MSETScratch, r int) {
		scores[r], errs[r] = model.Score(testX.RowView(r), sc)
	})
	for _, err := range errs {
		if err != nil {
			return scoreSet{name: "MSET", err: err}
		}
	}
	return scoreSet{name: "MSET", scores: scores}
}

// evaluateScores computes AUC and the max-F operating point.
func evaluateScores(name string, scores []float64, labels []bool) (PredictorResult, error) {
	if len(scores) != len(labels) {
		return PredictorResult{}, fmt.Errorf("%w: %d scores vs %d labels", ErrExperiment, len(scores), len(labels))
	}
	scored := paired(scores, labels)
	curve, err := predict.ROC(scored)
	if err != nil {
		return PredictorResult{}, err
	}
	auc, err := predict.AUC(curve)
	if err != nil {
		return PredictorResult{}, err
	}
	th, table, err := predict.MaxFMeasure(scored)
	if err != nil {
		return PredictorResult{}, err
	}
	return PredictorResult{Name: name, AUC: auc, Threshold: th, Table: table, ROC: curve}, nil
}

// --- helpers ---------------------------------------------------------------

// paired pairs each score with its label, the form predict's metrics take.
func paired(scores []float64, labels []bool) []predict.Scored {
	scored := make([]predict.Scored, len(scores))
	for i, s := range scores {
		scored[i] = predict.Scored{Score: s, Actual: labels[i]}
	}
	return scored
}

// downSpans returns the [start, end] downtime windows of the run.
func downSpans(sys *scp.System) [][2]float64 {
	var spans [][2]float64
	for _, f := range sys.Failures() {
		spans = append(spans, [2]float64{f.Time, f.Time + f.Downtime})
	}
	return spans
}

func inSpan(spans [][2]float64, t float64) bool {
	for _, s := range spans {
		if t >= s[0] && t <= s[1] {
			return true
		}
	}
	return false
}

func countBefore(xs []float64, t float64) int {
	return sort.SearchFloat64s(xs, t)
}

func keepBefore(xs []float64, t float64) []float64 {
	return append([]float64(nil), xs[:countBefore(xs, t)]...)
}

// lastBefore returns the largest x ≤ t, or 0.
func lastBefore(xs []float64, t float64) float64 {
	i := sort.SearchFloat64s(xs, t)
	if i == 0 {
		return 0
	}
	return xs[i-1]
}

func interFailureTimes(failures []float64) []float64 {
	var out []float64
	for i := 1; i < len(failures); i++ {
		if d := failures[i] - failures[i-1]; d > 0 {
			out = append(out, d)
		}
	}
	return out
}

// thin keeps at most max sequences, evenly spaced.
func thin(seqs []eventlog.Sequence, max int) []eventlog.Sequence {
	if len(seqs) <= max {
		return seqs
	}
	out := make([]eventlog.Sequence, 0, max)
	step := float64(len(seqs)) / float64(max)
	for i := 0; i < max; i++ {
		out = append(out, seqs[int(float64(i)*step)])
	}
	return out
}
