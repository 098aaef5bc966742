package pfm

// The benchmark suite regenerates every table and figure of the paper's
// evaluation (the mapping lives in DESIGN.md; measured-vs-paper numbers in
// EXPERIMENTS.md). Each benchmark reports the reproduced quantities as
// custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper reports alongside the runtime cost
// of regenerating them.

import (
	"context"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventlog"
	"repro/internal/experiments"
	"repro/internal/hsmm"
	"repro/internal/mat"
	"repro/internal/pfmmodel"
	"repro/internal/runtime"
	"repro/internal/stats"
	"repro/internal/ubf"
)

// rtpool builds a layer-evaluation worker pool (aliased for benchmarks).
func rtpool(workers int) *runtime.Pool { return runtime.NewPool(workers) }

// --- Section 5 model: Table 2, Eq. 8, Eq. 14, Fig. 10 ------------------------

// BenchmarkEq14UnavailabilityRatio regenerates the paper's headline number:
// (1−A_PFM)/(1−A) ≈ 0.488 for the Table 2 parameters (E4).
func BenchmarkEq14UnavailabilityRatio(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunModel(pfmmodel.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.UnavailabilityRatio
	}
	b.ReportMetric(ratio, "Eq14-ratio")
}

// BenchmarkEq8ClosedVsNumeric verifies and times the closed form of Eq. 8
// against the numeric stationary solution of the Fig. 9 chain (E10).
func BenchmarkEq8ClosedVsNumeric(b *testing.B) {
	p := pfmmodel.DefaultParams()
	var closed, numeric float64
	for i := 0; i < b.N; i++ {
		var err error
		closed, err = p.Availability()
		if err != nil {
			b.Fatal(err)
		}
		numeric, err = p.AvailabilityNumeric()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(closed, "A-closed")
	b.ReportMetric(closed-numeric, "closed-numeric-diff")
}

// BenchmarkFig10aReliability regenerates the Fig. 10(a) reliability series
// over [0, 50000] s (E5).
func BenchmarkFig10aReliability(b *testing.B) {
	p := pfmmodel.DefaultParams()
	var mid pfmmodel.CurvePoint
	for i := 0; i < b.N; i++ {
		pts, err := p.ReliabilityCurve(50000, 50)
		if err != nil {
			b.Fatal(err)
		}
		mid = pts[len(pts)/2]
	}
	b.ReportMetric(mid.WithPFM, "R25000-withPFM")
	b.ReportMetric(mid.WithoutPFM, "R25000-without")
}

// BenchmarkFig10bHazard regenerates the Fig. 10(b) hazard series over
// [0, 1000] s (E6).
func BenchmarkFig10bHazard(b *testing.B) {
	p := pfmmodel.DefaultParams()
	var last pfmmodel.CurvePoint
	for i := 0; i < b.N; i++ {
		pts, err := p.HazardCurve(1000, 20)
		if err != nil {
			b.Fatal(err)
		}
		last = pts[len(pts)-1]
	}
	b.ReportMetric(last.WithPFM*1e5, "h1000-withPFM-1e-5")
	b.ReportMetric(last.WithoutPFM*1e5, "h1000-without-1e-5")
}

// --- Case study: Sect. 3.3 results (E1, E2, E9) ------------------------------

// caseStudyOnce caches the (expensive) case study so the per-predictor
// benchmarks report from one shared run.
var caseStudyOnce = struct {
	sync.Once
	res experiments.CaseStudyResult
	err error
}{}

func caseStudy(b *testing.B) experiments.CaseStudyResult {
	b.Helper()
	caseStudyOnce.Do(func() {
		caseStudyOnce.res, caseStudyOnce.err = experiments.RunCaseStudy(experiments.DefaultCaseStudyConfig())
	})
	if caseStudyOnce.err != nil {
		b.Fatal(caseStudyOnce.err)
	}
	return caseStudyOnce.res
}

// reportPredictor emits one predictor's Sect. 3.3-style row.
func reportPredictor(b *testing.B, name string) {
	b.Helper()
	res := caseStudy(b)
	p, ok := res.ByName(name)
	if !ok {
		b.Fatalf("predictor %q missing", name)
	}
	b.ReportMetric(p.AUC, "AUC")
	b.ReportMetric(p.Table.Precision(), "precision")
	b.ReportMetric(p.Table.Recall(), "recall")
	b.ReportMetric(p.Table.FPR()*1000, "fpr-1e-3")
}

// BenchmarkCaseStudyHSMM regenerates the HSMM row of Sect. 3.3 (paper:
// precision 0.70, recall 0.62, fpr 0.016, AUC 0.873) — experiment E1.
func BenchmarkCaseStudyHSMM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportPredictor(b, "HSMM")
	}
}

// BenchmarkCaseStudyUBF regenerates the UBF row (paper: AUC 0.846) — E2.
func BenchmarkCaseStudyUBF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportPredictor(b, "UBF")
	}
}

// BenchmarkTaxonomyROC compares all taxonomy-branch predictors on the same
// dataset (E9) and reports the spread between the exemplary methods and the
// baselines.
func BenchmarkTaxonomyROC(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		res := caseStudy(b)
		best, worst := 0.0, 1.0
		for _, p := range res.Predictors {
			if p.AUC > best {
				best = p.AUC
			}
			if p.AUC < worst {
				worst = p.AUC
			}
		}
		spread = best - worst
	}
	b.ReportMetric(spread, "AUC-spread")
}

// BenchmarkPWASelection runs the E8 variable-selection comparison and
// reports PWA's advantage over the expert subset.
func BenchmarkPWASelection(b *testing.B) {
	var pwaAUC, expertAUC float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSelectionComparison(experiments.DefaultCaseStudyConfig())
		if err != nil {
			b.Fatal(err)
		}
		pwa, _ := res.ByStrategy("PWA")
		expert, _ := res.ByStrategy("expert")
		pwaAUC, expertAUC = pwa.TestAUC, expert.TestAUC
	}
	b.ReportMetric(pwaAUC, "PWA-AUC")
	b.ReportMetric(expertAUC, "expert-AUC")
}

// --- Closed loop: Table 1, Fig. 8, blueprint (E3, E7, E11, E12) ---------------

// BenchmarkTable1Behaviour runs the full MEA loop against the simulator and
// reports the measured availability improvement and Table 1 quality (E3).
func BenchmarkTable1Behaviour(b *testing.B) {
	var res experiments.MEAResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunMEA(experiments.DefaultMEAConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.AvailabilityWithPFM, "A-withPFM")
	b.ReportMetric(res.AvailabilityWithout, "A-without")
	b.ReportMetric(res.UnavailabilityRatio, "measured-ratio")
	b.ReportMetric(res.Quality.Recall(), "recall")
}

// BenchmarkFig8TTR regenerates the Fig. 8 TTR decomposition (E7).
func BenchmarkFig8TTR(b *testing.B) {
	var res experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig8(3, 7, 900)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ClassicalTTR(), "classical-TTR-s")
	b.ReportMetric(res.PFMTTR(), "pfm-TTR-s")
}

// BenchmarkMetaLearning reports the stacked-vs-base AUCs of the Sect. 6
// blueprint experiment (E11).
func BenchmarkMetaLearning(b *testing.B) {
	var res experiments.MetaResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunMetaLearning(experiments.DefaultCaseStudyConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	best := 0.0
	for _, auc := range res.BaseAUC {
		if auc > best {
			best = auc
		}
	}
	b.ReportMetric(res.StackedAUC, "stacked-AUC")
	b.ReportMetric(best, "best-base-AUC")
}

// BenchmarkOscillationGuard runs the E12 control-loop stability ablation.
func BenchmarkOscillationGuard(b *testing.B) {
	var on, off experiments.OscillationResult
	for i := 0; i < b.N; i++ {
		var err error
		off, err = experiments.RunOscillationAblation(5, 2, false)
		if err != nil {
			b.Fatal(err)
		}
		on, err = experiments.RunOscillationAblation(5, 2, true)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(off.Availability, "A-guard-off")
	b.ReportMetric(on.Availability, "A-guard-on")
}

// --- Design ablations (DESIGN.md) --------------------------------------------

// BenchmarkAblationDurations compares the semi-Markov duration modeling
// against the duration-blind plain HMM on timing-separated sequences.
func BenchmarkAblationDurations(b *testing.B) {
	g := stats.NewRNG(29)
	gen := func(mu float64, n int) []eventlog.Sequence {
		out := make([]eventlog.Sequence, n)
		for i := range out {
			seq := eventlog.Sequence{Times: make([]float64, 10), Types: make([]int, 10)}
			t := 0.0
			for k := 0; k < 10; k++ {
				if k > 0 {
					t += stats.LogNormal{Mu: mu, Sigma: 0.3}.Sample(g)
				}
				seq.Times[k] = t
				seq.Types[k] = 1 + g.Intn(2)
			}
			out[i] = seq
		}
		return out
	}
	fast, slow := gen(-0.7, 30), gen(2.1, 30)
	var withDur, without float64
	for i := 0; i < b.N; i++ {
		for _, family := range []hsmm.DurationFamily{hsmm.FamilyLogNormal, hsmm.FamilyNone} {
			clf, err := hsmm.TrainClassifier(fast, slow, hsmm.Config{States: 2, Seed: 7, Family: family})
			if err != nil {
				b.Fatal(err)
			}
			correct := 0
			for _, s := range fast {
				if sc, _ := clf.Score(s); sc > 0 {
					correct++
				}
			}
			for _, s := range slow {
				if sc, _ := clf.Score(s); sc <= 0 {
					correct++
				}
			}
			acc := float64(correct) / 60
			if family == hsmm.FamilyLogNormal {
				withDur = acc
			} else {
				without = acc
			}
		}
	}
	b.ReportMetric(withDur, "acc-semi-markov")
	b.ReportMetric(without, "acc-plain-hmm")
}

// BenchmarkAblationUBFKernel compares mixed UBF kernels against pure RBF on
// a step-shaped target (the paper's motivation for Eq. 1).
func BenchmarkAblationUBFKernel(b *testing.B) {
	g := stats.NewRNG(3)
	n := 200
	x := mat.New(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := -3 + 6*g.Float64()
		x.Set(i, 0, v)
		if v > 0 {
			y[i] = 1
		}
	}
	mseOf := func(pure bool) float64 {
		cfg := ubf.TrainConfig{NumKernels: 4, Candidates: 25, Refinements: 15, Seed: 4, PureRBF: pure}
		net, err := ubf.Train(x, y, cfg)
		if err != nil {
			b.Fatal(err)
		}
		pred, err := net.PredictRows(x)
		if err != nil {
			b.Fatal(err)
		}
		s := 0.0
		for i, p := range pred {
			d := p - y[i]
			s += d * d
		}
		return s / float64(n)
	}
	var mixed, pure float64
	for i := 0; i < b.N; i++ {
		mixed = mseOf(false)
		pure = mseOf(true)
	}
	b.ReportMetric(mixed*1000, "mse-mixed-1e-3")
	b.ReportMetric(pure*1000, "mse-pureRBF-1e-3")
}

// --- Micro-benchmarks of the hot paths ----------------------------------------

// BenchmarkCTMCSteadyState times the Fig. 9 stationary solve.
func BenchmarkCTMCSteadyState(b *testing.B) {
	p := pfmmodel.DefaultParams()
	c, err := p.Chain()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SteadyState(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhaseTypeReliability times one R(t) evaluation (matrix
// exponential of the 5-phase sub-generator).
func BenchmarkPhaseTypeReliability(b *testing.B) {
	m, err := pfmmodel.DefaultParams().ReliabilityModel()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Survival(25000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHSMMScore times scoring one 12-event window with a trained
// classifier (the per-cycle cost of the log layer).
func BenchmarkHSMMScore(b *testing.B) {
	g := stats.NewRNG(1)
	gen := func(n int) []eventlog.Sequence {
		out := make([]eventlog.Sequence, n)
		for i := range out {
			seq := eventlog.Sequence{Times: make([]float64, 12), Types: make([]int, 12)}
			t := 0.0
			for k := 0; k < 12; k++ {
				if k > 0 {
					t += g.ExpFloat64() * 20
				}
				seq.Times[k] = t
				seq.Types[k] = 1 + g.Intn(5)
			}
			out[i] = seq
		}
		return out
	}
	clf, err := hsmm.TrainClassifier(gen(20), gen(20), hsmm.Config{States: 6, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	window := gen(1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clf.Score(window); err != nil {
			b.Fatal(err)
		}
	}
}

// benchHSMMSeqs draws n synthetic error sequences of the given length with
// a 5-symbol alphabet and bursty lognormal delays.
func benchHSMMSeqs(g *stats.RNG, n, length int) []eventlog.Sequence {
	out := make([]eventlog.Sequence, n)
	for i := range out {
		seq := eventlog.Sequence{Times: make([]float64, length), Types: make([]int, length)}
		t := 0.0
		for k := 0; k < length; k++ {
			if k > 0 {
				t += stats.LogNormal{Mu: 0.5, Sigma: 0.8}.Sample(g)
			}
			seq.Times[k] = t
			seq.Types[k] = 1 + g.Intn(5)
		}
		out[i] = seq
	}
	return out
}

// BenchmarkHSMMForward times the steady-state forward pass (LogLikelihood)
// on an 8-state model over a 64-event window. The allocs/op column enforces
// the allocation-free kernel claim: it must read 0.
func BenchmarkHSMMForward(b *testing.B) {
	g := stats.NewRNG(71)
	m, err := hsmm.Fit(benchHSMMSeqs(g, 16, 32), hsmm.Config{States: 8, Seed: 3, MaxIter: 5})
	if err != nil {
		b.Fatal(err)
	}
	window := benchHSMMSeqs(g, 1, 64)[0]
	if _, err := m.LogLikelihood(window); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.LogLikelihood(window); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHSMMFit times full EM training of an 8-state model (4 restarts,
// 10 iterations) over 24 sequences — the parallel-restart/parallel-E-step
// hot path.
func BenchmarkHSMMFit(b *testing.B) {
	g := stats.NewRNG(73)
	seqs := benchHSMMSeqs(g, 24, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hsmm.Fit(seqs, hsmm.Config{States: 8, Seed: 5, MaxIter: 10, Restarts: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifierScore times two-model scoring of a 64-event window
// under an 8-state classifier, plus the batched ScoreAll over the full test
// grid (the case-study path).
func BenchmarkClassifierScore(b *testing.B) {
	g := stats.NewRNG(79)
	clf, err := hsmm.TrainClassifier(
		benchHSMMSeqs(g, 12, 24), benchHSMMSeqs(g, 12, 24),
		hsmm.Config{States: 8, Seed: 7, MaxIter: 5})
	if err != nil {
		b.Fatal(err)
	}
	windows := benchHSMMSeqs(g, 64, 64)
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := clf.Score(windows[i%len(windows)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := clf.ScoreAll(windows); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUBFPredict times one UBF network evaluation (the per-cycle cost
// of the symptom layer).
func BenchmarkUBFPredict(b *testing.B) {
	g := stats.NewRNG(5)
	n := 100
	x := mat.New(n, 7)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for c := 0; c < 7; c++ {
			x.Set(i, c, g.NormFloat64())
		}
		y[i] = g.NormFloat64()
	}
	net, err := ubf.Train(x, y, ubf.TrainConfig{NumKernels: 12, Candidates: 5, Refinements: 2, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	probe := x.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Predict(probe); err != nil {
			b.Fatal(err)
		}
	}
}

// benchUBFNet trains a case-study-sized UBF network (12 kernels over 7
// standardized SAR features) with a matching evaluation grid.
func benchUBFNet(b *testing.B, rows int) (*ubf.Network, *mat.Matrix) {
	b.Helper()
	g := stats.NewRNG(41)
	x := mat.New(rows, 7)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for c := 0; c < 7; c++ {
			x.Set(i, c, g.NormFloat64())
		}
		y[i] = g.NormFloat64()
	}
	net, err := ubf.Train(x, y, ubf.TrainConfig{NumKernels: 12, Candidates: 5, Refinements: 2, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	return net, x
}

// BenchmarkUBFScore times the batched design-matrix kernel plus the fused
// prediction over a 512-point grid — the symptom layer's test-grid scoring
// path. The allocs/op column enforces the flat-buffer claim: it must read 0.
func BenchmarkUBFScore(b *testing.B) {
	net, x := benchUBFNet(b, 512)
	phi := make([]float64, x.Rows*(len(net.Kernels)+1))
	out := make([]float64, x.Rows)
	if err := net.EvalAll(x, phi); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.EvalAll(x, phi); err != nil {
			b.Fatal(err)
		}
		if err := net.PredictRowsInto(x, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUBFFit times full UBF training (randomized candidate search with
// per-candidate RNG streams, fanned across cores, plus serial refinement)
// at the case-study configuration.
func BenchmarkUBFFit(b *testing.B) {
	g := stats.NewRNG(43)
	x := mat.New(300, 7)
	y := make([]float64, 300)
	for i := 0; i < 300; i++ {
		for c := 0; c < 7; c++ {
			x.Set(i, c, g.NormFloat64())
		}
		y[i] = g.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ubf.Train(x, y, ubf.TrainConfig{NumKernels: 12, Candidates: 15, Refinements: 10, Seed: 44}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSCPSimYear times a simulated year of the unmitigated SCP — the
// discrete-event engine's typed-heap/freelist hot path at ~6.3M ticks.
func BenchmarkSCPSimYear(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := NewSCP(DefaultSCPConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(365 * 86400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaseStudyParallel shards four whole seed-replicate case studies
// (reduced horizon) across cores and reports the speedup over the serial
// run. The rendered results must match byte for byte — the determinism
// contract — and on a ≥4-core host the sweep is expected to reach ≥3×;
// with fewer cores the speedup is reported without being enforceable.
func BenchmarkCaseStudyParallel(b *testing.B) {
	base := experiments.DefaultCaseStudyConfig()
	base.TrainDays, base.TestDays = 4, 2
	cfgs := experiments.ReplicateConfigs(base, 4)
	render := func(results []experiments.CaseStudyResult) string {
		s := ""
		for _, r := range results {
			for _, p := range r.Predictors {
				s += fmt.Sprintf("%s %v %v %d %d %d %d\n",
					p.Name, p.AUC, p.Threshold, p.Table.TP, p.Table.FP, p.Table.FN, p.Table.TN)
			}
		}
		return s
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		serial, err := experiments.RunCaseStudySweep(cfgs, 1)
		if err != nil {
			b.Fatal(err)
		}
		serialDur := time.Since(t0)
		t1 := time.Now()
		parallel, err := experiments.RunCaseStudySweep(cfgs, 0)
		if err != nil {
			b.Fatal(err)
		}
		parallelDur := time.Since(t1)
		if render(serial) != render(parallel) {
			b.Fatal("parallel sweep result diverges from serial")
		}
		speedup = serialDur.Seconds() / parallelDur.Seconds()
	}
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(stdruntime.NumCPU()), "cores")
	if stdruntime.NumCPU() >= 4 && speedup < 3 {
		b.Logf("speedup %.2f× below the 3× target on %d cores (load-dependent)", speedup, stdruntime.NumCPU())
	}
}

// BenchmarkSCPDay times one simulated day of the unmitigated SCP.
func BenchmarkSCPDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := NewSCP(DefaultSCPConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(86400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicityAdaptation runs the E13 dynamicity experiment: stale
// model degradation after a signature shift, drift detection, retraining.
func BenchmarkDynamicityAdaptation(b *testing.B) {
	var res experiments.DynamicityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunDynamicity(13)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.AUCBeforeShift, "AUC-before")
	b.ReportMetric(res.AUCAfterShiftStale, "AUC-stale")
	b.ReportMetric(res.AUCAfterRetrain, "AUC-retrained")
	b.ReportMetric(res.DetectionDelay, "detect-delay-s")
}

// BenchmarkDiagnosis runs the E14 pre-failure root-cause experiment.
func BenchmarkDiagnosis(b *testing.B) {
	var res experiments.DiagnosisResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunDiagnosis(experiments.DefaultCaseStudyConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Accuracy(), "top1-accuracy")
	b.ReportMetric(float64(res.Diagnosed), "diagnosed")
}

// BenchmarkRejuvenationComparison runs the E15 model comparison: blind
// time-triggered rejuvenation (Huang et al.) vs prediction-triggered PFM.
func BenchmarkRejuvenationComparison(b *testing.B) {
	var res experiments.RejuvenationComparison
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunRejuvenationComparison()
		if err != nil {
			b.Fatal(err)
		}
	}
	slow := res.Regimes[len(res.Regimes)-1]
	b.ReportMetric(slow.NoAction, "A-none")
	b.ReportMetric(slow.OptimalBlind, "A-blind-opt")
	b.ReportMetric(slow.PFM, "A-PFM")
}

// --- Streaming runtime (internal/runtime, cmd/pfmd) ---------------------------

// benchRuntimeEngine builds an externally clocked MEA engine over the given
// layers for runtime benchmarks.
func benchRuntimeEngine(b *testing.B, layers []*Layer) *MEAEngine {
	b.Helper()
	sel, err := NewActionSelector(DefaultObjectiveWeights())
	if err != nil {
		b.Fatal(err)
	}
	action, err := NewAction("noop", StateCleanup,
		ActionParams{Cost: 0.1, SuccessProb: 0.9, Complexity: 0.1},
		func() error { return nil })
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewMEAEngine(nil, layers, nil, sel, []*Action{action}, nil, MEAConfig{
		EvalInterval:  1,
		LeadTime:      300,
		WarnThreshold: 0.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkRuntimeThroughput measures sustained ingest throughput of the
// streaming pipeline (bounded queue → Apply) and reports events/sec, with
// end-to-end span tracing disabled vs enabled — the tracing-on/-off ratio
// is the overhead budget the tracer must stay inside (<5%) — and with the
// flight recorder armed on top of tracing, whose steady-state (no trigger
// firing) must stay within 1% of the tracing-on arm at 0 allocs/op.
func BenchmarkRuntimeThroughput(b *testing.B) {
	for _, tc := range []struct {
		name     string
		tracer   func() *Tracer
		recorder func(*Tracer) *Recorder
	}{
		{"tracing-off", func() *Tracer { return nil }, nil},
		{"tracing-on", func() *Tracer { return NewTracer(256) }, nil},
		{"recorder-on", func() *Tracer { return NewTracer(256) }, func(tr *Tracer) *Recorder {
			rec, err := NewRecorder(RecorderConfig{
				Layers: []string{"quiet"},
				Tracer: tr,
			})
			if err != nil {
				b.Fatal(err)
			}
			return rec
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			layers := []*Layer{{
				Name:      "quiet",
				Evaluate:  func(float64) (float64, error) { return 0, nil },
				Threshold: 1,
			}}
			var applied int64
			tracer := tc.tracer()
			var recorder *Recorder
			if tc.recorder != nil {
				recorder = tc.recorder(tracer)
			}
			rt, err := NewRuntime(RuntimeConfig{
				Engine:        benchRuntimeEngine(b, layers),
				Apply:         func(RuntimeEvent) error { applied++; return nil },
				QueueCapacity: 4096,
				Overflow:      OverflowBlock,
				Tracer:        tracer,
				Recorder:      recorder,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if err := rt.Start(ctx); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if err := rt.Ingest(ctx, RuntimeEvent{Kind: RuntimeEventSample, Time: float64(i), Variable: "x", Value: 1}); err != nil {
					b.Fatal(err)
				}
			}
			if err := rt.Stop(ctx); err != nil {
				b.Fatal(err)
			}
			elapsed := time.Since(start).Seconds()
			b.StopTimer()
			if applied != int64(b.N) {
				b.Fatalf("applied %d of %d", applied, b.N)
			}
			b.ReportMetric(float64(b.N)/elapsed, "events/sec")
		})
	}
}

// BenchmarkRuntimeShardedIngest measures ingest throughput with the
// monitoring streams of eight SAR-style variables routed over 1 vs 4 ingest
// shards. Apply burns a small fixed amount of per-event work, standing in
// for mirror-state maintenance; with shards > 1 that work runs on several
// consumers (on multi-core hosts) while per-variable ordering is preserved.
func BenchmarkRuntimeShardedIngest(b *testing.B) {
	vars := []string{"cpu", "mem_free", "swap", "io", "net", "queue", "semops", "err_rate"}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			layers := []*Layer{{
				Name:      "quiet",
				Evaluate:  func(float64) (float64, error) { return 0, nil },
				Threshold: 1,
			}}
			var applied atomic.Int64
			rt, err := NewRuntime(RuntimeConfig{
				Engine: benchRuntimeEngine(b, layers),
				Apply: func(ev RuntimeEvent) error {
					// Fixed per-event work (~a short series append + stat).
					s := 0.0
					for k := 0; k < 64; k++ {
						s += ev.Value * float64(k)
					}
					if s < 0 {
						return nil
					}
					applied.Add(1)
					return nil
				},
				QueueCapacity: 4096,
				Overflow:      OverflowBlock,
				Shards:        shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if err := rt.Start(ctx); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				ev := RuntimeEvent{
					Kind: RuntimeEventSample, Time: float64(i),
					Variable: vars[i%len(vars)], Value: 1,
				}
				if err := rt.Ingest(ctx, ev); err != nil {
					b.Fatal(err)
				}
			}
			if err := rt.Stop(ctx); err != nil {
				b.Fatal(err)
			}
			elapsed := time.Since(start).Seconds()
			b.StopTimer()
			if applied.Load() != int64(b.N) {
				b.Fatalf("applied %d of %d", applied.Load(), b.N)
			}
			b.ReportMetric(float64(b.N)/elapsed, "events/sec")
		})
	}
}

// BenchmarkRuntimeParallelLayers compares sequential layer evaluation with
// the runtime's worker pool on latency-bound layers (each simulating a
// ~200 µs monitor fetch, the common case for remote data sources). The
// pooled variant should complete one cycle in roughly fetch-latency rather
// than layers × fetch-latency.
func BenchmarkRuntimeParallelLayers(b *testing.B) {
	const nLayers = 8
	const fetchLatency = 200 * time.Microsecond
	layers := make([]*Layer, nLayers)
	for i := range layers {
		layers[i] = &Layer{
			Name: "remote",
			Evaluate: func(float64) (float64, error) {
				time.Sleep(fetchLatency) // stand-in for a monitor round-trip
				return 0.1, nil
			},
			Threshold: 1,
		}
	}
	eng := benchRuntimeEngine(b, layers)

	b.Run("sequential", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			eng.EvaluateLayers(float64(i))
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "cycles/sec")
	})
	b.Run("pool-8", func(b *testing.B) {
		pool := rtpool(nLayers)
		defer pool.Close()
		start := time.Now()
		layers := eng.Layers()
		for i := 0; i < b.N; i++ {
			now := float64(i)
			pool.Do(len(layers), func(j int) { _, _ = layers[j].Score(now) })
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "cycles/sec")
	})
}
