package experiments

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/predict"
)

// TestCaseStudyReproducesPaperShape is the E1/E2/E9 acceptance test: the
// absolute numbers differ from the paper (our substrate is a simulator, not
// the authors' SCP), but the shape must hold — HSMM and UBF are strong
// predictors, HSMM beats UBF, and both clearly beat the rule-based and
// statistical baselines of the other taxonomy branches. See EXPERIMENTS.md.
func TestCaseStudyReproducesPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-week simulation + training")
	}
	res, err := RunCaseStudy(DefaultCaseStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainFailures < 30 || res.TestFailures < 15 {
		t.Fatalf("too few failures: train=%d test=%d", res.TrainFailures, res.TestFailures)
	}
	get := func(name string) PredictorResult {
		t.Helper()
		p, ok := res.ByName(name)
		if !ok {
			t.Fatalf("predictor %q missing", name)
		}
		return p
	}
	hsmm := get("HSMM")
	ubf := get("UBF")
	dft := get("DFT")
	trend := get("trend")
	tracking := get("failure-tracking")

	// E1: HSMM quality in the paper's region (precision 0.70, recall 0.62,
	// fpr 0.016, AUC 0.873 — we accept the same order of magnitude).
	if hsmm.AUC < 0.8 {
		t.Fatalf("HSMM AUC = %.3f, want ≥ 0.8", hsmm.AUC)
	}
	if r := hsmm.Table.Recall(); r < 0.5 || r > 0.8 {
		t.Fatalf("HSMM recall = %.3f, paper reports 0.62", r)
	}
	if p := hsmm.Table.Precision(); p < 0.6 {
		t.Fatalf("HSMM precision = %.3f, paper reports 0.70", p)
	}
	if f := hsmm.Table.FPR(); f > 0.05 {
		t.Fatalf("HSMM fpr = %.4f, paper reports 0.016", f)
	}
	// E2: UBF close behind (paper: 0.846 vs 0.873).
	if ubf.AUC < 0.75 {
		t.Fatalf("UBF AUC = %.3f, want ≥ 0.75", ubf.AUC)
	}
	if hsmm.AUC <= ubf.AUC {
		t.Fatalf("ordering violated: HSMM %.3f ≤ UBF %.3f", hsmm.AUC, ubf.AUC)
	}
	// E9: the exemplary methods beat the simple taxonomy baselines.
	for _, weak := range []PredictorResult{dft, trend, tracking} {
		if hsmm.AUC <= weak.AUC {
			t.Fatalf("HSMM %.3f not above %s %.3f", hsmm.AUC, weak.Name, weak.AUC)
		}
		if ubf.AUC <= weak.AUC {
			t.Fatalf("UBF %.3f not above %s %.3f", ubf.AUC, weak.Name, weak.AUC)
		}
	}
}

// TestCaseStudyGolden pins the case study's results, bit for bit, to the
// values the stage-by-stage serial pipeline produced (one simulation run,
// then HSMM, UBF and the baselines one after another) on a short horizon:
// the two simulation legs, the HSMM fit started between them, the
// side-by-side tasks and the concurrent model fits must change nothing, at
// one worker or several. GOMAXPROCS is fixed because the HSMM E-step's
// shard count follows it.
func TestCaseStudyGolden(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	want := []struct {
		name           string
		auc, threshold uint64 // math.Float64bits
		table          predict.ContingencyTable
	}{
		{"HSMM", 0x3fe9b89b0723b2bf, 0x4017a4445cbdd9ec, predict.ContingencyTable{TP: 18, FP: 0, FN: 8, TN: 502}},
		{"UBF", 0x3fea507ec8b05df9, 0xc0117ff7a1c4f21b, predict.ContingencyTable{TP: 14, FP: 31, FN: 12, TN: 471}},
		{"DFT", 0x3fe5e6bcc382c900, 0x4010000000000000, predict.ContingencyTable{TP: 4, FP: 4, FN: 22, TN: 498}},
		{"error-rate", 0x3fe6f5e116ac71ea, 0x3f9b4e81b4e81b4f, predict.ContingencyTable{TP: 5, FP: 7, FN: 21, TN: 495}},
		{"event-set", 0x3feb6dc25584327e, 0x4005f188cf2cf023, predict.ContingencyTable{TP: 19, FP: 10, FN: 7, TN: 492}},
		{"trend", 0x3fe40d7e8c6f681a, 0x3fdb6e30c53c9cd8, predict.ContingencyTable{TP: 10, FP: 59, FN: 16, TN: 443}},
		{"failure-tracking", 0x3fe33777cd293069, 0x3f26584d8a0ef926, predict.ContingencyTable{TP: 4, FP: 9, FN: 22, TN: 493}},
		{"MSET", 0x3fe88a14de7fe207, 0x3ff4cf3cf654a7ef, predict.ContingencyTable{TP: 15, FP: 30, FN: 11, TN: 472}},
	}
	for _, workers := range []int{1, 2} {
		cfg := DefaultCaseStudyConfig()
		cfg.TrainDays, cfg.TestDays, cfg.Workers = 4, 2, workers
		res, err := RunCaseStudy(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.TrainFailures != 27 || res.TestFailures != 15 || res.EvalPoints != 528 {
			t.Fatalf("workers=%d: failures %d/%d, %d evaluation points; want 27/15, 528",
				workers, res.TrainFailures, res.TestFailures, res.EvalPoints)
		}
		if len(res.Predictors) != len(want) {
			t.Fatalf("workers=%d: %d predictors, want %d", workers, len(res.Predictors), len(want))
		}
		for i, w := range want {
			p := res.Predictors[i]
			if p.Name != w.name || math.Float64bits(p.AUC) != w.auc ||
				math.Float64bits(p.Threshold) != w.threshold || p.Table != w.table {
				t.Errorf("workers=%d: %s AUC %v threshold %v table %+v; want %s AUC %v threshold %v table %+v",
					workers, p.Name, p.AUC, p.Threshold, p.Table,
					w.name, math.Float64frombits(w.auc), math.Float64frombits(w.threshold), w.table)
			}
		}
	}
}

func TestCaseStudyValidation(t *testing.T) {
	bad := DefaultCaseStudyConfig()
	bad.TrainDays = 0
	if _, err := RunCaseStudy(bad); err == nil {
		t.Fatal("bad config accepted")
	}
	bad = DefaultCaseStudyConfig()
	bad.LeadTime = -1
	if _, err := RunCaseStudy(bad); err == nil {
		t.Fatal("negative lead time accepted")
	}
}

// TestCaseStudyWithPWA exercises the PWA-selected UBF path end to end on a
// shorter horizon.
func TestCaseStudyWithPWA(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation + wrapper selection")
	}
	cfg := DefaultCaseStudyConfig()
	cfg.TrainDays = 7
	cfg.TestDays = 3
	cfg.UsePWA = true
	res, err := RunCaseStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SelectedVariables) == 0 {
		t.Fatal("PWA selected no variables")
	}
	if _, ok := res.ByName("UBF"); !ok {
		t.Fatal("UBF result missing")
	}
}

// TestCaseStudyShapeRobustAcrossSeeds guards the E1/E2/E9 shape against
// seed overfitting: on fresh platforms the exemplary predictors must stay
// strong and stay ahead of the weak taxonomy branches.
func TestCaseStudyShapeRobustAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple multi-week simulations")
	}
	for _, seed := range []int64{21, 99} {
		cfg := DefaultCaseStudyConfig()
		cfg.Seed = seed
		res, err := RunCaseStudy(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		hsmm, _ := res.ByName("HSMM")
		ubf, _ := res.ByName("UBF")
		dft, _ := res.ByName("DFT")
		tracking, _ := res.ByName("failure-tracking")
		if hsmm.AUC < 0.75 {
			t.Fatalf("seed %d: HSMM AUC %.3f", seed, hsmm.AUC)
		}
		if ubf.AUC < 0.7 {
			t.Fatalf("seed %d: UBF AUC %.3f", seed, ubf.AUC)
		}
		for _, weak := range []PredictorResult{dft, tracking} {
			if hsmm.AUC <= weak.AUC {
				t.Fatalf("seed %d: HSMM %.3f not above %s %.3f", seed, hsmm.AUC, weak.Name, weak.AUC)
			}
		}
	}
}

// TestCaseStudySteadyStateAllocs holds the whole short case study (4 + 2
// days: simulation, extraction, both model fits, every baseline, scoring)
// to an allocation ceiling. AllocsPerRun runs at GOMAXPROCS 1, where the
// count is the same from run to run: 2084 on the tree that set the
// ceiling, against 28.4 k before the kernels reused their storage (a view
// per series window, a copy per window mean, a closure per noise event and
// per burst error, buffers per sliding window and per extracted or EM
// sequence, three vectors per MSET row) and 2471 before DFT stopped
// allocating a delay slice per window. The ceiling leaves 12 % headroom;
// any one of those sites coming back exceeds it.
func TestCaseStudySteadyStateAllocs(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("runs the case study twice; counts under -race are the detector's")
	}
	const ceiling = 2350
	cfg := DefaultCaseStudyConfig()
	cfg.TrainDays, cfg.TestDays = 4, 2
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := RunCaseStudy(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("case study (%g + %g days) allocates %.0f", cfg.TrainDays, cfg.TestDays, allocs)
	if allocs > ceiling {
		t.Fatalf("case study allocates %.0f, ceiling %d", allocs, ceiling)
	}
}
