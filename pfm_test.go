package pfm

// Integration tests over the public facade: simulate, extract, train,
// persist, predict, act and diagnose through the root package. What the
// facade does not export (the Sect. 3.3 metrics, building an error log by
// hand) comes from the internal package it would have wrapped.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/predict"
)

func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day simulation")
	}
	// Simulate a week of telecom operation.
	sys, err := NewSCP(DefaultSCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(7 * 86400); err != nil {
		t.Fatal(err)
	}
	failures := sys.FailureTimes()
	if len(failures) < 10 {
		t.Fatalf("only %d failures in a week", len(failures))
	}

	// Extract Fig. 6 sequences and train the HSMM classifier.
	fail, nonFail, err := ExtractSequences(sys.Log(), failures, ExtractConfig{
		DataWindow:       300,
		LeadTime:         300,
		MinEvents:        2,
		NonFailureStride: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fail) == 0 || len(nonFail) == 0 {
		t.Fatalf("extraction yielded %d/%d sequences", len(fail), len(nonFail))
	}
	clf, err := TrainHSMMClassifier(fail, nonFail, HSMMConfig{States: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Persist and restore the classifier; scores must survive exactly.
	var buf bytes.Buffer
	if err := SaveHSMMClassifier(&buf, clf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadHSMMClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	window := SlidingWindow(sys.Log(), failures[0]-300, 300)
	a, err := clf.Score(window)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Score(window)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("persisted classifier drifted: %g vs %g", a, b)
	}

	// Score a grid and evaluate with the Sect. 3.3 metrics.
	var scored []predict.Scored
	for tt := 600.0; tt < 6.5*86400; tt += 600 {
		s, err := restored.Score(SlidingWindow(sys.Log(), tt, 300))
		if err != nil {
			t.Fatal(err)
		}
		actual := false
		for _, f := range failures {
			if f > tt && f <= tt+600 {
				actual = true
				break
			}
		}
		scored = append(scored, predict.Scored{Score: s, Actual: actual})
	}
	curve, err := predict.ROC(scored)
	if err != nil {
		t.Fatal(err)
	}
	auc, err := predict.AUC(curve)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.6 {
		t.Fatalf("facade-trained AUC = %.3f", auc)
	}
	if _, _, err := predict.MaxFMeasure(scored); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeModel(t *testing.T) {
	params := DefaultModelParams()
	res, err := RunModelExperiment(params)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.UnavailabilityRatio-0.488) > 0.01 {
		t.Fatalf("Eq. 14 via facade = %.4f", res.UnavailabilityRatio)
	}
	rel, haz, err := Fig10Curves(params, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 11 || len(haz) != 11 {
		t.Fatalf("curve lengths %d/%d", len(rel), len(haz))
	}
}

func TestFacadeMEALoop(t *testing.T) {
	sys, err := NewSCP(DefaultSCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	layer := &Layer{
		Name:      "load",
		Predictor: PredictorFunc(func(float64) (float64, error) { return sys.Utilization(), nil }),
		Threshold: 0.85,
	}
	cleanup, err := NewStateCleanup(sys, ActionParams{Cost: 0.2, SuccessProb: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	selector, err := NewActionSelector(DefaultObjectiveWeights())
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewMEAEngine([]*Layer{layer}, nil, selector, []*Action{cleanup},
		MEAConfig{EvalInterval: 120, LeadTime: 300, WarnThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	loop, err := AttachClosedLoop(sys, engine)
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	if err := sys.Run(86400); err != nil {
		t.Fatal(err)
	}
	report := engine.Report()
	if len(report.Layers) != 1 || report.Layers[0] != "load" {
		t.Fatalf("report layers = %v", report.Layers)
	}
	// One day at a 120 s cadence: 720 predictions, each booked or pending.
	o := loop.Outcomes()
	if q := o.Quality; q.TP+q.FP+q.TN+q.FN+o.Pending != 720 || q.TP+q.FP != report.Warnings {
		t.Fatalf("outcomes %+v, %d warnings", o, report.Warnings)
	}
}

func TestFacadeDiagnosis(t *testing.T) {
	log := eventlog.NewLog()
	add := func(tt float64, comp string, typ int) {
		t.Helper()
		if err := log.Append(eventlog.Event{Time: tt, Component: comp, Type: typ, Severity: eventlog.SeverityError, Message: "m"}); err != nil {
			t.Fatal(err)
		}
	}
	// Failure at t=1000 preceded by db errors; background net noise.
	add(820, "db", 1)
	add(860, "db", 1)
	add(880, "db", 2)
	for tt := 2000.0; tt < 8000; tt += 300 {
		add(tt, "net", 8)
	}
	fail, nonFail, err := CollectDiagnosisWindows(log, []float64{1000}, ExtractConfig{
		DataWindow:       300,
		LeadTime:         100,
		MinEvents:        1,
		NonFailureStride: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := TrainDiagnoser(log, fail, nonFail, 1)
	if err != nil {
		t.Fatal(err)
	}
	suspects := d.DiagnoseRange(log, 700, 1000)
	if len(suspects) == 0 || suspects[0].Component != "db" {
		t.Fatalf("suspects = %+v", suspects)
	}
}
