package experiments

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/predict"
)

// TestLedgerMatchesOfflineEvaluator pins the tentpole acceptance criterion:
// streaming a replayed SCP trace through the online prediction ledger must
// reproduce the offline Sect. 3.3 evaluator's contingency table EXACTLY —
// same (t, t+Δtl+Δtp] matching rule, same TP/FP/TN/FN counts — even though
// the ledger sees predictions and ground-truth failures interleaved in time
// order and resolves them incrementally at a moving watermark.
func TestLedgerMatchesOfflineEvaluator(t *testing.T) {
	cfg := DefaultCaseStudyConfig()
	cfg.TrainDays, cfg.TestDays = 2, 3 // enough failures, fast
	ds, err := buildDataset(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.testTimes) == 0 {
		t.Fatal("empty evaluation grid")
	}

	// Deterministic synthetic scores: parity is about the matching rule,
	// not predictor quality, so any threshold-straddling score stream works.
	const threshold = 0.5
	scores := make([]float64, len(ds.testTimes))
	for i, tt := range ds.testTimes {
		scores[i] = 0.5 + 0.5*math.Sin(tt/700)
	}

	// Offline: classify each grid point against the precomputed labels
	// (anyIn over the failure record), as the case-study evaluator does.
	var offline predict.ContingencyTable
	for i, label := range ds.testLabels {
		offline.Add(scores[i] >= threshold, label)
	}
	if offline.TP == 0 || offline.FN == 0 || offline.FP == 0 {
		t.Fatalf("degenerate offline table %+v: parity would be vacuous", offline)
	}

	// Online: stream the same trace through the ledger in time order —
	// failures land as they occur, the watermark advances with every
	// prediction, and everything resolves incrementally.
	led, err := obs.NewLedger(obs.LedgerConfig{
		LeadTime: cfg.LeadTime, Slack: slack,
	}, "replay")
	if err != nil {
		t.Fatal(err)
	}
	failIdx := 0
	for i, tt := range ds.testTimes {
		for failIdx < len(ds.failures) && ds.failures[failIdx] <= tt {
			led.RecordFailure(ds.failures[failIdx])
			failIdx++
		}
		led.RecordPrediction("replay", tt, scores[i] >= threshold, scores[i])
		led.Advance(tt)
	}
	for ; failIdx < len(ds.failures); failIdx++ {
		led.RecordFailure(ds.failures[failIdx])
	}
	led.Advance(ds.endAt + cfg.LeadTime + slack + 1)

	got := led.Cumulative("replay")
	if got != offline {
		t.Fatalf("ledger table %+v != offline evaluator table %+v", got, offline)
	}
	if q := led.Quality("replay"); q != offline {
		t.Fatalf("rolling (no-window) table %+v != offline table %+v", q, offline)
	}
	if snap := led.Snapshot(); snap.Predictions != int64(len(ds.testTimes)) {
		t.Fatalf("journaled %d predictions, want %d", snap.Predictions, len(ds.testTimes))
	}
}
