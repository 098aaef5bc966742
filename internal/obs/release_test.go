package obs

import (
	"strings"
	"testing"
)

// TestScopedLedgerRelease: releasing a scope frees its cardinality slot for
// a future tenant, drops it from Scopes, and retains its lifetime totals so
// fleet-level quality counters stay monotonic across tenant churn.
func TestScopedLedgerRelease(t *testing.T) {
	s, err := NewScopedLedger(scopedCfg(), 2, "app")
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Scope("a"), s.Scope("b")
	s.Scope("c") // beyond the cap: folds
	s.Scope("d")
	if s.Folded() != 2 {
		t.Fatalf("folded = %d, want 2", s.Folded())
	}
	a.RecordPrediction("app", 100, true, 0.9)
	a.RecordFailure(105)
	b.RecordPrediction("app", 100, true, 0.8)
	advanceScopes(s, 200)
	predsBefore, failsBefore := s.Totals()
	if predsBefore != 2 || failsBefore != 1 {
		t.Fatalf("totals = (%d, %d), want (2, 1)", predsBefore, failsBefore)
	}

	s.Release("a")
	if s.Dedicated("a") {
		t.Error("released scope still dedicated")
	}
	if got := s.Scopes(); strings.Join(got, ",") != "b,"+OverflowScope {
		t.Errorf("scopes after release = %v", got)
	}
	if preds, fails := s.Totals(); preds != predsBefore || fails != failsBefore {
		t.Errorf("totals changed on release: (%d, %d) != (%d, %d)",
			preds, fails, predsBefore, failsBefore)
	}

	// The freed slot is reusable: a new scope gets a dedicated journal and
	// its activity keeps accumulating on top of the retained tallies.
	e := s.Scope("e")
	if !s.Dedicated("e") {
		t.Fatal("new scope did not reuse the released slot")
	}
	e.RecordPrediction("app", 300, true, 0.9)
	advanceScopes(s, 400)
	if preds, _ := s.Totals(); preds != predsBefore+1 {
		t.Errorf("totals = %d, want %d", preds, predsBefore+1)
	}

	// Releasing a folded scope just uncounts it; its rows stay merged in
	// the overflow journal. Unknown and overflow releases are no-ops.
	s.Release("c")
	if s.Folded() != 1 {
		t.Errorf("folded after release = %d, want 1", s.Folded())
	}
	s.Release("nope")
	s.Release(OverflowScope)
	if preds, fails := s.Totals(); preds != predsBefore+1 || fails != failsBefore {
		t.Errorf("no-op releases moved totals to (%d, %d)", preds, fails)
	}
	var nilLedger *ScopedLedger
	nilLedger.Release("a") // nil receiver: no-op like the other accessors
}

// TestScopedRecorderRelease mirrors the ledger discipline for the flight
// recorder: the scope slot frees, capture counters stay monotonic, the
// retired scope's bundles are discarded.
func TestScopedRecorderRelease(t *testing.T) {
	sr, err := NewScopedRecorder(RecorderConfig{Layers: []string{"a"}, Window: 10, WarnThreshold: 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	t1 := sr.Scope("t1", RecorderScopeConfig{})
	sr.Scope("t2", RecorderScopeConfig{})
	sr.Scope("t3", RecorderScopeConfig{}) // folds
	t1.Observe(1, []float64{1}, CycleObservation{Warned: true, Confidence: 0.9})
	sr.Collect()
	if got := sr.Captured(TriggerWarn); got != 1 {
		t.Fatalf("captured = %d, want 1", got)
	}
	if len(sr.Bundles()) != 1 {
		t.Fatalf("bundles = %d, want 1", len(sr.Bundles()))
	}

	sr.Release("t1")
	if sr.Dedicated("t1") {
		t.Error("released recorder scope still dedicated")
	}
	if got := sr.Captured(TriggerWarn); got != 1 {
		t.Errorf("captured dropped to %d after release; must stay monotonic", got)
	}
	if got := sr.Bundles(); len(got) != 0 {
		t.Errorf("released scope's bundles still listed: %d", len(got))
	}
	if got := sr.Scopes(); strings.Join(got, ",") != "t2,"+OverflowScope {
		t.Errorf("scopes after release = %v", got)
	}

	// Slot reuse, and new captures stack on the retired tally.
	t4 := sr.Scope("t4", RecorderScopeConfig{})
	if !sr.Dedicated("t4") {
		t.Fatal("new recorder scope did not reuse the released slot")
	}
	t4.Observe(2, []float64{1}, CycleObservation{Warned: true, Confidence: 0.9})
	sr.Collect()
	if got := sr.Captured(TriggerWarn); got != 2 {
		t.Errorf("captured = %d, want 2 (1 retired + 1 live)", got)
	}

	sr.Release("t3") // folded
	if sr.Folded() != 0 {
		t.Errorf("folded after release = %d, want 0", sr.Folded())
	}
	sr.Release("nope")
	var nilRec *ScopedRecorder
	nilRec.Release("t1")
	if got := nilRec.Captured(TriggerWarn); got != 0 {
		t.Errorf("nil recorder Captured = %d", got)
	}
}
