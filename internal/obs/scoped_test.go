package obs

import (
	"fmt"
	"sync"
	"testing"
)

func scopedCfg() LedgerConfig { return LedgerConfig{LeadTime: 10, Slack: 2, Window: 0} }

// advanceScopes declares ground truth complete up to now on every journal
// of s, as a fleet's cycle does: each dedicated scope, then the overflow.
func advanceScopes(s *ScopedLedger, now float64) {
	for _, name := range s.Scopes() {
		s.Scope(name).Advance(now)
	}
}

// TestScopedLedgerIsolation verifies dedicated scopes match predictions only
// against their own failure stream: tenant A's failure must not turn tenant
// B's positive prediction into a true positive.
func TestScopedLedgerIsolation(t *testing.T) {
	s, err := NewScopedLedger(scopedCfg(), 8, "app")
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Scope("a"), s.Scope("b")
	if a == b {
		t.Fatal("distinct scopes under the cap share a journal")
	}
	a.RecordPrediction("app", 100, true, 0.9)
	b.RecordPrediction("app", 100, true, 0.9)
	a.RecordFailure(105) // inside (100, 112] for scope a only
	advanceScopes(s, 200)
	if got := a.Quality("app"); got.TP != 1 || got.FP != 0 {
		t.Fatalf("scope a: %+v, want TP=1", got)
	}
	if got := b.Quality("app"); got.FP != 1 || got.TP != 0 {
		t.Fatalf("scope b: %+v, want FP=1 (no cross-scope failure match)", got)
	}
}

// TestScopedLedgerCardinalityCap verifies the cap: scopes beyond MaxScopes
// fold into one shared overflow journal and are reported as folded.
func TestScopedLedgerCardinalityCap(t *testing.T) {
	const limit = 3
	s, err := NewScopedLedger(scopedCfg(), limit, "app")
	if err != nil {
		t.Fatal(err)
	}
	var leds []*Ledger
	for i := 0; i < 10; i++ {
		leds = append(leds, s.Scope(fmt.Sprintf("t%02d", i)))
	}
	for i := 0; i < limit; i++ {
		if !s.Dedicated(fmt.Sprintf("t%02d", i)) {
			t.Fatalf("scope %d under the cap is not dedicated", i)
		}
	}
	overflow := s.Scope(OverflowScope)
	for i := limit; i < 10; i++ {
		if s.Dedicated(fmt.Sprintf("t%02d", i)) {
			t.Fatalf("scope %d beyond the cap got a dedicated journal", i)
		}
		if leds[i] != overflow {
			t.Fatalf("scope %d beyond the cap does not share the overflow journal", i)
		}
	}
	if got := s.Folded(); got != 7 {
		t.Fatalf("Folded() = %d, want 7", got)
	}
	// Re-requesting a folded scope must not count it twice.
	s.Scope("t05")
	if got := s.Folded(); got != 7 {
		t.Fatalf("Folded() after repeat = %d, want 7", got)
	}
	scopes := s.Scopes()
	if len(scopes) != limit+1 || scopes[limit] != OverflowScope {
		t.Fatalf("Scopes() = %v, want %d dedicated + overflow last", scopes, limit)
	}
	// Stability: a scope's journal never changes across lookups.
	for i := 0; i < 10; i++ {
		if s.Scope(fmt.Sprintf("t%02d", i)) != leds[i] {
			t.Fatalf("scope %d journal changed between lookups", i)
		}
	}
}

// TestScopedLedgerAdvanceAndTotals drives several scopes plus the overflow
// journal through a full resolve and checks the aggregate accounting.
func TestScopedLedgerAdvanceAndTotals(t *testing.T) {
	s, err := NewScopedLedger(scopedCfg(), 2, "app")
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a", "b", "c", "d"} { // c, d fold together
		led := s.Scope(name)
		led.RecordPrediction("app", float64(100+i), true, 0.8)
		led.RecordFailure(float64(100 + i + 5))
	}
	advanceScopes(s, 500)
	preds, fails := s.Totals()
	if preds != 4 || fails != 4 {
		t.Fatalf("totals = %d preds / %d fails, want 4/4", preds, fails)
	}
	for _, name := range []string{"a", "b"} {
		if got := s.Scope(name).Quality("app"); got.TP != 1 {
			t.Fatalf("scope %s: %+v, want TP=1", name, got)
		}
	}
	if got := s.Scope(OverflowScope).Quality("app"); got.TP != 2 {
		t.Fatalf("overflow: %+v, want TP=2 (both folded scopes)", got)
	}
}

// TestScopedAdvanceZeroAllocs: between membership changes a fleet cycle's
// calls allocate nothing — the overflow journal's Advance, and the scoped
// recorder's Collect and Captured, which walk one cached member list.
func TestScopedAdvanceZeroAllocs(t *testing.T) {
	s, err := NewScopedLedger(scopedCfg(), 2, "app")
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewScopedRecorder(RecorderConfig{Layers: []string{"app"}, Window: 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} { // c folds
		s.Scope(name)
		sr.Scope(name, RecorderScopeConfig{})
	}
	overflow := s.Scope(OverflowScope)
	now := 0.0
	if got := testing.AllocsPerRun(100, func() {
		now++
		overflow.Advance(now)
		sr.Collect()
		sr.Captured(TriggerWarn)
	}); got != 0 {
		t.Fatalf("Advance+Collect+Captured allocate %.0f times a round, want 0", got)
	}
}

// TestScopedLedgerConcurrent hammers scope creation, journaling, and
// advancing from many goroutines; run with -race.
func TestScopedLedgerConcurrent(t *testing.T) {
	s, err := NewScopedLedger(scopedCfg(), 16, "app")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				led := s.Scope(fmt.Sprintf("t%d", (g*7+i)%32))
				led.RecordPrediction("app", float64(i), i%3 == 0, 0.5)
				if i%2 == 0 {
					led.RecordFailure(float64(i) + 3)
				}
				if i%50 == 0 {
					advanceScopes(s, float64(i))
				}
			}
		}(g)
	}
	wg.Wait()
	advanceScopes(s, 1e6)
	preds, fails := s.Totals()
	if preds != 8*200 || fails != 8*100 {
		t.Fatalf("totals = %d/%d, want %d/%d", preds, fails, 8*200, 8*100)
	}
}
