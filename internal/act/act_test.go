package act

import (
	"errors"
	"sync"
	"testing"
)

// fakeTarget records which operations ran.
type fakeTarget struct {
	cleanups, failovers, prepares, restarts int
	shed                                    float64
	restartDowntime                         float64
	failNext                                error
}

func (f *fakeTarget) CleanupState() error {
	f.cleanups++
	return f.failNext
}
func (f *fakeTarget) Failover() error {
	f.failovers++
	return f.failNext
}
func (f *fakeTarget) ShedLoad(fraction float64) error {
	f.shed = fraction
	return f.failNext
}
func (f *fakeTarget) PrepareRepair() error {
	f.prepares++
	return f.failNext
}
func (f *fakeTarget) Restart() (float64, error) {
	f.restarts++
	return f.restartDowntime, f.failNext
}

func TestCategoryGoals(t *testing.T) {
	avoidance := []Category{StateCleanup, PreventiveFailover, LoadLowering}
	minimization := []Category{PreparedRepair, PreventiveRestart}
	for _, c := range avoidance {
		if c.Goal() != DowntimeAvoidance {
			t.Fatalf("%v classified as %v", c, c.Goal())
		}
	}
	for _, c := range minimization {
		if c.Goal() != DowntimeMinimization {
			t.Fatalf("%v classified as %v", c, c.Goal())
		}
	}
}

func TestActionConstructorsExecute(t *testing.T) {
	ft := &fakeTarget{}
	p := Params{Cost: 1, SuccessProb: 0.5, Complexity: 0.2}
	cleanup, err := NewStateCleanup(ft, p)
	if err != nil {
		t.Fatal(err)
	}
	failover, err := NewPreventiveFailover(ft, p)
	if err != nil {
		t.Fatal(err)
	}
	shed, err := NewLoadLowering(ft, p, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := NewPreparedRepair(ft, p)
	if err != nil {
		t.Fatal(err)
	}
	restart, err := NewPreventiveRestart(ft, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Action{cleanup, failover, shed, prep, restart} {
		if err := a.Execute(); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
	}
	if ft.cleanups != 1 || ft.failovers != 1 || ft.shed != 0.3 || ft.prepares != 1 || ft.restarts != 1 {
		t.Fatalf("target operations: %+v", ft)
	}
}

func TestActionValidation(t *testing.T) {
	ft := &fakeTarget{}
	good := Params{SuccessProb: 0.5}
	if _, err := New("", StateCleanup, good, func() error { return nil }); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := New("x", Category(42), good, func() error { return nil }); err == nil {
		t.Fatal("unknown category accepted")
	}
	if _, err := New("x", StateCleanup, good, nil); err == nil {
		t.Fatal("nil execute accepted")
	}
	if _, err := New("x", StateCleanup, Params{Cost: -1}, func() error { return nil }); err == nil {
		t.Fatal("negative cost accepted")
	}
	if _, err := New("x", StateCleanup, Params{SuccessProb: 1.2}, func() error { return nil }); err == nil {
		t.Fatal("success probability > 1 accepted")
	}
	if _, err := New("x", StateCleanup, Params{Complexity: 2}, func() error { return nil }); err == nil {
		t.Fatal("complexity > 1 accepted")
	}
	if _, err := NewLoadLowering(ft, good, 0); err == nil {
		t.Fatal("zero shed fraction accepted")
	}
	if _, err := NewLoadLowering(ft, good, 1.5); err == nil {
		t.Fatal("shed fraction > 1 accepted")
	}
}

func TestActionErrorPropagates(t *testing.T) {
	ft := &fakeTarget{failNext: errors.New("boom")}
	a, err := NewStateCleanup(ft, Params{SuccessProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Execute(); err == nil {
		t.Fatal("target error swallowed")
	}
}

func TestSelectorPrefersEffectiveCheapActions(t *testing.T) {
	ft := &fakeTarget{}
	cheapEffective, _ := NewStateCleanup(ft, Params{Cost: 0.1, SuccessProb: 0.8, Complexity: 0.1})
	expensive, _ := NewPreventiveFailover(ft, Params{Cost: 5, SuccessProb: 0.9, Complexity: 0.8})
	s, err := NewSelector(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	best, u, positive, err := s.Select([]*Action{expensive, cheapEffective}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if best.Name() != "state-cleanup" {
		t.Fatalf("selected %s", best.Name())
	}
	if !positive || u <= 0 {
		t.Fatalf("utility = %g, positive = %v", u, positive)
	}
}

func TestSelectorLowConfidenceDoesNothing(t *testing.T) {
	ft := &fakeTarget{}
	costly, _ := NewPreventiveRestart(ft, Params{Cost: 10, SuccessProb: 0.9, Complexity: 0.5})
	s, _ := NewSelector(DefaultWeights())
	_, u, positive, err := s.Select([]*Action{costly}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if positive || u > 0 {
		t.Fatalf("low-confidence costly action has positive utility %g", u)
	}
}

// TestSelectorGateAlwaysPasses pins the act gate every non-test caller runs:
// each hands its engine's selector (DefaultWeights) one action, and from the
// engine's WarnThreshold up to certainty that action is selected as worth
// taking. Its utility gate never vetoes a warning, so deleting the selector
// from those callers changes no decision.
func TestSelectorGateAlwaysPasses(t *testing.T) {
	s, err := NewSelector(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		caller string
		params Params
		warn   float64 // the caller's core.Config.WarnThreshold
	}{
		{"pfmd pipeline (service)", Params{Cost: 0.5, SuccessProb: 0.85, Complexity: 0.3}, 0.2},
		{"E3 closed loop (experiments)", Params{Cost: 0.5, SuccessProb: 0.85, Complexity: 0.3}, 0.3},
		{"E12 oscillation (experiments)", Params{Cost: 1, SuccessProb: 0.9, Complexity: 0.3}, 0.5},
		{"fleet default", Params{SuccessProb: 1}, 0.5},
	} {
		a, err := New("only", PreparedRepair, c.params, func() error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= 100; k++ {
			conf := c.warn + (1-c.warn)*float64(k)/100
			if k == 100 {
				conf = 1 // exactly, whatever the sum rounds to
			}
			best, u, worth, err := s.Select([]*Action{a}, conf)
			if err != nil || best != a || !worth {
				t.Errorf("%s at confidence %g: Select = (%v, %g, %v, %v), want the action, worth taking",
					c.caller, conf, best, u, worth, err)
			}
		}
	}
}

func TestSelectorValidation(t *testing.T) {
	if _, err := NewSelector(ObjectiveWeights{Benefit: 0}); err == nil {
		t.Fatal("zero benefit accepted")
	}
	s, _ := NewSelector(DefaultWeights())
	if _, _, _, err := s.Select(nil, 0.5); err == nil {
		t.Fatal("empty action list accepted")
	}
	ft := &fakeTarget{}
	a, _ := NewStateCleanup(ft, Params{SuccessProb: 1})
	if _, _, _, err := s.Select([]*Action{a}, 1.5); err == nil {
		t.Fatal("confidence > 1 accepted")
	}
}

func TestActionStats(t *testing.T) {
	calls := 0
	a, err := New("flaky", StateCleanup, Params{SuccessProb: 0.9}, func() error {
		calls++
		if calls%2 == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.Executions != 0 || s.Failures != 0 {
		t.Fatalf("fresh action stats = %+v", s)
	}
	for i := 0; i < 4; i++ {
		_ = a.Execute()
	}
	s := a.Stats()
	if s.Executions != 4 || s.Failures != 2 {
		t.Fatalf("stats = %+v, want 4 executions / 2 failures", s)
	}
}

func TestActionStatsConcurrent(t *testing.T) {
	a, err := New("par", StateCleanup, Params{SuccessProb: 1}, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = a.Execute()
			}
		}()
	}
	wg.Wait()
	if s := a.Stats(); s.Executions != 200 || s.Failures != 0 {
		t.Fatalf("stats = %+v, want 200 clean executions", s)
	}
}
