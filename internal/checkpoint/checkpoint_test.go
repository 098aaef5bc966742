package checkpoint

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func params() RecoveryParams {
	return RecoveryParams{RepairTime: 120, PreparedRepairTime: 20, RecomputeFactor: 0.8}
}

func TestStoreOrdering(t *testing.T) {
	s := NewStore()
	if s.Len() != 1 || s.Latest().Time != 0 {
		t.Fatal("store should start with the initial checkpoint")
	}
	if err := s.Save(Checkpoint{Time: 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(Checkpoint{Time: 5}); err == nil {
		t.Fatal("out-of-order checkpoint accepted")
	}
	if err := s.Save(Checkpoint{Time: math.NaN()}); err == nil {
		t.Fatal("NaN checkpoint accepted")
	}
	if s.Latest().Time != 10 {
		t.Fatalf("latest = %+v", s.Latest())
	}
}

func TestRecoveryParamsValidate(t *testing.T) {
	bad := []RecoveryParams{
		{RepairTime: -1, PreparedRepairTime: 0, RecomputeFactor: 1},
		{RepairTime: 10, PreparedRepairTime: 20, RecomputeFactor: 1},
		{RepairTime: 10, PreparedRepairTime: 5, RecomputeFactor: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad params %d accepted", i)
		}
	}
	if err := params().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFig8TTRDecomposition reproduces the Fig. 8 comparison: classical
// recovery (periodic checkpoint, unprepared repair) vs prediction-driven
// recovery (checkpoint saved on the warning, prewarmed spare). Both TTR
// factors shrink.
func TestFig8TTRDecomposition(t *testing.T) {
	p := params()
	// Classical: last periodic checkpoint 240 s before the failure.
	classical := NewStore()
	if err := classical.Save(Checkpoint{Time: 760}); err != nil {
		t.Fatal(err)
	}
	ttrClassical, err := Recover(classical, p, 1000, false)
	if err != nil {
		t.Fatal(err)
	}
	// Prediction-driven: warning at 970 saved a checkpoint, spare prewarmed.
	prepared := NewStore()
	if err := prepared.Save(Checkpoint{Time: 970, Prepared: true}); err != nil {
		t.Fatal(err)
	}
	ttrPrepared, err := Recover(prepared, p, 1000, true)
	if err != nil {
		t.Fatal(err)
	}
	if ttrClassical.FaultFree != 120 || ttrPrepared.FaultFree != 20 {
		t.Fatalf("fault-free times %g / %g", ttrClassical.FaultFree, ttrPrepared.FaultFree)
	}
	if math.Abs(ttrClassical.Recompute-240*0.8) > 1e-12 {
		t.Fatalf("classical recompute = %g", ttrClassical.Recompute)
	}
	if math.Abs(ttrPrepared.Recompute-30*0.8) > 1e-12 {
		t.Fatalf("prepared recompute = %g", ttrPrepared.Recompute)
	}
	if ttrPrepared.Total() >= ttrClassical.Total() {
		t.Fatalf("preparation did not reduce TTR: %g vs %g",
			ttrPrepared.Total(), ttrClassical.Total())
	}
}

func TestRecoverValidation(t *testing.T) {
	s := NewStore()
	if err := s.Save(Checkpoint{Time: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(s, params(), 50, false); err == nil {
		t.Fatal("failure before checkpoint accepted")
	}
	bad := params()
	bad.RecomputeFactor = -1
	if _, err := Recover(s, bad, 200, false); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestPeriodicPolicy(t *testing.T) {
	e := sim.NewEngine()
	s := NewStore()
	active := true
	if err := (PeriodicPolicy{Interval: 10}).Install(e, s, func() bool { return active }); err != nil {
		t.Fatal(err)
	}
	e.Run(35)
	if s.Len() != 4 { // initial + t=10,20,30
		t.Fatalf("checkpoints = %d", s.Len())
	}
	active = false
	e.Run(100)
	// One more tick fires at t=40 and deactivates; no checkpoint saved.
	if s.Len() != 4 {
		t.Fatalf("checkpoints after deactivation = %d", s.Len())
	}
	if err := (PeriodicPolicy{}).Install(e, s, func() bool { return true }); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestPredictionDrivenPolicy(t *testing.T) {
	s := NewStore()
	saved, err := (PredictionDrivenPolicy{StateTrustProb: 1}).OnWarning(s, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !saved || !s.Latest().Prepared || s.Latest().Time != 50 {
		t.Fatalf("warning checkpoint: saved=%v latest=%+v", saved, s.Latest())
	}
	// Stochastic trust with a seeded draw.
	g := stats.NewRNG(1)
	policy := PredictionDrivenPolicy{StateTrustProb: 0.5, TrustDraw: g.Float64}
	savedCount := 0
	for i := 0; i < 1000; i++ {
		ok, err := policy.OnWarning(s, 50+float64(i))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			savedCount++
		}
	}
	if savedCount < 400 || savedCount > 600 {
		t.Fatalf("trust 0.5 saved %d/1000", savedCount)
	}
}

func TestPredictionDrivenPolicyValidation(t *testing.T) {
	s := NewStore()
	if _, err := (PredictionDrivenPolicy{StateTrustProb: 2}).OnWarning(s, 1); err == nil {
		t.Fatal("trust > 1 accepted")
	}
	if _, err := (PredictionDrivenPolicy{StateTrustProb: 0.5}).OnWarning(s, 1); err == nil {
		t.Fatal("stochastic trust without draw accepted")
	}
}
