package scp

import (
	"math"
	"testing"
)

// quietConfig disables all fault injection and noise.
func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.LeakMTBF = 1e12
	cfg.BurstMTBF = 1e12
	cfg.SpikeMTBF = 1e12
	cfg.NoiseErrorRate = 0
	return cfg
}

// leakOnlyConfig injects a leak quickly and nothing else.
func leakOnlyConfig() Config {
	cfg := quietConfig()
	cfg.LeakMTBF = 600
	return cfg
}

func newSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	mutations := map[string]func(*Config){
		"zero tick":            func(c *Config) { c.Tick = 0 },
		"negative load":        func(c *Config) { c.BaseLoad = -1 },
		"diurnal ≥ 1":          func(c *Config) { c.DiurnalAmplitude = 1 },
		"swap ≥ total":         func(c *Config) { c.SwapThreshold = c.MemTotal },
		"burst prob > 1":       func(c *Config) { c.BurstFailureProb = 1.5 },
		"spike mult order":     func(c *Config) { c.SpikeMinMult = 2; c.SpikeMaxMult = 1 },
		"negative noise":       func(c *Config) { c.NoiseErrorRate = -1 },
		"prepared > repair":    func(c *Config) { c.PreparedRepairTime = c.RepairTime + 1 },
		"tick > spec interval": func(c *Config) { c.Tick = c.SpecInterval + 1 },
	}
	for name, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHealthySystemStaysInSpec(t *testing.T) {
	s := newSystem(t, quietConfig())
	if err := s.Run(86400); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Failures()); n != 0 {
		t.Fatalf("healthy system failed %d times", n)
	}
	if a := s.MeasuredAvailability(); a != 1 {
		t.Fatalf("healthy availability = %g", a)
	}
	for _, iv := range s.Intervals() {
		if iv.Violated {
			t.Fatalf("healthy interval violated Eq. 2: %+v", iv)
		}
		if !iv.Skipped && (iv.Availability < 0.9999 || iv.Availability > 1) {
			t.Fatalf("healthy interval availability %g", iv.Availability)
		}
	}
	if !s.Up() {
		t.Fatal("healthy system not up")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (int, int, float64) {
		s := newSystem(t, DefaultConfig())
		if err := s.Run(2 * 86400); err != nil {
			t.Fatal(err)
		}
		return len(s.Failures()), s.Log().Len(), s.MeasuredAvailability()
	}
	f1, e1, a1 := run()
	f2, e2, a2 := run()
	if f1 != f2 || e1 != e2 || a1 != a2 {
		t.Fatalf("replays differ: (%d,%d,%g) vs (%d,%d,%g)", f1, e1, a1, f2, e2, a2)
	}
	if f1 == 0 {
		t.Fatal("default config produced no failures in two days")
	}
}

// TestRunLegsMatchOneRun: Run(a) then Run(b) executes the events of
// Run(a+b) — the engine leaves its clock at the end of the first leg — so
// a run split into legs (the case study's training and test legs) records
// the same log columns, SAR series, failures and Eq. 2 intervals, also when
// the split falls between ticks.
func TestRunLegsMatchOneRun(t *testing.T) {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for _, legs := range [][2]float64{{3 * 86400, 2 * 86400}, {100003, 72000}} {
		one := newSystem(t, DefaultConfig())
		if err := one.Run(legs[0] + legs[1]); err != nil {
			t.Fatal(err)
		}
		two := newSystem(t, DefaultConfig())
		for _, d := range legs {
			if err := two.Run(d); err != nil {
				t.Fatal(err)
			}
		}
		if one.Engine().Now() != two.Engine().Now() {
			t.Fatalf("legs %v: clock %g, one run %g", legs, two.Engine().Now(), one.Engine().Now())
		}
		if n := one.Log().Len(); n == 0 || n != two.Log().Len() {
			t.Fatalf("legs %v: %d log events, one run %d", legs, two.Log().Len(), n)
		}
		for i := 0; i < one.Log().Len(); i++ {
			if a, b := one.Log().At(i), two.Log().At(i); a != b {
				t.Fatalf("legs %v: event %d is %+v, one run %+v", legs, i, b, a)
			}
		}
		for _, name := range SARVariables {
			a, _ := one.SAR(name)
			b, _ := two.SAR(name)
			if a.Len() != b.Len() {
				t.Fatalf("legs %v: %s has %d samples, one run %d", legs, name, b.Len(), a.Len())
			}
			for i := 0; i < a.Len(); i++ {
				if pa, pb := a.At(i), b.At(i); !same(pa.T, pb.T) || !same(pa.V, pb.V) {
					t.Fatalf("legs %v: %s sample %d is %v, one run %v", legs, name, i, pb, pa)
				}
			}
		}
		fa, fb := one.Failures(), two.Failures()
		if len(fa) == 0 || len(fa) != len(fb) {
			t.Fatalf("legs %v: %d failures, one run %d", legs, len(fb), len(fa))
		}
		for i := range fa {
			if fa[i] != fb[i] {
				t.Fatalf("legs %v: failure %d is %+v, one run %+v", legs, i, fb[i], fa[i])
			}
		}
		ia, ib := one.Intervals(), two.Intervals()
		if len(ia) != len(ib) {
			t.Fatalf("legs %v: %d intervals, one run %d", legs, len(ib), len(ia))
		}
		for i := range ia {
			a, b := ia[i], ib[i]
			if !same(a.Start, b.Start) || !same(a.Requests, b.Requests) || !same(a.Slow, b.Slow) ||
				!same(a.Availability, b.Availability) || a.Violated != b.Violated || a.Skipped != b.Skipped {
				t.Fatalf("legs %v: interval %d is %+v, one run %+v", legs, i, b, a)
			}
		}
	}
}

func TestLeakCausesFailureWithSymptomsAndErrors(t *testing.T) {
	s := newSystem(t, leakOnlyConfig())
	if err := s.Run(6 * 3600); err != nil {
		t.Fatal(err)
	}
	fails := s.Failures()
	if len(fails) == 0 {
		t.Fatal("unmitigated leak did not fail")
	}
	if fails[0].Cause != "leak" {
		t.Fatalf("cause = %q", fails[0].Cause)
	}
	// The symptom: free memory declined before the failure.
	mem, err := s.SAR("mem_free")
	if err != nil {
		t.Fatal(err)
	}
	before, ok := mem.ValueAt(fails[0].Time - 60)
	if !ok {
		t.Fatal("no memory sample before failure")
	}
	if before > 2*s.Config().SwapThreshold {
		t.Fatalf("memory at failure %g above the swap-pressure band", before)
	}
	// The detected errors: leak threshold events appear in the log.
	sawThreshold := false
	for i := 0; i < s.Log().Len(); i++ {
		e := s.Log().At(i)
		if e.Type == EventMemCritical || e.Type == EventMemWarning {
			sawThreshold = true
			break
		}
	}
	if !sawThreshold {
		t.Fatal("no memory threshold events logged")
	}
}

func TestCleanupPreventsLeakFailure(t *testing.T) {
	s := newSystem(t, leakOnlyConfig())
	// Periodic state clean-up (the downtime-avoidance action).
	if err := s.Engine().Every(1800, func() bool {
		if s.Up() {
			if err := s.CleanupState(); err != nil {
				t.Errorf("cleanup: %v", err)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(6 * 3600); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Failures()); n != 0 {
		t.Fatalf("cleanup did not prevent %d failures", n)
	}
	if s.FreeMemory() < s.Config().SwapThreshold {
		t.Fatalf("memory still low: %g", s.FreeMemory())
	}
}

func TestShedLoadCountersSpike(t *testing.T) {
	cfg := quietConfig()
	cfg.SpikeMTBF = 1800
	cfg.SpikeMinMult = 1.6
	cfg.SpikeMaxMult = 1.7
	// Unmitigated: spikes overload the platform.
	unmitigated := newSystem(t, cfg)
	if err := unmitigated.Run(86400); err != nil {
		t.Fatal(err)
	}
	if len(unmitigated.Failures()) == 0 {
		t.Fatal("strong spikes did not overload the unmitigated system")
	}
	// Mitigated: shed 40% of load (risk-adaptive admission control).
	mitigated := newSystem(t, cfg)
	if err := mitigated.ShedLoad(0.4); err != nil {
		t.Fatal(err)
	}
	if err := mitigated.Run(86400); err != nil {
		t.Fatal(err)
	}
	if got, want := len(mitigated.Failures()), len(unmitigated.Failures()); got >= want {
		t.Fatalf("shedding did not reduce failures: %d vs %d", got, want)
	}
}

func TestPrepareRepairShortensDowntime(t *testing.T) {
	s := newSystem(t, leakOnlyConfig())
	if err := s.PrepareRepair(); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(6 * 3600); err != nil {
		t.Fatal(err)
	}
	fails := s.Failures()
	if len(fails) == 0 {
		t.Fatal("no failure to repair")
	}
	if !fails[0].Prepared {
		t.Fatal("first repair not prepared")
	}
	if fails[0].Downtime != s.Config().PreparedRepairTime {
		t.Fatalf("prepared downtime = %g", fails[0].Downtime)
	}
	// Preparation is consumed: a second failure repairs unprepared.
	if len(fails) > 1 && fails[1].Prepared {
		t.Fatal("preparation not consumed")
	}
}

func TestRestartForcedDowntime(t *testing.T) {
	s := newSystem(t, quietConfig())
	var downtime float64
	_ = s.Engine().Schedule(1000, func() {
		d, err := s.Restart()
		if err != nil {
			t.Errorf("restart: %v", err)
		}
		downtime = d
	})
	if err := s.Run(4000); err != nil {
		t.Fatal(err)
	}
	if downtime != s.Config().RestartDowntime {
		t.Fatalf("restart downtime = %g", downtime)
	}
	if len(s.Restarts()) != 1 {
		t.Fatalf("restarts = %v", s.Restarts())
	}
	if !s.Up() {
		t.Fatal("system did not come back after restart")
	}
	if s.TotalDowntime() < s.Config().RestartDowntime-s.Config().Tick {
		t.Fatalf("downtime accounting = %g", s.TotalDowntime())
	}
	// Forced restarts are not failures.
	if len(s.Failures()) != 0 {
		t.Fatal("restart recorded as failure")
	}
}

func TestTargetOperationsWhileDown(t *testing.T) {
	s := newSystem(t, quietConfig())
	if _, err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	// Now down: most operations must refuse.
	if err := s.CleanupState(); err == nil {
		t.Fatal("cleanup while down accepted")
	}
	if err := s.Failover(); err == nil {
		t.Fatal("failover while down accepted")
	}
	if _, err := s.Restart(); err == nil {
		t.Fatal("restart while down accepted")
	}
}

func TestImminentFailurePrediction(t *testing.T) {
	healthy := newSystem(t, quietConfig())
	if err := healthy.Run(3600); err != nil {
		t.Fatal(err)
	}
	if healthy.ImminentFailureWithin(3600) {
		t.Fatal("healthy system reports imminent failure")
	}
	leaky := newSystem(t, leakOnlyConfig())
	if err := leaky.Run(3600); err != nil {
		t.Fatal(err)
	}
	// One hour in, a leak is active; within a wide horizon a failure is
	// projected.
	if !leaky.ImminentFailureWithin(6 * 3600) {
		t.Fatal("active leak not projected to fail")
	}
}

func TestSARVariablesRecorded(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	if err := s.Run(7200); err != nil {
		t.Fatal(err)
	}
	for _, name := range SARVariables {
		series, err := s.SAR(name)
		if err != nil {
			t.Fatal(err)
		}
		if series.Len() < 100 {
			t.Fatalf("%s has only %d samples", name, series.Len())
		}
	}
	if _, err := s.SAR("bogus"); err == nil {
		t.Fatal("unknown SAR variable accepted")
	}
	cpu, _ := s.SAR("cpu")
	for i := 0; i < cpu.Len(); i++ {
		if v := cpu.At(i).V; v < 0 || math.IsNaN(v) {
			t.Fatalf("cpu sample %g", v)
		}
	}
}

func TestEq2IntervalAccounting(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	if err := s.Run(86400); err != nil {
		t.Fatal(err)
	}
	limit := s.Config().SlowFractionLimit
	for _, iv := range s.Intervals() {
		if iv.Skipped {
			continue
		}
		wantViolated := iv.Slow/iv.Requests > limit
		if iv.Violated != wantViolated {
			t.Fatalf("interval %+v: violated flag inconsistent", iv)
		}
		if math.Abs((1-iv.Availability)-iv.Slow/iv.Requests) > 1e-12 {
			t.Fatalf("interval availability inconsistent: %+v", iv)
		}
	}
	// Every violation corresponds to a recorded failure.
	viol := 0
	for _, iv := range s.Intervals() {
		if iv.Violated {
			viol++
		}
	}
	if viol != len(s.Failures()) {
		t.Fatalf("violations %d vs failures %d", viol, len(s.Failures()))
	}
}

func TestRunValidation(t *testing.T) {
	s := newSystem(t, quietConfig())
	if err := s.Run(0); err == nil {
		t.Fatal("zero duration accepted")
	}
	if err := s.Run(-5); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestShedLoadValidation(t *testing.T) {
	s := newSystem(t, quietConfig())
	if err := s.ShedLoad(-0.1); err == nil {
		t.Fatal("negative shed accepted")
	}
	if err := s.ShedLoad(1.1); err == nil {
		t.Fatal("shed > 1 accepted")
	}
}

func TestFailoverClearsBurstsAndLeaks(t *testing.T) {
	cfg := quietConfig()
	cfg.BurstMTBF = 600
	cfg.BurstFailureProb = 1
	cfg.LeakMTBF = 600
	s := newSystem(t, cfg)
	// Fail over faster than a burst gestates (~400 s), as a
	// prediction-driven failover would.
	if err := s.Engine().Every(240, func() bool {
		if s.Up() {
			if err := s.Failover(); err != nil {
				t.Errorf("failover: %v", err)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(12 * 3600); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Failures()); n != 0 {
		t.Fatalf("failover did not prevent %d failures", n)
	}
	// The unmitigated twin fails.
	twin := newSystem(t, cfg)
	if err := twin.Run(12 * 3600); err != nil {
		t.Fatal(err)
	}
	if len(twin.Failures()) == 0 {
		t.Fatal("unmitigated twin should have failed")
	}
}

func TestSignatureShiftChangesEventTypes(t *testing.T) {
	cfg := quietConfig()
	cfg.BurstMTBF = 1200
	cfg.BurstFailureProb = 1
	cfg.SignatureShiftAt = 6 * 3600
	s := newSystem(t, cfg)
	if err := s.Run(12 * 3600); err != nil {
		t.Fatal(err)
	}
	v1Before, v2Before, v1After, v2After := 0, 0, 0, 0
	for i := 0; i < s.Log().Len(); i++ {
		e := s.Log().At(i)
		v1 := e.Type == EventCompTimeout || e.Type == EventCompRestart || e.Type == EventCompRetry
		v2 := e.Type == EventCompTimeoutV2 || e.Type == EventCompRestartV2 || e.Type == EventCompRetryV2
		switch {
		case e.Time < cfg.SignatureShiftAt && v1:
			v1Before++
		case e.Time < cfg.SignatureShiftAt && v2:
			v2Before++
		case e.Time >= cfg.SignatureShiftAt && v1:
			v1After++
		case e.Time >= cfg.SignatureShiftAt && v2:
			v2After++
		}
	}
	if v1Before == 0 || v2After == 0 {
		t.Fatalf("shift signature missing: v1Before=%d v2After=%d", v1Before, v2After)
	}
	if v2Before != 0 {
		t.Fatalf("V2 events before the shift: %d", v2Before)
	}
	// Bursts started before the shift may still drain V1 events shortly
	// after it, but no *new* V1 bursts start: by 2 h past the shift the
	// V1 stream must be dry.
	lo, hi := s.Log().ScanWindow(cfg.SignatureShiftAt+7200, 1e18)
	for i := lo; i < hi; i++ {
		e := s.Log().At(i)
		if e.Type == EventCompTimeout || e.Type == EventCompRestart || e.Type == EventCompRetry {
			t.Fatalf("V1 event at %g, long after the shift", e.Time)
		}
	}
}

// TestFaultListStaysBounded pins the episode-retirement sweep: over a long
// run the fault list must track the handful of live episodes, not the whole
// injection history — the difference between linear and quadratic tick cost
// in year-long simulations.
func TestFaultListStaysBounded(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(30 * 86400); err != nil {
		t.Fatal(err)
	}
	if n := len(sys.faults); n > 50 {
		t.Fatalf("%d faults retained after 30 days; retirement sweep not compacting", n)
	}
	for _, f := range sys.faults {
		if !f.active(sys.engine.Now()) {
			t.Fatal("inactive fault survived the retirement sweep")
		}
	}
}
