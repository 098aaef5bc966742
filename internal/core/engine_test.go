package core

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/act"
	"repro/internal/obs"
	"repro/internal/sim"
)

// scriptedTarget counts countermeasure executions.
type scriptedTarget struct {
	cleanups int
}

func (s *scriptedTarget) CleanupState() error       { s.cleanups++; return nil }
func (s *scriptedTarget) Failover() error           { return nil }
func (s *scriptedTarget) ShedLoad(float64) error    { return nil }
func (s *scriptedTarget) PrepareRepair() error      { return nil }
func (s *scriptedTarget) Restart() (float64, error) { return 0, nil }

func testActions(t *testing.T, target act.Target) []*act.Action {
	t.Helper()
	a, err := act.NewStateCleanup(target, act.Params{Cost: 0.5, SuccessProb: 0.9, Complexity: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return []*act.Action{a}
}

func testSelector(t *testing.T) *act.Selector {
	t.Helper()
	s, err := act.NewSelector(act.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// constLayer always returns the given score with threshold 0.5.
func constLayer(name string, score float64) *Layer {
	return &Layer{
		Name:      name,
		Predictor: PredictorFunc(func(float64) (float64, error) { return score, nil }),
		Threshold: 0.5,
	}
}

func defaultCfg() Config {
	return Config{EvalInterval: 10, LeadTime: 30, WarnThreshold: 0.5}
}

// evaluate scores every layer at now, as the runtime's one-row cycle does.
func evaluate(eng *Engine, now float64) []float64 {
	out := make([]float64, len(eng.layers))
	eng.EvaluateLayersBatch([]float64{now}, out)
	return out
}

// score is l's score at now through its serving predictor (NaN: abstained).
func score(l *Layer, now float64) float64 {
	var out [1]float64
	l.ScoreBatch([]float64{now}, out[:])
	return out[0]
}

// drive runs one Act round every EvalInterval up to until, at the instants
// a simulation clock's recurring cycle fires: interval, 2·interval, ….
func drive(eng *Engine, until float64) {
	step := eng.Config().EvalInterval
	for now := step; now <= until; now += step {
		eng.ActOn(now, evaluate(eng, now))
	}
}

func TestValidation(t *testing.T) {
	tgt := &scriptedTarget{}
	layers := []*Layer{constLayer("app", 1)}
	sel := testSelector(t)
	acts := testActions(t, tgt)
	cases := []struct {
		name string
		f    func() (*Engine, error)
	}{
		{"no layers", func() (*Engine, error) {
			return New(nil, nil, nil, sel, acts, nil, defaultCfg())
		}},
		{"anonymous layer", func() (*Engine, error) {
			return New(nil, []*Layer{{Predictor: PredictorFunc(func(float64) (float64, error) { return 0, nil })}}, nil, sel, acts, nil, defaultCfg())
		}},
		{"layer without a predictor", func() (*Engine, error) {
			return New(nil, []*Layer{{Name: "app", Threshold: 0.5}}, nil, sel, acts, nil, defaultCfg())
		}},
		{"nil selector", func() (*Engine, error) {
			return New(nil, layers, nil, nil, acts, nil, defaultCfg())
		}},
		{"no actions", func() (*Engine, error) {
			return New(nil, layers, nil, sel, nil, nil, defaultCfg())
		}},
		{"bad interval", func() (*Engine, error) {
			cfg := defaultCfg()
			cfg.EvalInterval = 0
			return New(nil, layers, nil, sel, acts, nil, cfg)
		}},
		{"cadence longer than the lead time", func() (*Engine, error) {
			cfg := defaultCfg()
			cfg.EvalInterval = cfg.LeadTime + 1
			return New(nil, layers, nil, sel, acts, nil, cfg)
		}},
		{"bad threshold", func() (*Engine, error) {
			cfg := defaultCfg()
			cfg.WarnThreshold = 2
			return New(nil, layers, nil, sel, acts, nil, cfg)
		}},
		{"simulation clock", func() (*Engine, error) {
			return New(sim.NewEngine(), layers, nil, sel, acts, nil, defaultCfg())
		}},
		{"truth oracle", func() (*Engine, error) {
			return New(nil, layers, nil, sel, acts, func(float64) bool { return true }, defaultCfg())
		}},
	}
	for _, tc := range cases {
		if _, err := tc.f(); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

func TestWarningTriggersAction(t *testing.T) {
	tgt := &scriptedTarget{}
	eng, err := New(nil,
		[]*Layer{constLayer("app", 0.9)},
		nil, testSelector(t), testActions(t, tgt), nil,
		defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	drive(eng, 100)
	if n := eng.Report().Warnings; n != 10 {
		t.Fatalf("warnings = %d", n)
	}
	if tgt.cleanups != 10 || eng.ActionsTaken() != 10 {
		t.Fatalf("cleanups = %d, taken = %d", tgt.cleanups, eng.ActionsTaken())
	}
}

func TestNegativePredictionDoesNothing(t *testing.T) {
	tgt := &scriptedTarget{}
	eng, err := New(nil,
		[]*Layer{constLayer("app", 0.1)},
		nil, testSelector(t), testActions(t, tgt), nil,
		defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	drive(eng, 100)
	if n := eng.Report().Warnings; n != 0 || tgt.cleanups != 0 {
		t.Fatalf("negative prediction acted: warnings=%d cleanups=%d", n, tgt.cleanups)
	}
}

// TestTable1AllFourOutcomes books an alternating predictor's decisions in
// an obs.Ledger, the one outcome rule, against failures recorded inside
// some of their windows: all four Table 1 outcomes occur, and a
// countermeasure runs on the positive predictions only.
func TestTable1AllFourOutcomes(t *testing.T) {
	tgt := &scriptedTarget{}
	i := 0
	layer := &Layer{
		Name: "app",
		Predictor: PredictorFunc(func(float64) (float64, error) {
			i++
			if i%2 == 0 {
				return 1, nil
			}
			return 0, nil
		}),
		Threshold: 0.5,
	}
	cfg := defaultCfg()
	eng, err := New(nil, []*Layer{layer}, nil, testSelector(t), testActions(t, tgt), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	led, err := obs.NewLedger(obs.LedgerConfig{LeadTime: cfg.LeadTime, Slack: cfg.EvalInterval})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetCycleObserver(func(now float64, _ []float64, d Decision) {
		led.RecordPrediction(obs.CombinedLayer, now, d.Warned, d.Confidence)
		if d.Executed != d.Warned {
			t.Errorf("t=%g: warned=%v but executed=%v", now, d.Warned, d.Executed)
		}
	})
	// A failure lies in the (t, t+40] windows of t = 60…90 and 260…290.
	led.RecordFailure(100)
	led.RecordFailure(300)
	drive(eng, 400)
	led.Advance(400 + cfg.LeadTime + cfg.EvalInterval) // no failure after 300: every window resolves
	table := led.Cumulative(obs.CombinedLayer)
	if table.TP == 0 || table.FP == 0 || table.TN == 0 || table.FN == 0 {
		t.Fatalf("missing outcomes: %v", table)
	}
	if table.TP+table.FP != tgt.cleanups {
		t.Fatalf("%d positive predictions, %d cleanups", table.TP+table.FP, tgt.cleanups)
	}
}

func TestLayerVoting(t *testing.T) {
	tgt := &scriptedTarget{}
	layers := []*Layer{
		constLayer("hw", 0.9),
		constLayer("vmm", 0.1),
		constLayer("app", 0.9),
	}
	cfg := defaultCfg()
	cfg.WarnThreshold = 0.6 // 2 of 3 votes
	eng, err := New(nil, layers, nil, testSelector(t), testActions(t, tgt), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first Decision
	eng.SetCycleObserver(func(_ float64, _ []float64, d Decision) {
		if first.Time == 0 {
			first = d
		}
	})
	drive(eng, 50)
	if n := eng.Report().Warnings; n != 5 {
		t.Fatalf("2/3 votes should warn: %d", n)
	}
	if !first.Warned || first.Confidence < 0.66 || first.Confidence > 0.67 {
		t.Fatalf("first decision = %+v, want a warning at confidence 2/3", first)
	}
}

func TestFailingLayerAbstains(t *testing.T) {
	tgt := &scriptedTarget{}
	layers := []*Layer{
		{Name: "broken", Predictor: PredictorFunc(func(float64) (float64, error) {
			return 0, errors.New("sensor offline")
		}), Threshold: 0.5},
		constLayer("app", 0.9),
	}
	cfg := defaultCfg()
	cfg.WarnThreshold = 0.5
	eng, err := New(nil, layers, nil, testSelector(t), testActions(t, tgt), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(eng, 20)
	// One of two layers votes: confidence 0.5 ≥ threshold → warning.
	if n := eng.Report().Warnings; n != 2 {
		t.Fatalf("warnings with abstaining layer = %d", n)
	}
}

func TestCustomCombiner(t *testing.T) {
	tgt := &scriptedTarget{}
	combined := func(scores []float64) (float64, error) {
		// A stacker that trusts only the second layer.
		return scores[1], nil
	}
	layers := []*Layer{constLayer("noisy", 1), constLayer("trusted", 0.2)}
	eng, err := New(nil, layers, combined, testSelector(t), testActions(t, tgt), nil, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	drive(eng, 50)
	if eng.Report().Warnings != 0 {
		t.Fatal("combiner override ignored")
	}
}

// TestOscillationGuard is the library-level E12 experiment: a flapping
// predictor would fire an action every cycle; the guard bounds the rate.
func TestOscillationGuard(t *testing.T) {
	run := func(window float64, maxActions int) (*Engine, *scriptedTarget) {
		tgt := &scriptedTarget{}
		cfg := defaultCfg()
		cfg.OscillationWindow = window
		cfg.MaxActionsPerWindow = maxActions
		eng, err := New(nil, []*Layer{constLayer("flappy", 0.9)}, nil,
			testSelector(t), testActions(t, tgt), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		drive(eng, 1000)
		return eng, tgt
	}
	unguarded, utgt := run(0, 0)
	if utgt.cleanups != 100 {
		t.Fatalf("unguarded actions = %d", utgt.cleanups)
	}
	guarded, gtgt := run(100, 2)
	if gtgt.cleanups >= utgt.cleanups/2 {
		t.Fatalf("guard ineffective: %d vs %d", gtgt.cleanups, utgt.cleanups)
	}
	if guarded.SuppressedActions() == 0 {
		t.Fatal("no suppressions recorded")
	}
	if guarded.ActionsTaken()+guarded.SuppressedActions() != unguarded.ActionsTaken() {
		t.Fatalf("actions %d + suppressed %d ≠ %d",
			guarded.ActionsTaken(), guarded.SuppressedActions(), unguarded.ActionsTaken())
	}
}

func TestTranslucencyReport(t *testing.T) {
	tgt := &scriptedTarget{}
	eng, err := New(nil, []*Layer{constLayer("hw", 0.9), constLayer("app", 0.9)}, nil,
		testSelector(t), testActions(t, tgt), nil, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	drive(eng, 50)
	r := eng.Report()
	if len(r.Layers) != 2 || r.Warnings != 5 || r.Actions != 5 {
		t.Fatalf("report = %+v", r)
	}
	text := r.String()
	for _, want := range []string{"hw", "app", "warnings: 5", "actions: 5"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report text missing %q:\n%s", want, text)
		}
	}
}

// TestExternallyClockedEngine drives an engine through EvaluateLayers +
// ActOn, the path internal/runtime uses.
func TestExternallyClockedEngine(t *testing.T) {
	tgt := &scriptedTarget{}
	eng, err := New(nil, []*Layer{constLayer("app", 0.9)}, nil,
		testSelector(t), testActions(t, tgt), nil, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	d := eng.ActOn(10, evaluate(eng, 10))
	if !d.Warned || !d.Executed {
		t.Fatalf("decision %+v: expected warning + action", d)
	}
	if tgt.cleanups == 0 {
		t.Fatal("action not executed")
	}
	if got := eng.Report().Warnings; got != 1 {
		t.Fatalf("warnings = %d, want 1", got)
	}
}

// TestActOnAbstainingLayer checks that a failing Evaluate abstains: the
// layer scores NaN, which gives the combiner a neutral input and no vote.
func TestActOnAbstainingLayer(t *testing.T) {
	tgt := &scriptedTarget{}
	broken := &Layer{
		Name:      "broken",
		Predictor: PredictorFunc(func(float64) (float64, error) { return 0, errors.New("down") }),
		Threshold: 0.5,
	}
	eng, err := New(nil, []*Layer{constLayer("app", 0.9), broken}, nil,
		testSelector(t), testActions(t, tgt), nil, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	scores := evaluate(eng, 0)
	if !math.IsNaN(scores[1]) {
		t.Fatalf("broken layer score = %g, want NaN", scores[1])
	}
	// One vote out of two layers = 0.5 ≥ default WarnThreshold.
	if d := eng.ActOn(0, scores); !d.Warned {
		t.Fatalf("decision %+v: expected warning despite abstaining layer", d)
	}
}

// TestEngineConcurrentActOn hammers the serialized act stage and the
// accessors from many goroutines; run with -race to validate the locking
// contract.
func TestEngineConcurrentActOn(t *testing.T) {
	tgt := &scriptedTarget{}
	cfg := defaultCfg()
	cfg.OscillationWindow = 1e9 // everything within one window
	cfg.MaxActionsPerWindow = 50
	eng, err := New(nil, []*Layer{constLayer("app", 0.9)}, nil,
		testSelector(t), testActions(t, tgt), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				eng.ActOn(float64(g*rounds+i), []float64{0.9})
				_ = eng.ActionsTaken()
				_ = eng.Report()
			}
		}(g)
	}
	wg.Wait()
	warned := eng.Report().Warnings
	if warned != goroutines*rounds {
		t.Fatalf("warnings = %d, want %d", warned, goroutines*rounds)
	}
	if got := eng.ActionsTaken() + eng.SuppressedActions(); got != warned {
		t.Fatalf("taken+suppressed = %d, want %d", got, warned)
	}
	if eng.SuppressedActions() == 0 {
		t.Fatal("oscillation guard never engaged under concurrency")
	}
}

// TestCycleObserver verifies that every Act round reaches the installed
// observer with the raw scores and the committed decision, and that a nil
// observer disables the hook.
func TestCycleObserver(t *testing.T) {
	tgt := &scriptedTarget{}
	eng, err := New(nil, []*Layer{constLayer("app", 0.9), constLayer("os", 0.1)}, nil,
		testSelector(t), testActions(t, tgt), nil, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	type obs struct {
		now    float64
		scores []float64
		d      Decision
	}
	var mu sync.Mutex
	var seen []obs
	eng.SetCycleObserver(func(now float64, scores []float64, d Decision) {
		mu.Lock()
		seen = append(seen, obs{now, append([]float64(nil), scores...), d})
		mu.Unlock()
	})

	d1 := eng.ActOn(5, []float64{0.9, 0.1})
	d2 := eng.ActOn(6, []float64{0.1, math.NaN()})
	if len(seen) != 2 {
		t.Fatalf("observer saw %d rounds, want 2", len(seen))
	}
	if seen[0].now != 5 || !reflect.DeepEqual(seen[0].d, d1) || !seen[0].d.Warned {
		t.Fatalf("first observation = %+v, decision %+v", seen[0], d1)
	}
	if seen[0].scores[0] != 0.9 || seen[0].scores[1] != 0.1 {
		t.Fatalf("observer scores = %v", seen[0].scores)
	}
	if !reflect.DeepEqual(seen[1].d, d2) || seen[1].d.Warned || !math.IsNaN(seen[1].scores[1]) {
		t.Fatalf("second observation = %+v", seen[1])
	}

	eng.SetCycleObserver(nil)
	eng.ActOn(7, []float64{0.9, 0.9})
	if len(seen) != 2 {
		t.Fatalf("nil observer still invoked (%d observations)", len(seen))
	}
}

// TestEngineStateBounded: a long-running engine keeps no warning and not
// every action time — warnings are a count, the guard's history is one
// oscillation window — while the totals and every guard decision stay what
// an unbounded history gives.
func TestEngineStateBounded(t *testing.T) {
	const rounds, window, maxActions = 100_000, 100.0, 3
	tgt := &scriptedTarget{}
	cfg := defaultCfg()
	cfg.OscillationWindow = window
	cfg.MaxActionsPerWindow = maxActions
	eng, err := New(nil, []*Layer{constLayer("flappy", 0.9)}, nil,
		testSelector(t), testActions(t, tgt), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var history []float64 // the reference guard: every action time, never pruned
	suppressed := 0
	now := 0.0
	for i := 0; i < rounds; i++ {
		now += float64(1 + i%17) // uneven gaps: the window holds 3 to 100 rounds
		recent := 0
		for k := len(history) - 1; k >= 0 && now-history[k] <= window; k-- {
			recent++
		}
		allow := recent < maxActions
		d := eng.ActOn(now, []float64{0.9})
		if !d.Warned || d.Executed != allow || d.Suppressed == allow {
			t.Fatalf("round %d at t=%g: decision %+v, reference guard allows=%v", i, now, d, allow)
		}
		if allow {
			history = append(history, now)
		} else {
			suppressed++
		}
		if n := len(eng.actionTimes); n > maxActions {
			t.Fatalf("round %d: guard history holds %d action times, want ≤ %d", i, n, maxActions)
		}
	}
	rep := eng.Report()
	if rep.Warnings != rounds || rep.Actions != len(history) || rep.Suppressed != suppressed {
		t.Fatalf("report warnings=%d actions=%d suppressed=%d, want %d/%d/%d",
			rep.Warnings, rep.Actions, rep.Suppressed, rounds, len(history), suppressed)
	}
	if eng.ActionsTaken() != len(history) || tgt.cleanups != len(history) {
		t.Fatalf("ActionsTaken=%d cleanups=%d, want %d", eng.ActionsTaken(), tgt.cleanups, len(history))
	}
}

// TestDecideOnZeroAllocs: a warn decision and its pending act travel by
// value — a chronically warning engine allocates nothing per round — the
// zero PendingAct of a quiet round resolves to nothing, and Commit/Drop on
// the caller's copy resolve once.
func TestDecideOnZeroAllocs(t *testing.T) {
	tgt := &scriptedTarget{}
	eng, err := New(nil, []*Layer{constLayer("app", 0.9)}, nil,
		testSelector(t), testActions(t, tgt), nil, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	d, quiet := eng.DecideOn(1, []float64{0.1})
	if d.Warned || quiet != (PendingAct{}) {
		t.Fatalf("quiet round: decision %+v, pending %+v", d, quiet)
	}
	quiet.Commit(&d)
	quiet.Drop()
	if d.Executed || tgt.cleanups != 0 {
		t.Fatalf("resolving the zero PendingAct acted: %+v, cleanups=%d", d, tgt.cleanups)
	}

	d, pending := eng.DecideOn(2, []float64{0.9})
	if !d.Warned || d.Executed || pending == (PendingAct{}) {
		t.Fatalf("warn round: decision %+v, pending %+v", d, pending)
	}
	pending.Commit(&d)
	pending.Commit(&d)
	pending.Drop()
	if !d.Executed || tgt.cleanups != 1 || eng.ActionsTaken() != 1 {
		t.Fatalf("after Commit×2+Drop: %+v, cleanups=%d, taken=%d", d, tgt.cleanups, eng.ActionsTaken())
	}

	now, scores := 2.0, []float64{0.9}
	if got := testing.AllocsPerRun(200, func() {
		now++
		d, p := eng.DecideOn(now, scores)
		p.Commit(&d)
	}); got != 0 {
		t.Fatalf("DecideOn+Commit allocate %.0f times a warn round, want 0", got)
	}
}
