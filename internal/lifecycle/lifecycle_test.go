package lifecycle

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// scriptPredictor is a retrainable fake: score follows a script, Retrain
// hands out a prepared successor.
type scriptPredictor struct {
	score      func(now float64) float64
	next       core.LayerPredictor
	captureErr error
	retrainErr error
	delay      time.Duration // artificial training time
}

func (p *scriptPredictor) Evaluate(now float64) (float64, error) { return p.score(now), nil }

func (p *scriptPredictor) CaptureWindow(now float64) (any, error) {
	if p.captureErr != nil {
		return nil, p.captureErr
	}
	return now, nil
}

func (p *scriptPredictor) Retrain(window any) (core.LayerPredictor, error) {
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	if p.retrainErr != nil {
		return nil, p.retrainErr
	}
	return p.next, nil
}

// moodyPredictor scores perfectly while in shadow and badly once it is the
// layer's serving predictor — the deterministic way to provoke a rollback.
type moodyPredictor struct {
	layer *core.Layer
	good  func(now float64) float64
	bad   func(now float64) float64
}

func (p *moodyPredictor) Evaluate(now float64) (float64, error) {
	if cur, _ := p.layer.Current(); cur == core.LayerPredictor(p) {
		return p.bad(now), nil
	}
	return p.good(now), nil
}

func (p *moodyPredictor) CaptureWindow(now float64) (any, error)   { return now, nil }
func (p *moodyPredictor) Retrain(any) (core.LayerPredictor, error) { return nil, errors.New("no") }

// failAt reports whether a ground-truth failure occurs at tick t.
func failAt(t, every int) bool { return every > 0 && t%every == every-1 }

// oracle scores 1 exactly when a failure lands in (now, now+1] — a perfect
// predictor under the harness's LeadTime-1 matching rule.
func oracle(every int) func(float64) float64 {
	return func(now float64) float64 {
		if failAt(int(now)+1, every) {
			return 1
		}
		return 0
	}
}

// harness drives layer scoring, ledger journaling and the manager exactly
// like the runtime does: Collect under the (here: implicit) evaluation
// exclusion, then journaling, failure recording, Advance, ObserveCycle.
type harness struct {
	layers    []*core.Layer
	led       *obs.Ledger
	m         *Manager
	failEvery int
}

func newHarness(t *testing.T, layers []*core.Layer, cfg Config, failEvery int) *harness {
	t.Helper()
	names := make([]string, len(layers))
	for i, l := range layers {
		names[i] = l.Name
	}
	led, err := obs.NewLedger(obs.LedgerConfig{LeadTime: 1, Window: 40}, names...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(layers, led, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{layers: layers, led: led, m: m, failEvery: failEvery}
}

// score is l's score at now through its serving predictor (NaN: abstained).
func score(l *core.Layer, now float64) float64 {
	var out [1]float64
	l.ScoreBatch([]float64{now}, out[:])
	return out[0]
}

func (h *harness) run(from, to int) {
	for tick := from; tick < to; tick++ {
		now := float64(tick)
		scores := make([]float64, len(h.layers))
		for i, l := range h.layers {
			l.ScoreBatch([]float64{now}, scores[i:i+1])
		}
		cands := h.m.Collect(now)
		for i, l := range h.layers {
			if !math.IsNaN(scores[i]) {
				h.led.RecordPrediction(l.Name, now, scores[i] >= l.Threshold, scores[i])
			}
		}
		for _, c := range cands {
			if c.Err == nil {
				h.led.RecordPrediction(c.Name, now, c.Score >= c.Threshold, c.Score)
			}
		}
		if failAt(tick, h.failEvery) {
			h.led.RecordFailure(now)
		}
		h.led.Advance(now)
		h.m.ObserveCycle(now, scores)
	}
}

// eventLog subscribes and records event types in order.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (e *eventLog) record(ev Event) {
	e.mu.Lock()
	e.events = append(e.events, ev)
	e.mu.Unlock()
}

func (e *eventLog) types() []EventType {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]EventType, len(e.events))
	for i, ev := range e.events {
		out[i] = ev.Type
	}
	return out
}

func (e *eventLog) find(t EventType) (Event, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ev := range e.events {
		if ev.Type == t {
			return ev, true
		}
	}
	return Event{}, false
}

// shiftingScore is flat during warm-up and then steps — the minimal signal
// that fires the self-calibrated score CUSUM.
func shiftingScore(shiftAt, base, after float64) func(float64) float64 {
	return func(now float64) float64 {
		if now >= shiftAt {
			return after
		}
		return base
	}
}

// TestLifecycleHappyPath walks the full machine: drift → capture → sync
// retrain → shadow → swap (version bump) → confirm, with the candidate's
// shadow F-measure strictly beating the blind incumbent's.
func TestLifecycleHappyPath(t *testing.T) {
	const failEvery = 10
	incumbent := &scriptPredictor{score: shiftingScore(20, 0.1, 0.3)}
	incumbent.next = &scriptPredictor{score: oracle(failEvery)}
	layer := &core.Layer{Name: "app", Predictor: incumbent, Threshold: 0.5}

	h := newHarness(t, []*core.Layer{layer},
		Config{ScoreWarmup: 10, ShadowMinResolved: 10, CooldownCycles: 5, SyncRetrain: true}, failEvery)
	var log eventLog
	h.m.Subscribe(log.record)
	h.run(0, 200)

	wantOrder := []EventType{EventDrift, EventRetrainStarted, EventRetrainDone,
		EventShadowStarted, EventSwapped, EventConfirmed}
	types := log.types()
	i := 0
	for _, ty := range types {
		if i < len(wantOrder) && ty == wantOrder[i] {
			i++
		}
	}
	if i != len(wantOrder) {
		t.Fatalf("event order %v does not contain %v in sequence", types, wantOrder)
	}
	sw, ok := log.find(EventSwapped)
	if !ok {
		t.Fatal("no swap event")
	}
	if sw.Version != 2 {
		t.Fatalf("swap produced version %d, want 2", sw.Version)
	}
	if !(sw.CandidateF > sw.IncumbentF) {
		t.Fatalf("swap with candidate F %.3f ≤ incumbent F %.3f", sw.CandidateF, sw.IncumbentF)
	}
	if v := layer.Version(); v != 2 {
		t.Fatalf("layer version = %d, want 2", v)
	}
	// The oracle now serves: it must keep scoring perfectly.
	if s := score(layer, float64(failEvery*50-1-1)); s != 1 {
		t.Fatalf("swapped-in predictor score = %g, want the oracle's 1", s)
	}
	st := h.m.States()
	if len(st) != 1 || st[0].State != "serving" || st[0].Swaps != 1 || st[0].Confirms != 1 {
		t.Fatalf("final status = %+v", st)
	}
	tot := h.m.Totals()
	if tot.Swaps != 1 || tot.Drifts != 1 || tot.Retrains != 1 || tot.Rollbacks != 0 {
		t.Fatalf("totals = %+v", tot)
	}
}

// TestLifecycleRollback promotes a candidate that turns bad as soon as it
// serves; probation must roll the previous predictor back in.
func TestLifecycleRollback(t *testing.T) {
	const failEvery = 5
	layer := &core.Layer{Name: "app", Threshold: 0.5}
	incumbent := &scriptPredictor{score: func(now float64) float64 {
		// An oracle for every other failure (F 2/3, which the candidate's
		// shadow F of 1 strictly beats) whose quiet-tick level drifts
		// upward after t=30 without adding a warning (0.4 is still below
		// the threshold).
		s := oracle(2 * failEvery)(now)
		if now >= 30 && s == 0 {
			return 0.4
		}
		return s
	}}
	turncoat := &moodyPredictor{
		layer: layer,
		good:  oracle(failEvery),
		bad:   func(float64) float64 { return 0 }, // never warns: recall collapses
	}
	incumbent.next = turncoat
	layer.Predictor = incumbent

	h := newHarness(t, []*core.Layer{layer},
		Config{ScoreWarmup: 10, ScoreThresholdSigma: 3,
			ShadowMinResolved: 10, CooldownCycles: 5, SyncRetrain: true}, failEvery)
	var log eventLog
	h.m.Subscribe(log.record)
	h.run(0, 250)

	rb, ok := log.find(EventRolledBack)
	if !ok {
		t.Fatalf("no rollback; events = %v", log.types())
	}
	if rb.Version != 3 {
		t.Fatalf("rollback produced version %d, want 3 (initial→swap→rollback)", rb.Version)
	}
	if rb.CandidateF >= rb.IncumbentF {
		t.Fatalf("rollback with post-swap F %.3f ≥ pre-swap F %.3f", rb.CandidateF, rb.IncumbentF)
	}
	// The original (still perfect) predictor serves again.
	if cur, _ := layer.Current(); cur != core.LayerPredictor(incumbent) {
		t.Fatal("rollback did not restore the previous predictor")
	}
	tot := h.m.Totals()
	if tot.Rollbacks != 1 || tot.Swaps != 1 {
		t.Fatalf("totals = %+v", tot)
	}
}

// TestLifecycleCaptureFailure: a failing capture aborts the episode with a
// retrain_failed event and a cooldown, leaving the layer serving.
func TestLifecycleCaptureFailure(t *testing.T) {
	incumbent := &scriptPredictor{
		score:      shiftingScore(20, 0.1, 0.3),
		captureErr: errors.New("mirror empty"),
	}
	layer := &core.Layer{Name: "app", Predictor: incumbent, Threshold: 0.5}
	h := newHarness(t, []*core.Layer{layer},
		Config{ScoreWarmup: 10, CooldownCycles: 1000, SyncRetrain: true}, 10)
	var log eventLog
	h.m.Subscribe(log.record)
	h.run(0, 100)

	ev, ok := log.find(EventRetrainFailed)
	if !ok {
		t.Fatalf("no retrain_failed; events = %v", log.types())
	}
	if ev.Err == "" {
		t.Fatal("retrain_failed event lost the cause")
	}
	st := h.m.States()
	if st[0].State != "serving" || st[0].RetrainErrors != 1 {
		t.Fatalf("status = %+v", st[0])
	}
	if layer.Version() != 1 {
		t.Fatalf("version = %d, want unchanged 1", layer.Version())
	}
	// Cooldown holds: exactly one episode despite continued drift pressure.
	if _, swapped := log.find(EventSwapped); swapped {
		t.Fatal("unexpected swap")
	}
}

// TestLifecycleNonRetrainable: drift on a plain-closure layer is
// unactionable — no events, no state change.
func TestLifecycleNonRetrainable(t *testing.T) {
	sc := shiftingScore(20, 0.1, 0.3)
	layer := &core.Layer{Name: "plain", Predictor: core.PredictorFunc(func(now float64) (float64, error) {
		return sc(now), nil
	}), Threshold: 0.5}
	h := newHarness(t, []*core.Layer{layer}, Config{ScoreWarmup: 10, SyncRetrain: true}, 10)
	var log eventLog
	h.m.Subscribe(log.record)
	h.run(0, 100)
	if n := len(log.types()); n != 0 {
		t.Fatalf("events on a non-retrainable layer: %v", log.types())
	}
	if st := h.m.States(); st[0].Retrainable || st[0].State != "serving" {
		t.Fatalf("status = %+v", st[0])
	}
}

// TestLifecycleBackgroundRetrainRace runs the asynchronous retrain path
// under concurrent Collect / ObserveCycle / Score traffic (run with
// -race): the swap must still happen and nothing may tear.
func TestLifecycleBackgroundRetrainRace(t *testing.T) {
	const failEvery = 10
	incumbent := &scriptPredictor{
		score: shiftingScore(20, 0.1, 0.3),
		delay: 2 * time.Millisecond,
	}
	incumbent.next = &scriptPredictor{score: oracle(failEvery)}
	layer := &core.Layer{Name: "app", Predictor: incumbent, Threshold: 0.5}
	h := newHarness(t, []*core.Layer{layer},
		Config{ScoreWarmup: 10, ShadowMinResolved: 5, CooldownCycles: 5}, failEvery)
	var log eventLog
	h.m.Subscribe(log.record)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // concurrent reader hammering the hot handle + status
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			score(layer, float64(i))
			h.m.States()
			h.m.Totals()
		}
	}()
	// Run past the drift trigger, wait out the background fit, then keep
	// cycling so the shadow/promotion phases play out.
	h.run(0, 100)
	h.m.Wait()
	h.run(100, 400)
	close(stop)
	wg.Wait()
	h.m.Wait()

	if _, ok := log.find(EventSwapped); !ok {
		t.Fatalf("no swap with background retrain; events = %v", log.types())
	}
	if layer.Version() < 2 {
		t.Fatalf("version = %d, want ≥ 2", layer.Version())
	}
}

// TestManagerValidation pins constructor errors.
func TestManagerValidation(t *testing.T) {
	led, err := obs.NewLedger(obs.LedgerConfig{LeadTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := &core.Layer{Name: "a", Predictor: &scriptPredictor{score: func(float64) float64 { return 0 }}}
	if _, err := NewManager(nil, led, Config{}); err == nil {
		t.Fatal("no layers accepted")
	}
	if _, err := NewManager([]*core.Layer{good}, nil, Config{}); err == nil {
		t.Fatal("nil ledger accepted")
	}
	if _, err := NewManager([]*core.Layer{good, good}, led, Config{}); err == nil {
		t.Fatal("duplicate layer accepted")
	}
	if _, err := NewManager([]*core.Layer{{}}, led, Config{}); err == nil {
		t.Fatal("unnamed layer accepted")
	}
}
