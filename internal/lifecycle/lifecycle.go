// Package lifecycle manages the predictor lifecycle of the MEA engine's
// layers (Sect. 6: change-point-triggered re-adjustment of model
// parameters): it watches each layer's score stream and ledger quality for
// drift, retrains a candidate predictor off the hot path, validates it in
// shadow mode against the incumbent's live F-measure, and hot-swaps it in
// through core.Layer's versioned handle — rolling back if quality
// regresses during probation.
//
// State machine per layer:
//
//	serving ──drift──▶ drifted ──capture──▶ training ──fit ok──▶ shadow
//	   ▲                  │ capture fails       │ fit fails        │
//	   │◀─────────────────┴─────────────────────┘                  │
//	   │                                      candidate F ≤ incumbent F
//	   │◀──────────────────────────────────── (shadow budget exhausted)
//	   │                                                           │
//	   │                                            candidate F > incumbent F
//	   │◀──confirm/rollback── probation ◀──────swap (version bump)─┘
//
// Integration contract: Collect must be called from inside the runtime's
// evaluation exclusion (it captures retrain windows and scores shadow
// candidates — the only operations that read live mirror state);
// ObserveCycle runs on the act stage after the decision and journaling.
// Swaps themselves are lock-free pointer CASes on the layer handle, so
// they never block an evaluation cycle.
package lifecycle

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/changepoint"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/predict"
)

// ErrLifecycle is wrapped by all package errors.
var ErrLifecycle = errors.New("lifecycle: invalid operation")

// CandidateSuffix names a layer's shadow ledger row.
const CandidateSuffix = "#candidate"

// CandidateName returns the ledger row a layer's shadow candidate is
// journaled under.
func CandidateName(layer string) string { return layer + CandidateSuffix }

// State is a layer's position in the predictor lifecycle.
type State int

const (
	// StateServing: the incumbent predictor serves; drift detectors armed.
	StateServing State = iota
	// StateDrifted: drift detected; awaiting a window capture under the
	// next cycle's evaluation exclusion.
	StateDrifted
	// StateTraining: a candidate is being retrained in the background.
	StateTraining
	// StateShadow: the candidate scores every cycle next to the incumbent,
	// journaled under the candidate ledger row, excluded from decisions.
	StateShadow
	// StateProbation: the candidate was swapped in; quality is watched for
	// a regression that would trigger rollback.
	StateProbation
)

// String renders the state for logs and the /layers endpoint.
func (s State) String() string {
	switch s {
	case StateServing:
		return "serving"
	case StateDrifted:
		return "drifted"
	case StateTraining:
		return "training"
	case StateShadow:
		return "shadow"
	case StateProbation:
		return "probation"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// EventType classifies lifecycle events.
type EventType string

const (
	EventDrift           EventType = "drift"
	EventRetrainStarted  EventType = "retrain_started"
	EventRetrainDone     EventType = "retrain_done"
	EventRetrainFailed   EventType = "retrain_failed"
	EventShadowStarted   EventType = "shadow_started"
	EventShadowDiscarded EventType = "shadow_discarded"
	EventSwapped         EventType = "swapped"
	EventConfirmed       EventType = "confirmed"
	EventRolledBack      EventType = "rolled_back"
)

// Event is one lifecycle transition, delivered to subscribers in order.
type Event struct {
	Time  float64   // domain-clock time of the observing cycle
	Layer string    // layer name
	Type  EventType // transition
	// Version is the layer's serving version after the event (swap and
	// rollback bump it; other events report the current version).
	Version uint64
	// CandidateF and IncumbentF carry the shadow comparison for
	// swap/discard events and the probation comparison for
	// confirm/rollback (CandidateF = post-swap quality there).
	CandidateF, IncumbentF float64
	// Duration is the retrain wall time in seconds (retrain events).
	Duration float64
	// Err describes the failure for retrain_failed events.
	Err string
}

// Fixed parts of the lifecycle policy.
const (
	// qualityDelta and qualityLambda are the Page–Hinkley tolerance and
	// threshold on a layer's rolling 1−F stream.
	qualityDelta  = 0.01
	qualityLambda = 0.25
	// minQualityResolved gates the quality detector until the rolling
	// table has at least this many resolved predictions.
	minQualityResolved = 20
	// shadowMaxFactor bounds the shadow phase: a candidate that has not won
	// after this many times ShadowMinResolved resolved predictions is
	// discarded.
	shadowMaxFactor = 10
	// rollbackMargin: roll back when post-swap F drops below the pre-swap F
	// by more than this.
	rollbackMargin = 0.05
	// scoreDriftSigma is the score CUSUM allowance in σ.
	scoreDriftSigma = 0.5
	// probationResolved is the number of post-swap resolved predictions
	// before the swap is confirmed or rolled back.
	probationResolved = 20
)

// Config tunes the lifecycle manager. Zero values select the defaults. The
// score CUSUM allowance (0.5 σ), the promotion rule (the candidate's
// F-measure strictly above the incumbent's) and the probation length (20
// resolved predictions) are the package's constants.
type Config struct {
	// ScoreWarmup is the number of observations the per-layer score
	// detector uses to self-calibrate (default 60).
	ScoreWarmup int
	// ScoreThresholdSigma is the score CUSUM threshold in σ (default 8).
	ScoreThresholdSigma float64
	// ShadowMinResolved is the minimum number of resolved candidate
	// predictions before a promotion decision (default 10).
	ShadowMinResolved int
	// CooldownCycles suppresses new drift triggers for a layer after any
	// completed lifecycle episode (default 50).
	CooldownCycles int
	// SyncRetrain runs retraining inline in Collect instead of a
	// background goroutine — deterministic mode for tests and replays.
	SyncRetrain bool
}

func (c Config) withDefaults() Config {
	if c.ScoreWarmup == 0 {
		c.ScoreWarmup = 60
	}
	if c.ScoreThresholdSigma == 0 {
		c.ScoreThresholdSigma = 8
	}
	if c.ShadowMinResolved == 0 {
		c.ShadowMinResolved = 10
	}
	if c.CooldownCycles == 0 {
		c.CooldownCycles = 50
	}
	return c
}

// CandidateScore is one shadow candidate's evaluation for the current
// cycle, returned by Collect for the runtime to journal.
type CandidateScore struct {
	Layer     string  // owning layer
	Name      string  // ledger row (CandidateName(Layer))
	Score     float64 // candidate's score at this cycle
	Threshold float64 // owning layer's warning threshold
	Err       error   // evaluation error (score invalid when non-nil)
}

// layerState is one layer's lifecycle bookkeeping (guarded by Manager.mu).
type layerState struct {
	layer *core.Layer

	state         State
	scoreDet      *changepoint.AutoCUSUM
	qualityDet    *changepoint.PageHinkley
	cooldownUntil uint64 // cycle index before which drift triggers are muted

	// Shadow bookkeeping.
	candidate       core.LayerPredictor
	shadowArmed     bool // candidate stored, ledger baselines not yet taken
	shadowStartCand predict.ContingencyTable
	shadowStartInc  predict.ContingencyTable

	// Probation bookkeeping.
	prevPredictor  core.LayerPredictor
	preSwapF       float64
	probationStart predict.ContingencyTable

	// Counters for States() and metrics.
	drifts, retrains, retrainErrors, swaps, rollbacks, confirms int
}

// Manager drives the predictor lifecycle for a set of layers against one
// prediction-quality ledger. Safe for concurrent use per the integration
// contract (Collect from the evaluate stage, ObserveCycle from the act
// stage, retrains in background goroutines).
type Manager struct {
	cfg Config
	led *obs.Ledger

	mu        sync.Mutex
	layers    []*layerState
	byName    map[string]*layerState
	cycle     uint64
	pending   []Event // queued under mu, flushed by ObserveCycle
	observers []func(Event)
	inflight  sync.WaitGroup // background retrains
}

// NewManager builds a manager for the given layers. led is the live
// prediction-quality ledger the runtime journals to — required, because
// shadow promotion and rollback decisions are made from its tables.
func NewManager(layers []*core.Layer, led *obs.Ledger, cfg Config) (*Manager, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("%w: no layers", ErrLifecycle)
	}
	if led == nil {
		return nil, fmt.Errorf("%w: nil ledger (shadow validation needs live quality)", ErrLifecycle)
	}
	cfg = cfg.withDefaults()
	m := &Manager{cfg: cfg, led: led, byName: make(map[string]*layerState, len(layers))}
	for _, l := range layers {
		if l == nil || l.Name == "" {
			return nil, fmt.Errorf("%w: nil or unnamed layer", ErrLifecycle)
		}
		if _, dup := m.byName[l.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate layer %q", ErrLifecycle, l.Name)
		}
		sd, err := changepoint.NewAutoCUSUM(cfg.ScoreWarmup, scoreDriftSigma, cfg.ScoreThresholdSigma)
		if err != nil {
			return nil, err
		}
		qd, err := changepoint.NewPageHinkley(qualityDelta, qualityLambda)
		if err != nil {
			return nil, err
		}
		ls := &layerState{layer: l, scoreDet: sd, qualityDet: qd}
		m.layers = append(m.layers, ls)
		m.byName[l.Name] = ls
	}
	return m, nil
}

// Subscribe registers an event observer. Call before the runtime starts;
// observers run on the act-stage goroutine in event order and must not
// call back into the Manager.
func (m *Manager) Subscribe(fn func(Event)) {
	if fn == nil {
		return
	}
	m.mu.Lock()
	m.observers = append(m.observers, fn)
	m.mu.Unlock()
}

// queueEvent appends an event; caller holds m.mu.
func (m *Manager) queueEvent(e Event) { m.pending = append(m.pending, e) }

// Collect runs the lifecycle steps that must execute inside the runtime's
// evaluation exclusion: capturing retrain windows from drifted layers and
// scoring shadow candidates. It returns the candidate scores for the
// runtime to journal this cycle (entries with Err set are abstentions).
func (m *Manager) Collect(now float64) []CandidateScore {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []CandidateScore
	for _, ls := range m.layers {
		switch ls.state {
		case StateDrifted:
			m.capture(ls, now)
		case StateShadow:
			if ls.shadowArmed {
				// First shadow cycle: baseline the cumulative tables so the
				// promotion decision compares candidate and incumbent over
				// the identical journaling period.
				ls.shadowStartCand = m.led.Cumulative(CandidateName(ls.layer.Name))
				ls.shadowStartInc = m.led.Cumulative(ls.layer.Name)
				ls.shadowArmed = false
				m.queueEvent(Event{Time: now, Layer: ls.layer.Name, Type: EventShadowStarted,
					Version: ls.layer.Version()})
			}
			s, err := ls.candidate.Evaluate(now)
			out = append(out, CandidateScore{
				Layer:     ls.layer.Name,
				Name:      CandidateName(ls.layer.Name),
				Score:     s,
				Threshold: ls.layer.Threshold,
				Err:       err,
			})
		}
	}
	return out
}

// capture snapshots a drifted layer's retrain window and kicks off the
// refit. Caller holds m.mu.
func (m *Manager) capture(ls *layerState, now float64) {
	p, _ := ls.layer.Current()
	r, ok := p.(core.Retrainer)
	if !ok {
		// The serving predictor lost retrainability (e.g. swapped by hand);
		// nothing to do but re-arm.
		ls.state = StateServing
		ls.cooldownUntil = m.cycle + uint64(m.cfg.CooldownCycles)
		return
	}
	window, err := r.CaptureWindow(now)
	if err != nil {
		ls.retrainErrors++
		ls.state = StateServing
		ls.cooldownUntil = m.cycle + uint64(m.cfg.CooldownCycles)
		m.queueEvent(Event{Time: now, Layer: ls.layer.Name, Type: EventRetrainFailed,
			Version: ls.layer.Version(), Err: fmt.Sprintf("capture: %v", err)})
		return
	}
	ls.state = StateTraining
	ls.retrains++
	m.queueEvent(Event{Time: now, Layer: ls.layer.Name, Type: EventRetrainStarted,
		Version: ls.layer.Version()})
	if m.cfg.SyncRetrain {
		m.finishRetrain(ls, now, r, window, time.Now())
		return
	}
	m.inflight.Add(1)
	go func() {
		defer m.inflight.Done()
		start := time.Now()
		cand, err := r.Retrain(window)
		m.mu.Lock()
		defer m.mu.Unlock()
		m.publishRetrain(ls, now, cand, err, time.Since(start).Seconds())
	}()
}

// finishRetrain runs the refit inline (SyncRetrain). Caller holds m.mu.
func (m *Manager) finishRetrain(ls *layerState, now float64, r core.Retrainer, window any, start time.Time) {
	cand, err := r.Retrain(window)
	m.publishRetrain(ls, now, cand, err, time.Since(start).Seconds())
}

// publishRetrain records a retrain outcome. Caller holds m.mu.
func (m *Manager) publishRetrain(ls *layerState, now float64, cand core.LayerPredictor, err error, dur float64) {
	if err != nil || cand == nil {
		msg := "nil candidate"
		if err != nil {
			msg = err.Error()
		}
		ls.retrainErrors++
		ls.state = StateServing
		ls.cooldownUntil = m.cycle + uint64(m.cfg.CooldownCycles)
		m.queueEvent(Event{Time: now, Layer: ls.layer.Name, Type: EventRetrainFailed,
			Version: ls.layer.Version(), Duration: dur, Err: msg})
		return
	}
	ls.candidate = cand
	ls.shadowArmed = true
	ls.state = StateShadow
	m.queueEvent(Event{Time: now, Layer: ls.layer.Name, Type: EventRetrainDone,
		Version: ls.layer.Version(), Duration: dur})
}

// ObserveCycle drives the state machine from the act stage: it feeds the
// drift detectors with this cycle's layer scores and ledger quality,
// decides promotions, confirmations and rollbacks, and delivers queued
// events to subscribers. scores is the engine's per-layer score vector
// (NaN = abstained), in the layer order the Manager was built with.
func (m *Manager) ObserveCycle(now float64, scores []float64) {
	m.mu.Lock()
	m.cycle++
	for i, ls := range m.layers {
		var score float64
		if i < len(scores) {
			score = scores[i]
		}
		m.observeLayer(ls, now, score)
	}
	events := m.pending
	m.pending = nil
	observers := m.observers
	m.mu.Unlock()
	for _, e := range events {
		for _, fn := range observers {
			fn(e)
		}
	}
}

// observeLayer advances one layer. Caller holds m.mu.
func (m *Manager) observeLayer(ls *layerState, now, score float64) {
	name := ls.layer.Name
	// Detectors always see the stream so their references stay current.
	scoreDrift := ls.scoreDet.Update(score)
	qualityDrift := false
	if rolling := m.led.Quality(name); rolling.Total() >= minQualityResolved {
		qualityDrift = ls.qualityDet.Update(1 - rolling.FMeasure())
	}

	switch ls.state {
	case StateServing:
		if m.cycle < ls.cooldownUntil {
			return
		}
		if !scoreDrift && !qualityDrift {
			return
		}
		if p, _ := ls.layer.Current(); p != nil {
			if _, ok := p.(core.Retrainer); !ok {
				return // not retrainable: drift is observable but unactionable
			}
		}
		ls.drifts++
		ls.state = StateDrifted
		m.queueEvent(Event{Time: now, Layer: name, Type: EventDrift, Version: ls.layer.Version()})

	case StateShadow:
		if ls.shadowArmed {
			return // baselines not taken yet (first Collect pending)
		}
		candDelta := tableDelta(m.led.Cumulative(CandidateName(name)), ls.shadowStartCand)
		incDelta := tableDelta(m.led.Cumulative(name), ls.shadowStartInc)
		if candDelta.Total() < m.cfg.ShadowMinResolved {
			return
		}
		candF, incF := candDelta.FMeasure(), incDelta.FMeasure()
		if candF > incF { // promotion needs a strictly better F-measure
			m.promote(ls, now, candF, incF)
			return
		}
		if candDelta.Total() >= shadowMaxFactor*m.cfg.ShadowMinResolved {
			ls.candidate = nil
			ls.state = StateServing
			ls.cooldownUntil = m.cycle + uint64(m.cfg.CooldownCycles)
			m.queueEvent(Event{Time: now, Layer: name, Type: EventShadowDiscarded,
				Version: ls.layer.Version(), CandidateF: candF, IncumbentF: incF})
		}

	case StateProbation:
		delta := tableDelta(m.led.Cumulative(name), ls.probationStart)
		if delta.Total() < probationResolved {
			return
		}
		newF := delta.FMeasure()
		if newF < ls.preSwapF-rollbackMargin {
			ls.rollbacks++
			_, ver := ls.layer.SwapPredictor(ls.prevPredictor)
			ls.prevPredictor = nil
			ls.state = StateServing
			ls.cooldownUntil = m.cycle + uint64(2*m.cfg.CooldownCycles)
			ls.scoreDet.Recalibrate()
			ls.qualityDet.Reset()
			m.queueEvent(Event{Time: now, Layer: name, Type: EventRolledBack,
				Version: ver, CandidateF: newF, IncumbentF: ls.preSwapF})
			return
		}
		ls.confirms++
		ls.prevPredictor = nil
		ls.state = StateServing
		ls.cooldownUntil = m.cycle + uint64(m.cfg.CooldownCycles)
		m.queueEvent(Event{Time: now, Layer: name, Type: EventConfirmed,
			Version: ls.layer.Version(), CandidateF: newF, IncumbentF: ls.preSwapF})
	}
}

// promote swaps the shadow candidate in. Caller holds m.mu.
func (m *Manager) promote(ls *layerState, now float64, candF, incF float64) {
	prev, ver := ls.layer.SwapPredictor(ls.candidate)
	ls.swaps++
	ls.prevPredictor = prev
	ls.preSwapF = incF
	ls.probationStart = m.led.Cumulative(ls.layer.Name)
	ls.candidate = nil
	ls.state = StateProbation
	// The new predictor has a new score distribution: recalibrate.
	ls.scoreDet.Recalibrate()
	ls.qualityDet.Reset()
	m.queueEvent(Event{Time: now, Layer: ls.layer.Name, Type: EventSwapped,
		Version: ver, CandidateF: candF, IncumbentF: incF})
}

// tableDelta is the elementwise difference cur − base of two cumulative
// contingency tables (the quality accrued since base was snapshotted).
func tableDelta(cur, base predict.ContingencyTable) predict.ContingencyTable {
	return predict.ContingencyTable{
		TP: cur.TP - base.TP,
		FP: cur.FP - base.FP,
		TN: cur.TN - base.TN,
		FN: cur.FN - base.FN,
	}
}

// Wait blocks until all in-flight background retrains finish — test and
// shutdown hook.
func (m *Manager) Wait() { m.inflight.Wait() }

// LayerStatus is one layer's lifecycle view for the /layers endpoint.
type LayerStatus struct {
	Layer         string `json:"layer"`
	State         string `json:"state"`
	Version       uint64 `json:"version"`
	Retrainable   bool   `json:"retrainable"`
	EvalErrors    int64  `json:"evalErrors"`
	Drifts        int    `json:"drifts"`
	Retrains      int    `json:"retrains"`
	RetrainErrors int    `json:"retrainErrors"`
	Swaps         int    `json:"swaps"`
	Rollbacks     int    `json:"rollbacks"`
	Confirms      int    `json:"confirms"`
}

// States snapshots every layer's lifecycle status in layer order.
func (m *Manager) States() []LayerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]LayerStatus, 0, len(m.layers))
	for _, ls := range m.layers {
		p, ver := ls.layer.Current()
		_, retrainable := p.(core.Retrainer)
		out = append(out, LayerStatus{
			Layer:         ls.layer.Name,
			State:         ls.state.String(),
			Version:       ver,
			Retrainable:   retrainable,
			EvalErrors:    ls.layer.EvalErrors(),
			Drifts:        ls.drifts,
			Retrains:      ls.retrains,
			RetrainErrors: ls.retrainErrors,
			Swaps:         ls.swaps,
			Rollbacks:     ls.rollbacks,
			Confirms:      ls.confirms,
		})
	}
	return out
}

// Totals aggregates lifecycle counters across layers — the runtime's
// metric source.
type Totals struct {
	Drifts, Retrains, RetrainErrors, Swaps, Rollbacks, Confirms int
}

// Totals sums the per-layer counters.
func (m *Manager) Totals() Totals {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t Totals
	for _, ls := range m.layers {
		t.Drifts += ls.drifts
		t.Retrains += ls.retrains
		t.RetrainErrors += ls.retrainErrors
		t.Swaps += ls.swaps
		t.Rollbacks += ls.rollbacks
		t.Confirms += ls.confirms
	}
	return t
}
