// Package core is the paper's primary contribution made executable: the
// Monitor–Evaluate–Act cycle (Fig. 1) wired across system layers per the
// architectural blueprint (Fig. 11).
//
// Each layer owns a failure predictor tailored to its data (hardware
// counters, VMM metrics, application error logs …). The Act stage spans all
// layers: per-layer scores are combined (optionally by a stacked
// meta-learner, Sect. 6), and a single cross-layer decision selects and
// executes the countermeasure — preventing conflicting actions like a VM
// migration racing a hardware restart. A control-loop oscillation guard
// (Sect. 2) bounds the action rate. The engine has no clock and no ground
// truth: internal/runtime's cycle runs it at the instants its owner names,
// and a prediction's Table 1 outcome is booked by obs.Ledger against the
// failures recorded inside its window.
//
// # Locking contract
//
// Engine is safe for concurrent use: a warning decision (ActOn, DecideOn,
// Decide) and every accessor (Report, ActionsTaken, …) serialize on an
// internal mutex, so the cross-layer decision and the oscillation guard
// always observe a consistent state even when driven from multiple
// goroutines (e.g. by internal/runtime's act stage). A quiet decision
// changes no state and takes no lock: it reads the layer versions the engine
// caches between predictor swaps. Two things remain the caller's
// responsibility:
//
//   - Layer predictors are invoked OUTSIDE the engine mutex — by
//     EvaluateLayersBatch sequentially, or concurrently with each other by
//     a worker pool. They must be safe with respect to whatever state they
//     read (internal/runtime guards predictor state with an RWMutex).
//   - Action Execute closures run INSIDE the mutex (the act stage is
//     deliberately serialized); they must not call back into the engine.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/act"
	"repro/internal/sim"
)

// ErrCore is wrapped by all package errors.
var ErrCore = errors.New("core: invalid configuration")

// Layer is one level of the Fig. 11 architecture: a named predictor over
// that layer's monitoring data. The serving predictor lives behind an
// atomically swappable, versioned handle (see LayerPredictor): construct
// the layer with its Predictor (PredictorFunc wraps a bare closure), then
// score through ScoreBatch and replace through SwapPredictor.
type Layer struct {
	// Name identifies the layer ("hardware", "vmm", "os", "application").
	Name string
	// Predictor is the initial serving predictor, version 1. Set at
	// construction only; replace via SwapPredictor.
	Predictor LayerPredictor
	// Threshold is the layer's decision boundary; the layer votes
	// "failure-prone" when score ≥ Threshold.
	Threshold float64

	// handle holds the serving (predictor, version) pair; swaps are a
	// single pointer exchange, so scoring is never blocked.
	handle atomic.Pointer[versionedPredictor]
	// evalErrors counts failed evaluations across predictor versions.
	evalErrors atomic.Int64
}

// Combiner fuses per-layer scores into a single probability-like
// confidence in [0,1]. meta.Stacker.Score satisfies this signature. The
// slice is the engine's scratch, rewritten by the next decision: a combiner
// must not retain it.
type Combiner func(layerScores []float64) (float64, error)

// Config parameterizes the MEA engine.
type Config struct {
	// EvalInterval is the period of the Evaluate step [s].
	EvalInterval float64
	// LeadTime Δtl is the anticipated time-to-failure of a warning [s].
	LeadTime float64
	// Confidence threshold above which a warning is raised.
	WarnThreshold float64
	// OscillationWindow and MaxActionsPerWindow bound the action rate
	// (control-loop stability guard). Zero window disables the guard.
	OscillationWindow   float64
	MaxActionsPerWindow int
}

// validate rejects unusable configurations.
func (c Config) validate() error {
	if c.EvalInterval <= 0 || math.IsNaN(c.EvalInterval) {
		return fmt.Errorf("%w: eval interval %g", ErrCore, c.EvalInterval)
	}
	if c.LeadTime < 0 {
		return fmt.Errorf("%w: lead time %g", ErrCore, c.LeadTime)
	}
	// A warning at t is scored against failures in (t, t+LeadTime+slack]
	// (Sect. 3.3): a cadence longer than the lead time leaves failures no
	// cycle could have warned of.
	if c.EvalInterval > c.LeadTime {
		return fmt.Errorf("%w: eval interval %g exceeds lead time %g", ErrCore, c.EvalInterval, c.LeadTime)
	}
	if c.WarnThreshold < 0 || c.WarnThreshold > 1 {
		return fmt.Errorf("%w: warn threshold %g", ErrCore, c.WarnThreshold)
	}
	if c.OscillationWindow < 0 || c.MaxActionsPerWindow < 0 {
		return fmt.Errorf("%w: oscillation guard window=%g max=%d",
			ErrCore, c.OscillationWindow, c.MaxActionsPerWindow)
	}
	return nil
}

// Engine is the MEA cycle's cross-layer decision, driven through
// EvaluateLayersBatch and ActOn (or DecideOn) at whatever instants its
// caller's clock names: internal/runtime's cycle is the one driver.
type Engine struct {
	cfg      Config
	layers   []*Layer
	combiner Combiner
	selector *act.Selector
	actions  []*act.Action

	// combinerErrs counts Act rounds whose combiner failed (confidence
	// forced to 0) — surfaced as pfm_combiner_errors_total.
	combinerErrs atomic.Int64
	// observer is the installed CycleObserver, read without a lock on every
	// decision.
	observer atomic.Pointer[CycleObserver]

	// combineMu guards combineIn, the combiner-input scratch (nil without a
	// combiner), over the combine step — which stays outside mu, so a
	// combiner may call the engine's accessors.
	combineMu sync.Mutex
	combineIn []float64

	// verEpoch is the swap epoch at which vers was last checked against the
	// layers; vers holds their serving versions then (nil: every layer at
	// version 1, the shared initialVersions). A decision at the current
	// epoch reads them without a lock; after a swap anywhere the next one
	// rechecks them under mu, and a version that moved replaces the slice —
	// decisions between two swaps share one, never rewritten.
	verEpoch atomic.Uint64
	vers     atomic.Pointer[[]uint64]

	// mu guards all mutable state below (see the package locking contract).
	mu     sync.Mutex
	warned int // warnings raised
	// actionTimes holds the committed actions still inside the oscillation
	// window — all the guard ever reads; acted counts them all.
	actionTimes []float64
	acted       int
	suppressed  int
}

// maxGuardHistory caps the oscillation guard history New sizes up front.
const maxGuardHistory = 64

// initialVersions backs the versions of every engine whose layers all still
// serve their first predictor: read-only and shared, so a new engine
// allocates none.
var initialVersions = func() (v [16]uint64) {
	for i := range v {
		v[i] = 1
	}
	return v
}()

// New assembles an engine. combiner may be nil (mean of layer votes).
// simEngine and truth must be nil: the engine keeps no clock and consults
// no ground-truth oracle, and the two parameters stay only until the
// benchmark's callers drop them.
func New(
	simEngine *sim.Engine,
	layers []*Layer,
	combiner Combiner,
	selector *act.Selector,
	actions []*act.Action,
	truth func(horizon float64) bool,
	cfg Config,
) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if simEngine != nil || truth != nil {
		return nil, fmt.Errorf("%w: no simulation clock or truth oracle: run the engine on internal/runtime's cycle", ErrCore)
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("%w: at least one layer required", ErrCore)
	}
	for i, l := range layers {
		if l == nil || l.Name == "" || l.Predictor == nil {
			return nil, fmt.Errorf("%w: layer %d must have a name and a predictor", ErrCore, i)
		}
		l.current() // install the version-1 predictor eagerly
	}
	if selector == nil {
		return nil, fmt.Errorf("%w: nil selector", ErrCore)
	}
	if len(actions) == 0 {
		return nil, fmt.Errorf("%w: at least one action required", ErrCore)
	}
	e := &Engine{cfg: cfg, layers: layers, combiner: combiner, selector: selector, actions: actions}
	if cfg.OscillationWindow > 0 {
		// At its final size: the guard admits at most MaxActionsPerWindow
		// actions inside the window (a bound above maxGuardHistory grows
		// past it by append).
		e.actionTimes = make([]float64, 0, min(cfg.MaxActionsPerWindow, maxGuardHistory))
	}
	if combiner != nil {
		e.combineIn = make([]float64, len(layers))
	}
	if len(layers) > len(initialVersions) {
		ones := make([]uint64, len(layers))
		for i := range ones {
			ones[i] = 1
		}
		e.vers.Store(&ones)
	}
	e.recheckVersionsLocked(swapEpoch.Load())
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Layers returns the engine's layers (copy of the slice; the *Layer values
// are shared and must not be mutated after New).
func (e *Engine) Layers() []*Layer {
	return append([]*Layer(nil), e.layers...)
}

// EvaluateLayersBatch scores every layer at each time in nows into the
// layer-major flat score matrix out: out[j*len(nows)+i] is layer j at
// nows[i], so each layer's whole batch is one contiguous segment a batch
// kernel writes in place (no per-layer scratch). len(out) must be
// len(Layers())*len(nows) — anything else panics, like a mis-sized copy.
// A failing layer abstains, marked NaN (and counted on the layer's
// EvalErrors) — ActOn treats NaN as "no evidence either way". The engine
// mutex is NOT held, so callers may score the layers themselves instead
// (e.g. in a worker pool); each layer loads its versioned predictor handle
// once per batch (ScoreBatch). Feed each time's row (the i-strided column
// of out) to ActOn.
func (e *Engine) EvaluateLayersBatch(nows []float64, out []float64) {
	if len(out) != len(e.layers)*len(nows) {
		panic(fmt.Sprintf("core: EvaluateLayersBatch out has len %d, want %d layers x %d times",
			len(out), len(e.layers), len(nows)))
	}
	for j, l := range e.layers {
		l.ScoreBatch(nows, out[j*len(nows):(j+1)*len(nows)])
	}
}

// CycleObserver receives every completed Act round: the evaluation time,
// the raw per-layer scores (indexed like the engine's layers, NaN for
// abstaining layers), and the cross-layer decision. It is invoked OUTSIDE
// the engine mutex, after the decision is committed — with concurrent ActOn
// callers, observations may therefore arrive out of order. The scores slice
// is borrowed from the caller; observers must not retain it.
type CycleObserver func(now float64, scores []float64, d Decision)

// SetCycleObserver installs the observer (nil disables). This is the hook
// the observability layer uses to journal per-layer predictions into the
// quality ledger without core depending on it.
func (e *Engine) SetCycleObserver(fn CycleObserver) { e.observer.Store(&fn) }

// Observer returns the installed cycle observer (nil for none): a caller that
// decides with DecideOn and commits itself calls it once the decision is
// final, as ActOn does. One atomic load, lock-free.
func (e *Engine) Observer() CycleObserver {
	if fn := e.observer.Load(); fn != nil {
		return *fn
	}
	return nil
}

// Decision is the outcome of one Act round.
type Decision struct {
	Time       float64 // evaluation time
	Confidence float64 // combined cross-layer confidence in [0,1]
	Warned     bool    // a failure warning was raised
	ActionName string  // executed/scheduled action, "none" otherwise
	Executed   bool    // an action was executed or scheduled
	Suppressed bool    // the oscillation guard vetoed the action
	// CombinerErr reports that the combiner failed on this round and the
	// confidence was forced to 0 (counted on Engine.CombinerErrors).
	CombinerErr bool
	// LayerVersions is each layer's serving predictor version at decision
	// time, indexed like the engine's layers. With a concurrent hot-swap
	// the scores may have been produced by the version just replaced; the
	// versions recorded here are the ones the decision was committed
	// against. Read-only: decisions between two swaps share one slice.
	LayerVersions []uint64
}

// ActOn performs the serialized cross-layer Act stage on externally
// produced layer scores: combine, warn, select the countermeasure, apply
// the oscillation guard. scores must be indexed like the engine's layers;
// NaN marks an abstaining layer. It is the single point of cross-layer
// decision making — concurrent callers are serialized on the engine mutex,
// one decision at a time.
func (e *Engine) ActOn(now float64, scores []float64) Decision {
	d, pending := e.DecideOn(now, scores)
	pending.Commit(&d)
	if fn := e.Observer(); fn != nil {
		fn(now, scores, d)
	}
	return d
}

// PendingAct is a warn decision's selected-but-not-yet-executed
// countermeasure, returned by DecideOn so a coordinator (e.g. the fleet's
// criticality-weighted act budget) can order executions across engines
// before committing them. Exactly one of Commit or Drop must be called;
// both are idempotent after the first resolution. It travels by value — a
// warn decision allocates nothing — and the zero value is "nothing pending":
// Commit and Drop on it do nothing, and a caller that must tell the two
// apart compares with PendingAct{}.
type PendingAct struct {
	e        *Engine
	action   *act.Action
	now      float64
	resolved bool
}

// Commit executes the pending countermeasure and records it against the
// oscillation guard, updating d's ActionName/Executed — the second half of
// what ActOn does inline.
func (p *PendingAct) Commit(d *Decision) {
	e := p.e
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if p.resolved {
		return
	}
	p.resolved = true
	e.acted++
	if w := e.cfg.OscillationWindow; w > 0 {
		old := 0
		for old < len(e.actionTimes) && p.now-e.actionTimes[old] > w {
			old++
		}
		kept := copy(e.actionTimes, e.actionTimes[old:])
		e.actionTimes = append(e.actionTimes[:kept], p.now)
	}
	if execErr := p.action.Execute(); execErr == nil {
		d.ActionName = p.action.Name()
		d.Executed = true
	}
}

// Drop releases the pending countermeasure without executing it (a budget
// denial). The oscillation guard does not count it: nothing ran.
func (p *PendingAct) Drop() {
	if e := p.e; e != nil {
		e.mu.Lock()
		p.resolved = true
		e.mu.Unlock()
	}
}

// DecideOn is ActOn with the execution deferred: it combines, warns, selects
// the countermeasure and applies the oscillation guard, but when the guard
// admits an action it returns it as a PendingAct instead of executing (the
// zero PendingAct otherwise). The caller resolves the pending act with Commit
// or Drop on its own copy (the returned Decision reports Executed only after
// Commit). Unlike ActOn it does not invoke the cycle observer: the caller
// calls the Observer once the decision is final. Decide/commit pairs on one engine
// must not interleave with other decisions on the same engine.
func (e *Engine) DecideOn(now float64, scores []float64) (Decision, PendingAct) {
	confidence, combinerErr := e.combine(scores)
	return e.decide(now, confidence, combinerErr)
}

// Decide is DecideOn on a confidence its caller combined, for an engine
// that votes (VotesOver): VoteShare over the layers' thresholds, as combine
// computes it (internal/runtime's cycle counts the votes of many engines a
// column of the score matrix at a time). It panics on an engine with a
// combiner, whose confidence only DecideOn computes. A quiet decision (Warns
// false) takes no lock.
func (e *Engine) Decide(now, confidence float64) (Decision, PendingAct) {
	if e.combiner != nil {
		panic("core: Decide on an engine with a combiner; use DecideOn")
	}
	return e.decide(now, confidence, false)
}

// VotesOver reports whether the engine's confidence is VoteShare over the
// per-layer thresholds th: it has no combiner, and its layers' thresholds
// are th, in order.
func (e *Engine) VotesOver(th []float64) bool {
	if e.combiner != nil || len(th) != len(e.layers) {
		return false
	}
	for i, l := range e.layers {
		if l.Threshold != th[i] {
			return false
		}
	}
	return true
}

// Warns reports whether a combined confidence raises a warning: it reaches
// the configured WarnThreshold.
func (e *Engine) Warns(confidence float64) bool { return confidence >= e.cfg.WarnThreshold }

// decide warns on a combined confidence, selects the countermeasure and
// applies the oscillation guard, under mu only when it warns.
func (e *Engine) decide(now, confidence float64, combinerErr bool) (Decision, PendingAct) {
	d := Decision{
		Time: now, Confidence: confidence, ActionName: "none",
		CombinerErr: combinerErr, LayerVersions: e.layerVersions(),
	}
	if !e.Warns(confidence) {
		return d, PendingAct{}
	}
	var pending PendingAct
	e.mu.Lock()
	d.Warned = true
	e.warned++
	// Act: select the countermeasure; the oscillation guard may veto.
	action, _, worth, err := e.selector.Select(e.actions, confidence)
	if err == nil && worth {
		if e.guardAllows(now) {
			pending = PendingAct{e: e, action: action, now: now}
		} else {
			e.suppressed++
			d.Suppressed = true
		}
	}
	e.mu.Unlock()
	return d, pending
}

// VoteShare is the default combiner's confidence: the share of all n layers
// that voted failure-prone, or 0 when no layer scored at all (usable 0).
func VoteShare(votes, usable, n int) float64 {
	if usable == 0 {
		return 0
	}
	return float64(votes) / float64(n)
}

// combine folds one round's layer scores into a confidence, outside
// observable state. An abstaining layer (NaN, or no score at all) casts no
// vote and gives the combiner its threshold, which is neutral. Without a
// combiner the confidence is the share of layers voting, counted on locals:
// the scratch and its lock exist only to feed a combiner.
func (e *Engine) combine(scores []float64) (confidence float64, failed bool) {
	if e.combiner == nil {
		votes, usable := 0, 0
		for i, l := range e.layers {
			if i >= len(scores) || math.IsNaN(scores[i]) {
				continue
			}
			usable++
			if scores[i] >= l.Threshold {
				votes++
			}
		}
		return VoteShare(votes, usable, len(e.layers)), false
	}
	e.combineMu.Lock()
	input := e.combineIn
	for i, l := range e.layers {
		input[i] = l.Threshold
		if i < len(scores) && !math.IsNaN(scores[i]) {
			input[i] = scores[i]
		}
	}
	c, err := e.combiner(input)
	e.combineMu.Unlock()
	if err != nil {
		e.combinerErrs.Add(1)
		return 0, true
	}
	return clamp01(c), false
}

// layerVersions returns every layer's serving version: the cached slice
// while no predictor swapped since it was checked, else rechecked under mu.
func (e *Engine) layerVersions() []uint64 {
	epoch := swapEpoch.Load()
	if e.verEpoch.Load() == epoch {
		return e.cachedVersions()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.recheckVersionsLocked(epoch)
}

// cachedVersions is the versions as of the last check.
func (e *Engine) cachedVersions() []uint64 {
	if v := e.vers.Load(); v != nil {
		return *v
	}
	return initialVersions[:len(e.layers):len(e.layers)]
}

// recheckVersionsLocked reads every layer's serving version, read at or
// after swap epoch epoch, into the cache — a new slice only when a version
// moved — and stamps it with epoch. The caller holds e.mu (or is New).
func (e *Engine) recheckVersionsLocked(epoch uint64) []uint64 {
	cur := e.cachedVersions()
	next := cur
	for i, l := range e.layers {
		if v := l.Version(); v != next[i] {
			if &next[0] == &cur[0] {
				next = slices.Clone(cur)
			}
			next[i] = v
		}
	}
	if &next[0] != &cur[0] {
		e.vers.Store(&next)
	}
	e.verEpoch.Store(epoch)
	return next
}

// guardAllows applies the oscillation guard.
func (e *Engine) guardAllows(now float64) bool {
	if e.cfg.OscillationWindow <= 0 {
		return true
	}
	recent := 0
	for i := len(e.actionTimes) - 1; i >= 0; i-- {
		if now-e.actionTimes[i] > e.cfg.OscillationWindow {
			break
		}
		recent++
	}
	return recent < e.cfg.MaxActionsPerWindow
}

// CombinerErrors returns how many Act rounds failed in the combiner (the
// confidence was silently forced to 0 before this counter existed).
func (e *Engine) CombinerErrors() int64 { return e.combinerErrs.Load() }

// SuppressedActions returns how many actions the oscillation guard vetoed.
func (e *Engine) SuppressedActions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.suppressed
}

// ActionsTaken returns how many actions were executed.
func (e *Engine) ActionsTaken() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.acted
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
