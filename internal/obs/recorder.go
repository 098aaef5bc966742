package obs

import (
	"fmt"
	"math"
	stdruntime "runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/diagnose"
	"repro/internal/eventlog"
)

// TriggerKind names the condition that fired an incident capture.
type TriggerKind string

// The recorder's trigger matrix. Warn and act fire from the engine's
// combined decision, drift and rollback from lifecycle events, burnrate
// from the rolling ledger F-measure falling through a floor.
const (
	// TriggerWarn fires when the combined decision warns at or above the
	// recorder's warn threshold.
	TriggerWarn TriggerKind = "warn"
	// TriggerAct fires when the act stage executes a countermeasure.
	TriggerAct TriggerKind = "act"
	// TriggerDrift fires on a lifecycle drift detection.
	TriggerDrift TriggerKind = "drift"
	// TriggerRollback fires when a hot-swap is rolled back.
	TriggerRollback TriggerKind = "rollback"
	// TriggerBurnRate fires when the rolling combined F-measure falls
	// below the configured floor with enough resolved predictions — once
	// per crossing, not on every cycle it stays there.
	TriggerBurnRate TriggerKind = "burnrate"
)

// TriggerKinds lists every trigger kind in a stable order (metric
// registration, rendering).
var TriggerKinds = []TriggerKind{TriggerWarn, TriggerAct, TriggerDrift, TriggerRollback, TriggerBurnRate}

// triggerIndex maps a kind to its slot in the recorder's fixed counter
// arrays (-1 for unknown kinds).
func triggerIndex(k TriggerKind) int {
	for i, t := range TriggerKinds {
		if t == k {
			return i
		}
	}
	return -1
}

// RecorderConfig parameterizes a flight recorder. Only Layers is
// mandatory; every correlated source (event log, tracer, ledger,
// diagnoser, lifecycle) is optional and simply absent from bundles when
// nil. Times are in the pipeline's domain clock. The score-history depth
// (32 cycles), the event cap (512 a bundle), the burn-rate warm-up (10
// resolved predictions) and the refractory period (2 × Window) are the
// package's constants.
type RecorderConfig struct {
	// Scope names the recorder (tenant ID in a fleet); folded into bundle
	// IDs so scoped recorders never collide.
	Scope string
	// Layers are the prediction-layer names, in engine order; score
	// history rows and bundle versions are indexed like this.
	Layers []string
	// Window is the pre-trigger capture horizon [s]: a bundle carries the
	// event-log slice and score history from trigger−Window to the
	// trigger (default 600).
	Window float64
	// WarnThreshold gates the warn trigger: the combined decision must
	// warn with at least this confidence (0 fires on every warning).
	WarnThreshold float64
	// BurnRateFloor arms the burn-rate trigger: it fires when the rolling
	// combined F-measure drops below the floor (0 disables).
	BurnRateFloor float64
	// MaxBundles bounds retained bundles; older ones are evicted
	// (default 32).
	MaxBundles int
	// Log is the mirrored event log the bundles slice. The recorder reads
	// it only inside Collect/Flush, which the runtime calls under the
	// evaluation exclusion (or after shutdown), so no extra locking is
	// needed.
	Log *eventlog.Log
	// Tracer correlates bundles with spans: the triggering decision's
	// newest complete trace ID and the slowest retained spans.
	Tracer *Tracer
	// Ledger supplies the burn-rate signal and the quality snapshot
	// embedded in bundles.
	Ledger *Ledger
	// Diagnose maps a captured window to ranked suspects — typically a
	// closure over diagnose.Diagnoser.DiagnoseRange on the same log. Runs
	// inside Collect, under the same exclusion as Log reads.
	Diagnose func(from, to float64) []diagnose.Suspect
	// Lifecycle returns the per-layer lifecycle states for the bundle
	// (a closure over lifecycle.Manager.States; typed any because the
	// lifecycle package layers above obs).
	Lifecycle func() any
	// RuntimeStats embeds a rate-limited memstats/goroutine snapshot in
	// each bundle. Off by default: the snapshot is wall-clock state, so
	// deterministic-replay tests leave it disabled.
	RuntimeStats bool
}

// CycleObservation is the act-stage outcome of one MEA cycle, the
// recorder-visible projection of the engine's decision (obs stays below
// core in the import order).
type CycleObservation struct {
	Warned        bool
	Executed      bool
	Confidence    float64
	Action        string
	LayerVersions []uint64
	// Detail annotates the trigger (fleet runtimes put the tenant here) and
	// tags the observation's score-history row.
	Detail string
}

// FoldFire is one decision trigger of an instant's observations folded into
// an overflow recorder, as their owner tallied them: how many would fire it,
// and the first of them in the owner's order, with its score row.
type FoldFire struct {
	N      int
	Scores []float64
	Obs    CycleObservation
}

// Add merges g, tallied over later observations, into f.
func (f *FoldFire) Add(g FoldFire) {
	if f.N == 0 {
		f.Scores, f.Obs = g.Scores, g.Obs
	}
	f.N += g.N
}

// BundleScore is one retained cycle in a bundle's score history.
type BundleScore struct {
	Time     float64   `json:"time"`
	Scores   []float64 `json:"scores"`
	Versions []uint64  `json:"versions,omitempty"`
}

// RuntimeSnapshot is the rate-limited process state embedded in bundles
// when RecorderConfig.RuntimeStats is set.
type RuntimeSnapshot struct {
	Goroutines   int    `json:"goroutines"`
	HeapAlloc    uint64 `json:"heap_alloc"`
	HeapSys      uint64 `json:"heap_sys"`
	NumGC        uint32 `json:"num_gc"`
	PauseTotalNs uint64 `json:"pause_total_ns"`
}

// IncidentBundle is one self-contained, causally-correlated incident
// capture: the triggering decision, the pre-trigger event window, score
// history, slowest spans, ranked suspects, quality tables and lifecycle
// states, captured inside the lead-time window the prediction bought and
// built into this form when it is first read.
type IncidentBundle struct {
	ID            string      `json:"id"`
	Seq           uint64      `json:"seq"`
	Scope         string      `json:"scope,omitempty"`
	Trigger       TriggerKind `json:"trigger"`
	Time          float64     `json:"time"`
	Detail        string      `json:"detail,omitempty"`
	Confidence    float64     `json:"confidence"`
	Action        string      `json:"action,omitempty"`
	TraceID       uint64      `json:"trace_id,omitempty"`
	Layers        []string    `json:"layers,omitempty"`
	LayerVersions []uint64    `json:"layer_versions,omitempty"`

	EventsFrom  float64          `json:"events_from"`
	EventsTo    float64          `json:"events_to"`
	EventsTotal int              `json:"events_total"` // window population before the recorderMaxEvents cap
	Events      []eventlog.Event `json:"events,omitempty"`

	Scores    []BundleScore      `json:"scores,omitempty"`
	Suspects  []diagnose.Suspect `json:"suspects,omitempty"`
	Spans     []TraceView        `json:"spans,omitempty"`
	Quality   *LedgerSnapshot    `json:"quality,omitempty"`
	Lifecycle any                `json:"lifecycle,omitempty"`
	Runtime   *RuntimeSnapshot   `json:"runtime,omitempty"`

	// CaptureSeconds is the wall time Collect spent capturing the incident
	// (pfm_incident_bundle_seconds); building this bundle from the capture
	// on its first read is not part of it.
	CaptureSeconds float64 `json:"capture_seconds"`
}

// Fingerprint renders the bundle's replay-deterministic content: identity,
// trigger, captured window bounds, suspects, score history and versions.
// Wall-clock fields (trace ID, spans, runtime snapshot, capture duration)
// are deliberately excluded — two replays of the same trace with the same
// config must produce identical fingerprint sets, which is the recorder's
// determinism contract.
func (b *IncidentBundle) Fingerprint() string {
	fp := fmt.Sprintf("%s|%s|%x|%s|%x|%x..%x|%d", b.ID, b.Trigger,
		math.Float64bits(b.Time), b.Detail, math.Float64bits(b.Confidence),
		math.Float64bits(b.EventsFrom), math.Float64bits(b.EventsTo), b.EventsTotal)
	for _, v := range b.LayerVersions {
		fp += fmt.Sprintf("|v%d", v)
	}
	for _, s := range b.Suspects {
		fp += fmt.Sprintf("|%s:%x:%d", s.Component, math.Float64bits(s.Score), s.Events)
	}
	for _, row := range b.Scores {
		fp += fmt.Sprintf("|t%x", math.Float64bits(row.Time))
		for _, s := range row.Scores {
			fp += fmt.Sprintf(",%x", math.Float64bits(s))
		}
	}
	for _, e := range b.Events {
		fp += fmt.Sprintf("|e%x:%s:%d", math.Float64bits(e.Time), e.Component, e.Type)
	}
	return fp
}

// pendingTrigger is one fired trigger awaiting capture at the next
// Collect (which runs under the evaluation exclusion, where the event log
// is safe to read). Its versions buffer is reused by the next trigger that
// takes its place in the pending list.
type pendingTrigger struct {
	kind       TriggerKind
	t          float64
	tag        string // the trigger row's tag: its bundle keeps the rows so tagged
	detail     string
	confidence float64
	action     string
	traceID    uint64
	versions   []uint64
}

// capture is one incident as Collect copied it: everything its bundle
// needs, in buffers the recorder owns. The buffers grow on a slot's first
// use and are reused when the ring comes round to it again; the bundle is
// built from them only when someone reads it.
type capture struct {
	pendingTrigger        // versions is the capture's own copy
	id             uint64 // bundleID's hash, rendered on read
	seq            uint64
	eventsTotal    int
	events         []eventlog.Event
	times          []float64 // kept score rows, oldest first
	scores         []float64 // len(times) rows of nLayers
	vers           []uint64
	spans          []record
	quality        LedgerSnapshot
	suspects       []diagnose.Suspect
	lifecycle      any
	runtime        RuntimeSnapshot
	seconds        float64
	bundle         *IncidentBundle // built on first read, dropped on eviction
}

// Recorder is a prediction-triggered flight recorder: always-on bounded
// ring state (per-layer score history) plus a trigger pipeline that turns
// warnings, act firings, lifecycle drift/rollback and ledger burn-rate
// alarms into incident captures. A capture copies its evidence into a
// ring of MaxBundles slots the recorder reuses; the IncidentBundle is
// built on first read (Bundles, Bundle, subscriber delivery) and kept
// until the slot is reused. The steady-state path (Observe with no
// trigger firing, Collect with nothing pending) allocates nothing, and
// neither does a warmed capture without Diagnose and Lifecycle hooks —
// pinned by TestRecorderSteadyStateZeroAllocs and
// TestRecorderCaptureZeroAllocs.
//
// Concurrency: Observe and TriggerEvent run on the act stage, Collect
// under the runtime's evaluation exclusion, Flush after shutdown; an
// internal mutex serializes them, so the recorder is safe for concurrent
// use from all runtime stages.
type Recorder struct {
	mu  sync.Mutex
	cfg RecorderConfig

	// Score-history ring, flat layer-major rows: row i of
	// recorderScoreDepth holds times[i], scores[i*nLayers:...],
	// versions[i*nLayers:...] and the observation's Detail, tags[i].
	nLayers int
	head    int // next row to write
	count   int // rows filled (≤ recorderScoreDepth)
	times   []float64
	scores  []float64
	vers    []uint64
	tags    []string

	// Trigger state.
	nextAllowed []float64 // per trigger kind, domain time
	burning     bool      // the last Observe saw F below the burn-rate floor
	captured    []int64   // per trigger kind
	suppressed  int64
	pending     []pendingTrigger
	seq         uint64

	// Capture ring: caps grows to MaxBundles, then oldest is the next slot
	// reused.
	caps   []capture
	oldest int
	// unsent counts the newest captures subscribers have not seen; ready
	// holds the built bundles of those evicted before delivery.
	unsent    int
	ready     []*IncidentBundle
	subs      []func(*IncidentBundle)
	onCapture func(seconds float64)
}

// Recorder defaults and constants.
const (
	defaultRecorderWindow     = 600.0
	defaultRecorderMaxBundles = 32
	// recorderScoreDepth is how many recent cycles of per-layer scores the
	// ring retains.
	recorderScoreDepth = 32
	// recorderMaxEvents caps the event-log slice per bundle, keeping the
	// newest events of the window.
	recorderMaxEvents = 512
	// burnRateMinResolved is the minimum resolved predictions in the
	// rolling window before the burn-rate trigger can fire, so an empty
	// ledger does not alarm.
	burnRateMinResolved = 10
	// refractoryWindows is the per-trigger-kind dead time after a capture,
	// in Windows: a flapping predictor yields one bundle per refractory
	// period per kind, the rest count as suppressed.
	refractoryWindows = 2
	// recorderSlowSpans is how many slowest tracer spans a bundle carries.
	recorderSlowSpans = 5
)

// NewRecorder validates the configuration and builds a flight recorder.
func NewRecorder(cfg RecorderConfig) (*Recorder, error) {
	if len(cfg.Layers) == 0 {
		return nil, fmt.Errorf("%w: recorder needs at least one layer", ErrObs)
	}
	bad := func(v float64) bool { return v < 0 || math.IsNaN(v) || math.IsInf(v, 0) }
	if bad(cfg.Window) || bad(cfg.WarnThreshold) || bad(cfg.BurnRateFloor) {
		return nil, fmt.Errorf("%w: recorder window=%g warn=%g floor=%g",
			ErrObs, cfg.Window, cfg.WarnThreshold, cfg.BurnRateFloor)
	}
	if cfg.MaxBundles < 0 {
		return nil, fmt.Errorf("%w: negative recorder bundle cap", ErrObs)
	}
	if cfg.Window == 0 {
		cfg.Window = defaultRecorderWindow
	}
	if cfg.MaxBundles == 0 {
		cfg.MaxBundles = defaultRecorderMaxBundles
	}
	n := len(cfg.Layers)
	r := &Recorder{
		cfg:         cfg,
		nLayers:     n,
		times:       make([]float64, recorderScoreDepth),
		scores:      make([]float64, recorderScoreDepth*n),
		vers:        make([]uint64, recorderScoreDepth*n),
		tags:        make([]string, recorderScoreDepth),
		nextAllowed: make([]float64, len(TriggerKinds)),
		captured:    make([]int64, len(TriggerKinds)),
		pending:     make([]pendingTrigger, 0, 4),
	}
	for i := range r.nextAllowed {
		r.nextAllowed[i] = math.Inf(-1)
	}
	return r, nil
}

// Config returns the recorder's (defaulted) configuration.
func (r *Recorder) Config() RecorderConfig {
	if r == nil {
		return RecorderConfig{}
	}
	return r.cfg
}

// Subscribe registers fn to receive every captured bundle, built for
// delivery (the same bundle Bundles and Bundle return). Callbacks run
// on the act stage (and during Flush), outside the recorder's own lock
// and outside the runtime's state lock — safe to do I/O. Register before
// the pipeline starts.
func (r *Recorder) Subscribe(fn func(*IncidentBundle)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.subs = append(r.subs, fn)
	r.mu.Unlock()
}

// OnCapture registers fn to receive each capture's wall time in seconds
// (IncidentBundle.CaptureSeconds) as Collect or Flush takes it, without a
// bundle being built. fn runs under the recorder's lock: it must be cheap
// and must not call back into the recorder. Register before the pipeline
// starts; a later call replaces fn.
func (r *Recorder) OnCapture(fn func(seconds float64)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onCapture = fn
	r.mu.Unlock()
}

// Observe records one act-stage cycle into the score-history ring and
// runs the decision-driven trigger checks (warn, act, burn-rate). Safe on
// a nil receiver; allocation-free unless a trigger fires.
func (r *Recorder) Observe(now float64, scores []float64, o CycleObservation) {
	if r == nil {
		return
	}
	// The burn-rate signal reads the ledger outside the recorder lock
	// (Ledger has its own); Quality returns its table by value.
	burn := false
	if r.cfg.BurnRateFloor > 0 && r.cfg.Ledger != nil {
		q := r.cfg.Ledger.Quality(CombinedLayer)
		if q.TP+q.FP+q.TN+q.FN >= burnRateMinResolved {
			f := q.FMeasure()
			burn = !math.IsNaN(f) && f < r.cfg.BurnRateFloor
		}
	}
	r.mu.Lock()
	// Ring write: one row per cycle, NaN-padded when the caller scored
	// fewer layers than declared.
	row := r.head * r.nLayers
	r.times[r.head], r.tags[r.head] = now, o.Detail
	for i := 0; i < r.nLayers; i++ {
		if i < len(scores) {
			r.scores[row+i] = scores[i]
		} else {
			r.scores[row+i] = math.NaN()
		}
		if i < len(o.LayerVersions) {
			r.vers[row+i] = o.LayerVersions[i]
		} else {
			r.vers[row+i] = 0
		}
	}
	r.head = (r.head + 1) % recorderScoreDepth
	if r.count < recorderScoreDepth {
		r.count++
	}
	if o.Warned && o.Confidence >= r.cfg.WarnThreshold {
		r.fireLocked(TriggerWarn, now, o)
	}
	if o.Executed {
		r.fireLocked(TriggerAct, now, o)
	}
	if burn && !r.burning {
		r.fireLocked(TriggerBurnRate, now, o)
	}
	r.burning = burn
	if r.unsent == 0 && r.ready == nil { // nothing for subscribers: the common cycle
		r.mu.Unlock()
		return
	}
	ready := r.takeReadyLocked()
	r.mu.Unlock()
	r.deliver(ready)
}

// ObserveFold observes an instant of the scopes folded into this recorder
// once, as their owner tallied it: each decision trigger's first observation
// is observed (one row for both when they are one scope's), and the others,
// which the refractory gate would stop at the same instant, count as
// suppressed. The burn-rate check runs at the instants something fires.
func (r *Recorder) ObserveFold(now float64, warn, act FoldFire) {
	if r == nil {
		return
	}
	one := warn.N > 0 && act.N > 0 && act.Obs.Detail == warn.Obs.Detail
	if warn.N > 0 {
		warn.Obs.Executed = one
		r.Observe(now, warn.Scores, warn.Obs)
	}
	if act.N > 0 && !one {
		act.Obs.Warned = false
		r.Observe(now, act.Scores, act.Obs)
	}
	r.mu.Lock()
	r.suppressed += int64(max(warn.N-1, 0) + max(act.N-1, 0))
	r.mu.Unlock()
}

// TriggerEvent fires an external trigger (lifecycle drift or rollback) at
// domain time t. detail typically names the affected layer.
func (r *Recorder) TriggerEvent(kind TriggerKind, t float64, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.fireLocked(kind, t, CycleObservation{Detail: detail})
	r.mu.Unlock()
}

// fireLocked applies the refractory gate and queues a pending trigger,
// reusing the pending entry's versions buffer. The trigger's row is the
// newest one, which an observation writes before it fires. The caller
// holds r.mu.
func (r *Recorder) fireLocked(kind TriggerKind, t float64, o CycleObservation) {
	ki := triggerIndex(kind)
	if ki < 0 {
		return
	}
	if t < r.nextAllowed[ki] {
		r.suppressed++
		return
	}
	r.nextAllowed[ki] = t + refractoryWindows*r.cfg.Window
	r.pending = slices.Grow(r.pending, 1)[:len(r.pending)+1]
	p := &r.pending[len(r.pending)-1]
	*p = pendingTrigger{
		kind:       kind,
		t:          t,
		tag:        r.tags[(r.head+recorderScoreDepth-1)%recorderScoreDepth],
		detail:     o.Detail,
		confidence: o.Confidence,
		action:     o.Action,
		traceID:    r.cfg.Tracer.NewestCompleteID(),
		versions:   append(p.versions[:0], o.LayerVersions...),
	}
}

// Collect captures every pending trigger. The runtime calls it inside the
// evaluation exclusion (no Apply concurrent), which is what makes the
// event-log reads and the Diagnose callback safe. With nothing pending it
// is a single uncontended lock round-trip — allocation-free.
func (r *Recorder) Collect() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectLocked()
	r.mu.Unlock()
}

// collectLocked drains r.pending into captures. Caller holds r.mu.
func (r *Recorder) collectLocked() {
	for i := range r.pending {
		r.captureLocked(&r.pending[i])
	}
	r.pending = r.pending[:0]
}

// captureLocked copies one incident's evidence into the next capture
// slot. Caller holds r.mu and the pipeline's evaluation exclusion.
func (r *Recorder) captureLocked(p *pendingTrigger) {
	start := time.Now()
	c := r.nextSlotLocked()
	r.seq++
	r.captured[triggerIndex(p.kind)]++ // fireLocked queues known kinds only
	vers := c.versions
	c.pendingTrigger = *p
	c.versions = append(vers[:0], p.versions...)
	c.id, c.seq = bundleID(r.cfg.Scope, p.kind, p.t, r.seq), r.seq
	from := p.t - r.cfg.Window
	c.eventsTotal, c.events = 0, c.events[:0]
	if l := r.cfg.Log; l != nil {
		// The repo-wide now+1e-9 idiom makes the upper bound inclusive; the
		// cap keeps the newest recorderMaxEvents of the window, ties at the
		// cut included.
		lo, hi := l.ScanWindow(from, p.t+1e-9)
		c.eventsTotal = hi - lo
		lo = max(lo, hi-recorderMaxEvents)
		c.events = slices.Grow(c.events, hi-lo)
		for i := lo; i < hi; i++ {
			c.events = append(c.events, l.At(i))
		}
	}
	c.suspects = nil
	if r.cfg.Diagnose != nil {
		c.suspects = r.cfg.Diagnose(from, p.t)
	}
	// Score history: retained rows at or before the trigger tagged like its
	// row, oldest first, in buffers sized for the whole ring on first use.
	n := recorderScoreDepth * r.nLayers
	c.times = slices.Grow(c.times[:0], recorderScoreDepth)
	c.scores, c.vers = slices.Grow(c.scores[:0], n), slices.Grow(c.vers[:0], n)
	for i := 0; i < r.count; i++ {
		idx := r.rowIndex(i)
		if r.times[idx] > p.t || r.tags[idx] != p.tag {
			continue
		}
		row := idx * r.nLayers
		c.times = append(c.times, r.times[idx])
		c.scores = append(c.scores, r.scores[row:row+r.nLayers]...)
		c.vers = append(c.vers, r.vers[row:row+r.nLayers]...)
	}
	c.spans = r.cfg.Tracer.slowestInto(slices.Grow(c.spans[:0], recorderSlowSpans), recorderSlowSpans)
	r.cfg.Ledger.snapshotInto(&c.quality)
	c.lifecycle = nil
	if r.cfg.Lifecycle != nil {
		c.lifecycle = r.cfg.Lifecycle()
	}
	if r.cfg.RuntimeStats {
		c.runtime = ReadRuntimeSnapshot()
	}
	c.seconds = time.Since(start).Seconds()
	if len(r.subs) > 0 {
		r.unsent++
	}
	if r.onCapture != nil {
		r.onCapture(c.seconds)
	}
}

// nextSlotLocked returns the slot the next capture fills: a new one until
// MaxBundles are retained, then the oldest, evicted. An evicted capture
// subscribers have not seen yet is built first, so delivery still sees
// every capture once. Caller holds r.mu.
func (r *Recorder) nextSlotLocked() *capture {
	if len(r.caps) < r.cfg.MaxBundles {
		r.caps = append(r.caps, capture{})
		return &r.caps[len(r.caps)-1]
	}
	c := &r.caps[r.oldest]
	r.oldest = (r.oldest + 1) % len(r.caps)
	if r.unsent == len(r.caps) {
		r.ready = append(r.ready, r.bundleLocked(c))
		r.unsent--
	}
	c.bundle = nil
	return c
}

// at returns the i-th oldest retained capture. Caller holds r.mu.
func (r *Recorder) at(i int) *capture {
	return &r.caps[(r.oldest+i)%len(r.caps)]
}

// bundleLocked returns c's bundle, building it on first read. Caller
// holds r.mu.
func (r *Recorder) bundleLocked(c *capture) *IncidentBundle {
	if c.bundle == nil {
		c.bundle = r.build(c)
	}
	return c.bundle
}

// build renders a capture as a bundle that shares no storage with the
// recorder (the slot's buffers are reused once it is evicted). A field is
// nil exactly when its source is not configured or, for versions and
// score history, when there is nothing to carry. Caller holds r.mu.
func (r *Recorder) build(c *capture) *IncidentBundle {
	b := &IncidentBundle{
		ID:             fmt.Sprintf("%016x", c.id),
		Seq:            c.seq,
		Scope:          r.cfg.Scope,
		Trigger:        c.kind,
		Time:           c.t,
		Detail:         c.detail,
		Confidence:     c.confidence,
		Action:         c.action,
		TraceID:        c.traceID,
		Layers:         r.cfg.Layers,
		EventsFrom:     c.t - r.cfg.Window,
		EventsTo:       c.t,
		EventsTotal:    c.eventsTotal,
		Suspects:       c.suspects,
		Lifecycle:      c.lifecycle,
		CaptureSeconds: c.seconds,
	}
	if len(c.versions) > 0 {
		b.LayerVersions = slices.Clone(c.versions)
	}
	if r.cfg.Log != nil {
		b.Events = make([]eventlog.Event, len(c.events))
		copy(b.Events, c.events)
	}
	// One allocation a column; a row's slices are clipped to their length,
	// so appending to one cannot reach the next row.
	if k := len(c.times); k > 0 {
		n := r.nLayers
		scores, vers := slices.Clone(c.scores), slices.Clone(c.vers)
		b.Scores = make([]BundleScore, k)
		for i := range b.Scores {
			lo, hi := i*n, (i+1)*n
			b.Scores[i] = BundleScore{Time: c.times[i], Scores: scores[lo:hi:hi], Versions: vers[lo:hi:hi]}
		}
	}
	if r.cfg.Tracer != nil {
		b.Spans = make([]TraceView, len(c.spans))
		for i := range c.spans {
			b.Spans[i] = c.spans[i].view()
		}
	}
	if r.cfg.Ledger != nil {
		q := c.quality
		q.Layers = make([]LayerQuality, len(c.quality.Layers))
		copy(q.Layers, c.quality.Layers)
		b.Quality = &q
	}
	if r.cfg.RuntimeStats {
		rs := c.runtime
		b.Runtime = &rs
	}
	return b
}

// rowIndex returns the ring position of the i-th oldest retained score row.
func (r *Recorder) rowIndex(i int) int {
	return (r.head - r.count + i + recorderScoreDepth) % recorderScoreDepth
}

// takeReadyLocked builds the bundles subscribers have not seen, oldest
// first, and hands them to the caller (which must deliver them outside the
// lock). Caller holds r.mu.
func (r *Recorder) takeReadyLocked() []*IncidentBundle {
	for i := len(r.caps) - r.unsent; i < len(r.caps); i++ {
		r.ready = append(r.ready, r.bundleLocked(r.at(i)))
	}
	r.unsent = 0
	if len(r.ready) == 0 {
		return nil
	}
	ready := r.ready
	r.ready = nil
	return ready
}

// deliver invokes the subscribers for each bundle, outside every lock.
func (r *Recorder) deliver(bundles []*IncidentBundle) {
	if len(bundles) == 0 {
		return
	}
	r.mu.Lock()
	subs := r.subs
	r.mu.Unlock()
	for _, b := range bundles {
		for _, fn := range subs {
			fn(b)
		}
	}
}

// Flush captures any still-pending triggers and delivers undelivered
// bundles. The runtime calls it during Stop, after the pipeline has
// quiesced (no concurrent Apply), so the log reads are safe.
func (r *Recorder) Flush() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectLocked()
	ready := r.takeReadyLocked()
	r.mu.Unlock()
	r.deliver(ready)
}

// Bundles returns the retained bundles, oldest first. A bundle is built
// on its first read and the same one is returned until its capture is
// evicted; it never changes after it is handed out.
func (r *Recorder) Bundles() []*IncidentBundle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.caps) == 0 {
		return nil
	}
	out := make([]*IncidentBundle, len(r.caps))
	for i := range out {
		out[i] = r.bundleLocked(r.at(i))
	}
	return out
}

// Bundle returns the retained bundle with the given ID (nil if evicted or
// never captured).
func (r *Recorder) Bundle(id string) *IncidentBundle {
	if r == nil {
		return nil
	}
	h, ok := parseBundleID(id)
	if !ok {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.caps {
		if c := r.at(i); c.id == h {
			return r.bundleLocked(c)
		}
	}
	return nil
}

// Captured returns how many bundles the given trigger kind has produced.
func (r *Recorder) Captured(kind TriggerKind) int64 {
	if r == nil {
		return 0
	}
	ki := triggerIndex(kind)
	if ki < 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.captured[ki]
}

// Suppressed returns how many triggers the refractory gate swallowed.
func (r *Recorder) Suppressed() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.suppressed
}

// Pending returns how many fired triggers await capture.
func (r *Recorder) Pending() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// bundleID derives the deterministic bundle identity: FNV-1a 64 over the
// scope, trigger kind, trigger-time bits and capture sequence number,
// rendered as 16 lowercase hex digits in IncidentBundle.ID. Replaying the
// same trace with the same config reproduces the same IDs.
func bundleID(scope string, kind TriggerKind, t float64, seq uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // terminator so ("ab","c") != ("a","bc")
		h *= prime64
	}
	mix(scope)
	mix(string(kind))
	for bits, i := math.Float64bits(t), 0; i < 8; i++ {
		h ^= bits >> (8 * i) & 0xff
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= seq >> (8 * i) & 0xff
		h *= prime64
	}
	return h
}

// parseBundleID inverts the ID rendering: exactly 16 lowercase hex
// digits, or not a bundle ID.
func parseBundleID(id string) (uint64, bool) {
	if len(id) != 16 {
		return 0, false
	}
	var h uint64
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case '0' <= c && c <= '9':
			h = h<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			h = h<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return h, true
}

// runtimeSnapCache is the process's one rate-limited ReadMemStats: bundle
// captures and every registry's pfm_go_* gauges read it, so a capture
// storm and a scrape storm together stop the world at most once per TTL.
var runtimeSnapCache struct {
	mu   sync.Mutex
	at   time.Time
	snap RuntimeSnapshot
}

// runtimeSnapTTL is the snapshot cache lifetime.
const runtimeSnapTTL = 500 * time.Millisecond

// ReadRuntimeSnapshot returns the process snapshot, read at most
// runtimeSnapTTL ago.
func ReadRuntimeSnapshot() RuntimeSnapshot {
	c := &runtimeSnapCache
	c.mu.Lock()
	defer c.mu.Unlock()
	if now := time.Now(); now.Sub(c.at) > runtimeSnapTTL {
		var ms stdruntime.MemStats
		stdruntime.ReadMemStats(&ms)
		c.snap = RuntimeSnapshot{
			Goroutines:   stdruntime.NumGoroutine(),
			HeapAlloc:    ms.HeapAlloc,
			HeapSys:      ms.HeapSys,
			NumGC:        ms.NumGC,
			PauseTotalNs: ms.PauseTotalNs,
		}
		c.at = now
	}
	return c.snap
}
