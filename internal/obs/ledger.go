package obs

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/predict"
)

// ErrObs is wrapped by all package errors.
var ErrObs = errors.New("obs: invalid operation")

// CombinedLayer is the ledger's pseudo-layer for the engine's cross-layer
// decision (the Act stage's combined warning), next to the per-layer
// predictions.
const CombinedLayer = "combined"

// LedgerConfig parameterizes the prediction-quality ledger. Times are in
// the domain clock of the pipeline (simulation or epoch seconds).
type LedgerConfig struct {
	// LeadTime Δtl is the anticipated time-to-failure of a prediction [s].
	LeadTime float64
	// Slack Δtp widens the matching window: a prediction at time t is a
	// positive match iff a failure occurs in (t, t+LeadTime+Slack] — the
	// Sect. 3.3 contingency rule, identical to the offline evaluator's
	// grid labeling in internal/experiments.
	Slack float64
	// Window is the rolling horizon of the live quality gauges [s],
	// keyed by prediction time; 0 keeps rolling == cumulative.
	Window float64
}

// validate rejects unusable configurations.
func (c LedgerConfig) validate() error {
	bad := func(v float64) bool { return v < 0 || math.IsNaN(v) || math.IsInf(v, 0) }
	if bad(c.LeadTime) || bad(c.Slack) || bad(c.Window) {
		return fmt.Errorf("%w: ledger lead=%g slack=%g window=%g", ErrObs, c.LeadTime, c.Slack, c.Window)
	}
	return nil
}

// bucket is the run of predictions one layer journaled at one instant: pos
// of them warned, neg did not. A thousand folded tenants journaling the same
// cycle are one bucket, classified once.
type bucket struct {
	t        float64
	pos, neg int
}

// addTo adds sign × the bucket's rows to c, classified against whether a
// failure fell inside the bucket's matching window.
func (b bucket) addTo(c *predict.ContingencyTable, failed bool, sign int) {
	tableAdd(c, predict.Classify(true, failed), sign*b.pos)
	tableAdd(c, predict.Classify(false, failed), sign*b.neg)
}

// resolvedBucket is one classified bucket retained for the rolling window,
// keyed by prediction time.
type resolvedBucket struct {
	bucket
	failed bool
}

// layerLedger is one layer's journal and contingency accounting.
type layerLedger struct {
	name       string
	pending    []bucket // journaling order; a row joins the newest bucket or opens one
	recent     []resolvedBucket
	rolling    predict.ContingencyTable
	cumulative predict.ContingencyTable
}

// Ledger journals per-layer predictions and observed ground-truth failures
// and resolves them into Sect. 3.3 contingency tables once the matching
// window of each prediction has fully elapsed. Safe for concurrent use.
type Ledger struct {
	mu        sync.Mutex
	cfg       LedgerConfig
	order     []string
	layers    map[string]*layerLedger
	failures  []float64 // sorted ascending
	watermark float64   // ground truth is complete up to here
	recorded  int64     // predictions journaled
	failSeen  int64     // failures journaled
}

// NewLedger builds a ledger. Layer names given here are pre-declared so
// their quality gauges can be registered before any prediction arrives
// (the CombinedLayer is always declared); layers seen later in
// RecordPrediction are added on the fly.
func NewLedger(cfg LedgerConfig, layerNames ...string) (*Ledger, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l := &Ledger{cfg: cfg, layers: make(map[string]*layerLedger)}
	for _, name := range layerNames {
		l.layer(name)
	}
	l.layer(CombinedLayer)
	return l, nil
}

// layer returns the named layer ledger, creating it on first use. The
// caller holds l.mu (or is the constructor).
func (l *Ledger) layer(name string) *layerLedger {
	ll, ok := l.layers[name]
	if !ok {
		ll = &layerLedger{name: name}
		l.layers[name] = ll
		l.order = append(l.order, name)
	}
	return ll
}

// Layers returns the declared layer names in registration order.
func (l *Ledger) Layers() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.order...)
}

// RecordPrediction journals one layer's thresholded prediction emitted at
// time t. Call once per layer per MEA cycle; abstaining layers (NaN
// scores) should simply not be recorded. It is the one-row case of
// RecordPredictions: the journal keeps the verdict and nothing else.
func (l *Ledger) RecordPrediction(layer string, t float64, predicted bool, confidence float64) {
	pos := 0
	if predicted {
		pos = 1
	}
	l.RecordPredictions(layer, t, pos, 1-pos)
}

// RecordPredictions journals pos warning and neg non-warning predictions of
// one layer, all emitted at time t — what a journal shared by many sources
// (a fleet's overflow scope) receives in one cycle. Rows at the newest
// bucket's instant join it; any other t opens a bucket, so out-of-order and
// alternating times cost a bucket each and nothing else.
func (l *Ledger) RecordPredictions(layer string, t float64, pos, neg int) {
	if l == nil || pos+neg == 0 {
		return
	}
	l.mu.Lock()
	ll := l.layer(layer)
	if k := len(ll.pending) - 1; k >= 0 && ll.pending[k].t == t {
		ll.pending[k].pos += pos
		ll.pending[k].neg += neg
	} else {
		ll.pending = append(ll.pending, bucket{t: t, pos: pos, neg: neg})
	}
	l.recorded += int64(pos + neg)
	l.mu.Unlock()
}

// RecordFailure journals one observed ground-truth failure (Eq. 2
// violation on the mirrored stream) at time t.
func (l *Ledger) RecordFailure(t float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.failSeen++
	if n := len(l.failures); n == 0 || l.failures[n-1] <= t {
		l.failures = append(l.failures, t)
	} else {
		i := sort.SearchFloat64s(l.failures, t)
		l.failures = append(l.failures, 0)
		copy(l.failures[i+1:], l.failures[i:])
		l.failures[i] = t
	}
	l.mu.Unlock()
}

// Advance declares ground truth complete up to time now and resolves every
// pending prediction whose matching window has fully elapsed
// (t + LeadTime + Slack ≤ now) into its TP/FP/TN/FN outcome — a bucket at a
// time, so the cost follows the instants inside the window, not the rows. It
// also evicts rolling-window entries older than now − Window and prunes
// failures no live prediction can still match.
func (l *Ledger) Advance(now float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if now > l.watermark {
		l.watermark = now
	}
	horizon := l.cfg.LeadTime + l.cfg.Slack
	for _, name := range l.order {
		ll := l.layers[name]
		kept := ll.pending[:0]
		for _, b := range ll.pending {
			if b.t+horizon > l.watermark {
				kept = append(kept, b)
				continue
			}
			failed := predict.FailureIn(l.failures, b.t, b.t+horizon)
			b.addTo(&ll.cumulative, failed, 1)
			if l.cfg.Window > 0 {
				ll.recent = append(ll.recent, resolvedBucket{b, failed})
				b.addTo(&ll.rolling, failed, 1)
			}
		}
		ll.pending = kept
		if l.cfg.Window > 0 {
			cut := 0
			for cut < len(ll.recent) && ll.recent[cut].t < l.watermark-l.cfg.Window {
				r := ll.recent[cut]
				r.addTo(&ll.rolling, r.failed, -1)
				cut++
			}
			if cut > 0 {
				ll.recent = append(ll.recent[:0], ll.recent[cut:]...)
			}
		} else {
			ll.rolling = ll.cumulative
		}
	}
	// A failure can only matter to predictions made within `horizon` before
	// it; keep one extra horizon of history for late (out-of-order) records.
	cut := sort.SearchFloat64s(l.failures, l.watermark-2*horizon)
	if cut > 0 {
		l.failures = append(l.failures[:0], l.failures[cut:]...)
	}
}

// tableAdd bumps one cell of a contingency table by delta.
func tableAdd(c *predict.ContingencyTable, o predict.Outcome, delta int) {
	switch o {
	case predict.TruePositive:
		c.TP += delta
	case predict.FalsePositive:
		c.FP += delta
	case predict.TrueNegative:
		c.TN += delta
	case predict.FalseNegative:
		c.FN += delta
	}
}

// Quality returns the named layer's rolling-window contingency table (the
// cumulative table when no window is configured). Unknown layers return an
// empty table.
func (l *Ledger) Quality(layer string) predict.ContingencyTable {
	if l == nil {
		return predict.ContingencyTable{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if ll, ok := l.layers[layer]; ok {
		return ll.rolling
	}
	return predict.ContingencyTable{}
}

// Cumulative returns the named layer's all-time contingency table.
func (l *Ledger) Cumulative(layer string) predict.ContingencyTable {
	if l == nil {
		return predict.ContingencyTable{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if ll, ok := l.layers[layer]; ok {
		return ll.cumulative
	}
	return predict.ContingencyTable{}
}

// LayerQuality is one layer's entry in a ledger snapshot.
type LayerQuality struct {
	Layer      string
	Rolling    predict.ContingencyTable
	Cumulative predict.ContingencyTable
	Pending    int // journaled predictions whose window has not elapsed
}

// LedgerSnapshot is a consistent copy of the ledger state.
type LedgerSnapshot struct {
	LeadTime    float64
	Slack       float64
	Window      float64
	Watermark   float64
	Predictions int64 // total journaled
	Failures    int64 // total journaled
	Layers      []LayerQuality
}

// Snapshot copies the full ledger state under one lock.
func (l *Ledger) Snapshot() LedgerSnapshot {
	var snap LedgerSnapshot
	l.snapshotInto(&snap)
	return snap
}

// snapshotInto is Snapshot into storage the caller reuses: snap's Layers
// keep their backing array when it is large enough, so a warmed call
// allocates nothing. A nil ledger leaves snap empty.
func (l *Ledger) snapshotInto(snap *LedgerSnapshot) {
	layers := snap.Layers[:0]
	if l == nil {
		*snap = LedgerSnapshot{Layers: layers}
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// l.order always holds CombinedLayer, so a fresh snap gets an array here.
	if cap(layers) < len(l.order) {
		layers = make([]LayerQuality, 0, len(l.order))
	}
	for _, name := range l.order {
		ll := l.layers[name]
		rows := 0
		for _, b := range ll.pending {
			rows += b.pos + b.neg
		}
		layers = append(layers, LayerQuality{
			Layer:      name,
			Rolling:    ll.rolling,
			Cumulative: ll.cumulative,
			Pending:    rows,
		})
	}
	*snap = LedgerSnapshot{
		LeadTime:    l.cfg.LeadTime,
		Slack:       l.cfg.Slack,
		Window:      l.cfg.Window,
		Watermark:   l.watermark,
		Predictions: l.recorded,
		Failures:    l.failSeen,
		Layers:      layers,
	}
}
