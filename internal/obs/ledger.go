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

// count is one row's predictions at one instant: pos of them warned, neg
// did not. A thousand folded tenants journaling the same cycle are one
// count, classified once. It counts the sources journaling one row at one
// instant, so 32 bits hold it, and the pending list takes half the memory
// it would at 64.
type count struct{ pos, neg int32 }

// addTo adds sign × c's predictions to tab, classified against whether a
// failure fell inside their matching window.
func (c count) addTo(tab *predict.ContingencyTable, failed bool, sign int) {
	tableAdd(tab, predict.Classify(true, failed), sign*int(c.pos))
	tableAdd(tab, predict.Classify(false, failed), sign*int(c.neg))
}

// resolved is one row's classified count at one instant, retained for the
// rolling window, keyed by prediction time.
type resolved struct {
	t float64
	count
	failed bool
}

// row is one ledger row's accounting: a layer, a shadow-candidate row or
// CombinedLayer.
type row struct {
	name       string
	pending    int        // journaled predictions not yet resolved
	recent     []resolved // resolution order; Window > 0 only
	rolling    predict.ContingencyTable
	cumulative predict.ContingencyTable
}

// RowCount is one row's verdicts in a decision booked by Ledger.Book: Pos
// warning and Neg non-warning predictions of the row Ledger.Row numbered,
// one per source journaling it (a fleet's folded tenants are many sources):
// one row's count at one instant stays below 2^31.
type RowCount struct {
	Row      int
	Pos, Neg int
}

// Ledger journals per-row predictions and observed ground-truth failures
// and resolves them into Sect. 3.3 contingency tables once the matching
// window of each prediction has fully elapsed. Safe for concurrent use.
//
// Rows are numbered in registration order. The pending predictions of all
// rows share one list of instants in journaling order: times[i] is an
// instant and counts[i*len(rows):][:len(rows)] every row's predictions at
// it, for i from head on. A row joins the newest instant when it has the
// same t and opens one otherwise, so a decision's rows — layers,
// candidates, combined — are one instant, classified once.
type Ledger struct {
	mu     sync.Mutex
	cfg    LedgerConfig
	rows   []row
	index  map[string]int
	times  []float64
	counts []count
	head   int
	// sorted says each instant's t is at least the one before it (a NaN,
	// which resolves at once, can only lead), so the instants an advance
	// resolves are a prefix of the list.
	sorted    bool
	failures  []float64 // sorted ascending
	watermark float64   // ground truth is complete up to here
	recorded  int64     // predictions journaled
	failSeen  int64     // failures journaled
}

// NewLedger builds a ledger. Layer names given here are pre-declared so
// their quality gauges can be registered before any prediction arrives
// (the CombinedLayer is always declared); rows seen later are added on the
// fly.
func NewLedger(cfg LedgerConfig, layerNames ...string) (*Ledger, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l := &Ledger{cfg: cfg, index: make(map[string]int), sorted: true}
	for _, name := range layerNames {
		l.rowLocked(name)
	}
	l.rowLocked(CombinedLayer)
	return l, nil
}

// Row returns the named row's number, registering the row on first use.
// Numbers never change, so a caller that books every cycle resolves its
// rows once.
func (l *Ledger) Row(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rowLocked(name)
}

// rowLocked is Row for a caller that holds l.mu (or the constructor). A
// new row widens every pending instant by one zero count.
func (l *Ledger) rowLocked(name string) int {
	if r, ok := l.index[name]; ok {
		return r
	}
	r := len(l.rows)
	l.rows = append(l.rows, row{name: name})
	l.index[name] = r
	if cap(l.times) > 0 {
		l.moveLocked(r, r+1, cap(l.times))
	}
	return r
}

// moveLocked moves the pending instants to the front of the list, laid out
// at stride to instead of from: into new storage for size instants when the
// list grows or the stride changes, in place otherwise. Every list storage
// comes from here, so counts always has room for cap(times) instants.
// Caller holds l.mu.
func (l *Ledger) moveLocked(from, to, size int) {
	times, counts := l.times[:0], l.counts[:0]
	if size > cap(l.times) || to != from {
		times, counts = make([]float64, 0, size), make([]count, 0, size*to)
	}
	for i := l.head; i < len(l.times); i++ {
		times = append(times, l.times[i])
		counts = append(counts, l.counts[i*from:(i+1)*from]...)
		counts = counts[:len(counts)+to-from] // a new row's zero count
	}
	l.times, l.counts, l.head = times, counts, 0
}

// Layers returns the declared row names in registration order.
func (l *Ledger) Layers() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, len(l.rows))
	for r := range l.rows {
		names[r] = l.rows[r].name
	}
	return names
}

// RecordPrediction journals one layer's thresholded prediction emitted at
// time t. Abstaining layers (NaN scores) should simply not be recorded. It
// is the one-row case of RecordPredictions: the journal keeps the verdict
// and nothing else. A caller that journals a whole decision every cycle
// books it with Book instead.
func (l *Ledger) RecordPrediction(layer string, t float64, predicted bool, confidence float64) {
	pos := 0
	if predicted {
		pos = 1
	}
	l.RecordPredictions(layer, t, pos, 1-pos)
}

// RecordPredictions journals pos warning and neg non-warning predictions of
// one layer, all emitted at time t. Rows at the newest instant's t join it;
// any other t opens an instant, so out-of-order and alternating times cost
// an instant each and nothing else.
func (l *Ledger) RecordPredictions(layer string, t float64, pos, neg int) {
	if l == nil || pos+neg == 0 {
		return
	}
	l.mu.Lock()
	l.bookLocked(t, []RowCount{{Row: l.rowLocked(layer), Pos: pos, Neg: neg}})
	l.mu.Unlock()
}

// Book journals one decision taken at time t — its rows' verdicts, each
// row numbered by Row — and then declares ground truth complete up to now,
// as Advance does: one lock round for the whole decision. A row with no
// predictions is skipped.
func (l *Ledger) Book(t float64, rows []RowCount, now float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.bookLocked(t, rows)
	l.advanceLocked(now)
	l.mu.Unlock()
}

// bookLocked journals rows' predictions at t, skipping rows with none.
// Caller holds l.mu.
func (l *Ledger) bookLocked(t float64, rows []RowCount) {
	var at []count // opened by the first row with predictions
	for _, rc := range rows {
		if rc.Pos+rc.Neg == 0 {
			continue
		}
		if at == nil {
			at = l.instantLocked(t)
		}
		at[rc.Row].pos += int32(rc.Pos)
		at[rc.Row].neg += int32(rc.Neg)
		l.rows[rc.Row].pending += rc.Pos + rc.Neg
		l.recorded += int64(rc.Pos + rc.Neg)
	}
}

// instantLocked returns every row's counts at the newest pending instant if
// its t is t, or at a new instant t opens. Caller holds l.mu.
func (l *Ledger) instantLocked(t float64) []count {
	stride := len(l.rows)
	n := len(l.times)
	if n > 0 && l.times[n-1] == t {
		return l.counts[(n-1)*stride : n*stride]
	}
	if n > 0 && !(t >= l.times[n-1]) {
		l.sorted = false
	}
	if n == cap(l.times) {
		// Full: reuse the resolved front once it is a quarter of the list,
		// so the list stays near its live instants; grow otherwise.
		size := max(2*n, 4)
		if l.head > 0 && 4*l.head >= n {
			size = n
		}
		l.moveLocked(stride, stride, size)
	}
	l.times = append(l.times, t)
	l.counts = l.counts[:len(l.counts)+stride]
	at := l.counts[len(l.counts)-stride:]
	clear(at)
	return at
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
// (t + LeadTime + Slack ≤ now) into its TP/FP/TN/FN outcome — an instant at
// a time, so the cost follows the instants inside the window, not the rows.
// It also evicts rolling-window entries older than now − Window and prunes
// failures no live prediction can still match.
func (l *Ledger) Advance(now float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.advanceLocked(now)
	l.mu.Unlock()
}

// advanceLocked is Advance under l.mu. In-order instants resolve as a
// prefix; after an out-of-order t the whole list is scanned, keeping the
// survivors in journaling order, until it is in order again.
func (l *Ledger) advanceLocked(now float64) {
	if now > l.watermark {
		l.watermark = now
	}
	horizon := l.cfg.LeadTime + l.cfg.Slack
	stride, n := len(l.rows), len(l.times)
	if l.sorted {
		for l.head < n && !(l.times[l.head]+horizon > l.watermark) {
			l.resolveLocked(l.head, horizon)
			l.head++
		}
	} else {
		l.sorted = true
		kept := 0
		for i := l.head; i < n; i++ {
			if t := l.times[i]; !(t+horizon > l.watermark) {
				l.resolveLocked(i, horizon)
				continue
			}
			if kept > 0 && !(l.times[i] >= l.times[kept-1]) {
				l.sorted = false
			}
			l.times[kept] = l.times[i]
			copy(l.counts[kept*stride:(kept+1)*stride], l.counts[i*stride:])
			kept++
		}
		l.times, l.counts, l.head = l.times[:kept], l.counts[:kept*stride], 0
	}
	if l.head == len(l.times) {
		l.times, l.counts, l.head = l.times[:0], l.counts[:0], 0
	}
	if l.cfg.Window > 0 {
		for r := range l.rows {
			rw := &l.rows[r]
			cut := 0
			for cut < len(rw.recent) && rw.recent[cut].t < l.watermark-l.cfg.Window {
				e := rw.recent[cut]
				e.addTo(&rw.rolling, e.failed, -1)
				cut++
			}
			if cut > 0 {
				rw.recent = append(rw.recent[:0], rw.recent[cut:]...)
			}
		}
	}
	// A failure can only matter to predictions made within `horizon` before
	// it; keep one extra horizon of history for late (out-of-order) records.
	if cut := sort.SearchFloat64s(l.failures, l.watermark-2*horizon); cut > 0 {
		l.failures = append(l.failures[:0], l.failures[cut:]...)
	}
}

// resolveLocked classifies pending instant i once and adds each row's
// counts at it to that row's tables. Caller holds l.mu.
func (l *Ledger) resolveLocked(i int, horizon float64) {
	t := l.times[i]
	failed := predict.FailureIn(l.failures, t, t+horizon)
	warned, quiet := predict.Classify(true, failed), predict.Classify(false, failed)
	stride := len(l.rows)
	for r, c := range l.counts[i*stride : (i+1)*stride] {
		if c == (count{}) {
			continue
		}
		rw := &l.rows[r]
		rw.pending -= int(c.pos + c.neg)
		tableAdd(&rw.cumulative, warned, int(c.pos))
		tableAdd(&rw.cumulative, quiet, int(c.neg))
		if l.cfg.Window > 0 {
			rw.recent = append(rw.recent, resolved{t, c, failed})
			c.addTo(&rw.rolling, failed, 1)
		}
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
	if r, ok := l.index[layer]; ok {
		return l.rollingLocked(r)
	}
	return predict.ContingencyTable{}
}

// rollingLocked is row r's rolling table: its cumulative one when no window
// is configured. Caller holds l.mu.
func (l *Ledger) rollingLocked(r int) predict.ContingencyTable {
	if l.cfg.Window > 0 {
		return l.rows[r].rolling
	}
	return l.rows[r].cumulative
}

// Cumulative returns the named layer's all-time contingency table.
func (l *Ledger) Cumulative(layer string) predict.ContingencyTable {
	if l == nil {
		return predict.ContingencyTable{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if r, ok := l.index[layer]; ok {
		return l.rows[r].cumulative
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
	// l.rows always holds CombinedLayer, so a fresh snap gets an array here.
	if cap(layers) < len(l.rows) {
		layers = make([]LayerQuality, 0, len(l.rows))
	}
	for r := range l.rows {
		layers = append(layers, LayerQuality{
			Layer:      l.rows[r].name,
			Rolling:    l.rollingLocked(r),
			Cumulative: l.rows[r].cumulative,
			Pending:    l.rows[r].pending,
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
