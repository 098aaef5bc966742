package runtime

import (
	"math"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/obs"
)

// ActTail is what follows one cross-layer decision, for one engine: the
// journal rows, the lifecycle observation and the flight-recorder
// observation. Runtime has one; fleet.Fleet has one per tenant. Every field
// but Layers is optional.
type ActTail struct {
	Layers []*core.Layer
	// Ledger journals the combined decision under obs.CombinedLayer, and with
	// JournalLayers also every non-abstaining layer score and every shadow
	// candidate (under its "<layer>#candidate" row, which is what lets the
	// lifecycle compare a candidate to its incumbent), and moves its
	// watermark to the cycle's domain time before Lifecycle and Recorder
	// observe the cycle (a recorder's burn-rate trigger reads the quality
	// that resolves). It is a journal this tail alone writes predictions to:
	// a fleet sets it for tenants with a dedicated ledger scope only, and
	// books and advances its overflow journal itself.
	Ledger        *obs.Ledger
	JournalLayers bool
	// Fold names the shared overflow sinks the tail's decision goes to in
	// place of its own Ledger or Recorder (a fleet's overflow ledger scope
	// and overflow recorder, past their cardinality caps): the cycle counts
	// the seat into the instant's Fold, which its owner hands each sink once
	// (CycleCore.Finish), so no two workers meet on a shared sink.
	Fold      struct{ Journal, Recorder bool }
	Lifecycle *lifecycle.Manager
	Recorder  *obs.Recorder
	// Detail labels the recorder's observations (a fleet's tenant ID).
	Detail string

	journal *journalRows // built by the first Journal: a fleet's folded tails have no Ledger
}

// journalRows is ActTail's ledger bookkeeping: Ledger's row numbers,
// each resolved once, and the decision's verdicts.
type journalRows struct {
	led      *obs.Ledger
	layers   []int // Ledger.Row of each of Layers, with JournalLayers
	combined int
	cands    []candRow
	verdicts []obs.RowCount
}

// candRow is a shadow candidate's ledger row number.
type candRow struct {
	name string
	row  int
}

// WireTriggers subscribes the recorder's drift and rollback triggers to the
// lifecycle. Both events originate in ObserveCycle, inside the cycle, so
// they are replay-stable triggers; retrain-done is wall-clock timed and
// deliberately not wired.
func (t *ActTail) WireTriggers() {
	if t.Lifecycle == nil || t.Recorder == nil {
		return
	}
	rec := t.Recorder
	t.Lifecycle.Subscribe(func(e lifecycle.Event) {
		switch e.Type {
		case lifecycle.EventDrift:
			rec.TriggerEvent(obs.TriggerDrift, e.Time, e.Layer)
		case lifecycle.EventRolledBack:
			rec.TriggerEvent(obs.TriggerRollback, e.Time, e.Layer)
		}
	})
}

// Journal runs the first half of the tail for the decision d taken at domain
// time now on scores (indexed like Layers; NaN abstained), with the cycle's
// shadow-candidate scores: the journal rows (layers, candidates, combined),
// then the watermark, booked in one Ledger.Book call. The feeder of
// Ledger.RecordFailure must keep failures current up to the domain clock.
// Observe is the second half. The order carries the determinism contracts:
// Lifecycle.ObserveCycle's promotion and rollback verdicts read the ledger
// quality these rows just changed, and the recorder runs last, so a cycle's
// drift/rollback triggers precede its decision triggers in the refractory
// accounting.
func (t *ActTail) Journal(now float64, scores []float64, cands []lifecycle.CandidateScore, d core.Decision) {
	led := t.Ledger
	if led == nil {
		return
	}
	j := t.journal
	if j == nil || j.led != led {
		j = &journalRows{
			led: led, layers: make([]int, len(t.Layers)), combined: led.Row(obs.CombinedLayer),
			verdicts: make([]obs.RowCount, 0, len(t.Layers)+1),
		}
		if t.JournalLayers {
			for i, l := range t.Layers {
				j.layers[i] = led.Row(l.Name)
			}
		}
		t.journal = j
	}
	v := j.verdicts[:0]
	if t.JournalLayers {
		for i, l := range t.Layers {
			if i < len(scores) && !math.IsNaN(scores[i]) {
				v = append(v, verdict(j.layers[i], scores[i] >= l.Threshold))
			}
		}
		for _, c := range cands {
			// A candidate whose evaluation errored abstains, like a NaN
			// layer score.
			if c.Err == nil {
				v = append(v, verdict(j.candRow(c.Name), c.Score >= c.Threshold))
			}
		}
	}
	v = append(v, verdict(j.combined, d.Warned))
	led.Book(now, v, now)
	j.verdicts = v
}

// candRow returns the named candidate's ledger row number, registering the
// row the first time the candidate is journaled.
func (j *journalRows) candRow(name string) int {
	for _, c := range j.cands {
		if c.name == name {
			return c.row
		}
	}
	r := j.led.Row(name)
	j.cands = append(j.cands, candRow{name, r})
	return r
}

// verdict is one prediction of ledger row r.
func verdict(r int, warned bool) obs.RowCount {
	if warned {
		return obs.RowCount{Row: r, Pos: 1}
	}
	return obs.RowCount{Row: r, Neg: 1}
}

// Observe runs the second half of the tail, after Journal: the lifecycle's
// cycle observation, then the recorder's. The caller completes the cycle's
// traces first, so a firing trigger correlates with this cycle's newest span.
func (t *ActTail) Observe(now float64, scores []float64, d core.Decision) {
	if t.Lifecycle != nil {
		t.Lifecycle.ObserveCycle(now, scores)
	}
	t.Recorder.Observe(now, scores, t.observation(d))
}

// observation is the decision d as the recorder sees it.
func (t *ActTail) observation(d core.Decision) obs.CycleObservation {
	return obs.CycleObservation{
		Warned:        d.Warned,
		Executed:      d.Executed,
		Confidence:    d.Confidence,
		Action:        d.ActionName,
		LayerVersions: d.LayerVersions,
		Detail:        t.Detail,
	}
}
