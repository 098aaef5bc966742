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
	// lifecycle compare a candidate to its incumbent). It is a journal this
	// tail alone writes predictions to: a fleet sets it for tenants with a
	// dedicated ledger scope only, and journals the tenants folded into the
	// overflow scope itself, one bucket a cycle.
	Ledger        *obs.Ledger
	JournalLayers bool
	// Advance moves Ledger's ground-truth watermark to the cycle's domain
	// time before Lifecycle observes it. A fleet leaves it off and advances
	// all its scopes together after the act fan-out and the overflow bucket.
	// The feeder of Ledger.RecordFailure must keep failures current up to the
	// domain clock either way.
	Advance   bool
	Lifecycle *lifecycle.Manager
	Recorder  *obs.Recorder
	// Detail labels the recorder's observations (a fleet's tenant ID).
	Detail string
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
// then the watermark. Observe is the second half. The order carries the
// determinism contracts: Lifecycle.ObserveCycle's promotion and rollback
// verdicts read the ledger quality these rows just changed, and the recorder
// runs last, so a cycle's drift/rollback triggers precede its decision
// triggers in the refractory accounting.
func (t *ActTail) Journal(now float64, scores []float64, cands []lifecycle.CandidateScore, d core.Decision) {
	if led := t.Ledger; led != nil {
		if t.JournalLayers {
			for i, l := range t.Layers {
				if i < len(scores) && !math.IsNaN(scores[i]) {
					led.RecordPrediction(l.Name, now, scores[i] >= l.Threshold, scores[i])
				}
			}
			for _, c := range cands {
				// A candidate whose evaluation errored abstains, like a
				// NaN layer score.
				if c.Err == nil {
					led.RecordPrediction(c.Name, now, c.Score >= c.Threshold, c.Score)
				}
			}
		}
		led.RecordPrediction(obs.CombinedLayer, now, d.Warned, d.Confidence)
		if t.Advance {
			led.Advance(now)
		}
	}
}

// Observe runs the second half of the tail, after Journal: the lifecycle's
// cycle observation, then the recorder's. The caller completes the cycle's
// traces first, so a firing trigger correlates with this cycle's newest span.
func (t *ActTail) Observe(now float64, scores []float64, d core.Decision) {
	if t.Lifecycle != nil {
		t.Lifecycle.ObserveCycle(now, scores)
	}
	if t.Recorder != nil {
		t.Recorder.Observe(now, scores, obs.CycleObservation{
			Warned:        d.Warned,
			Executed:      d.Executed,
			Confidence:    d.Confidence,
			Action:        d.ActionName,
			LayerVersions: d.LayerVersions,
			Detail:        t.Detail,
		})
	}
}
