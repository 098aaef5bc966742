package service

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/diagnose"
	"repro/internal/eventlog"
	"repro/internal/obs"
)

// burnRateFloor arms the recorder's burnrate trigger: a bundle when the
// ledger's combined F-measure falls below it. The single-tenant pipeline's
// combined decision books F = 0.163 on the seed-7 three-day replay and
// F = 0.126 on a live day at seed 11, so 0.1 sits below where the decision
// settles: the trigger marks a slump under it (twice in that replay, once in
// that live day), not the level the decision runs at.
const burnRateFloor = 0.1

// diagProvider serves the recorder's DiagnoseRange queries over the live
// mirror log: it lazily (re)trains a Sect. 4.3-style Bayesian symptom
// diagnoser whenever ground-truth failures arrived since the last model,
// so a bundle's top suspects always reflect every failure seen so far.
// RecordFailure is called from the replay loop, Diagnose from bundle
// assembly under the runtime's evaluation exclusion — the mutex makes the
// pair safe, and the log itself is quiescent during assembly.
type diagProvider struct {
	mu       sync.Mutex
	log      *eventlog.Log
	failures []float64
	trained  int // failure count the current model was trained on
	d        *diagnose.Diagnoser
}

// RecordFailure notes one ground-truth failure for future training; a nil
// provider (no recorder) notes nothing.
func (p *diagProvider) RecordFailure(t float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.failures = append(p.failures, t)
	p.mu.Unlock()
}

// Diagnose ranks suspect components over [from, to], retraining first if
// new failures arrived. Returns nil until at least one failure window is
// collectable (an untrained diagnoser has no posteriors to rank with).
func (p *diagProvider) Diagnose(from, to float64) []diagnose.Suspect {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.failures) == 0 {
		return nil
	}
	if p.d == nil || p.trained != len(p.failures) {
		// Diagnose from the data window adjacent to the failure (no lead time).
		failWins, nonFailWins, err := diagnose.CollectWindowRanges(p.log, p.failures,
			eventlog.ExtractConfig{DataWindow: 600, MinEvents: 1, NonFailureStride: 1200})
		if err != nil || len(failWins) == 0 {
			return nil
		}
		d, err := diagnose.TrainOnRanges(p.log, failWins, nonFailWins, 1)
		if err != nil {
			return nil
		}
		p.d = d
		p.trained = len(p.failures)
	}
	return p.d.DiagnoseRange(p.log, from, to)
}

// recorderConfig is what both modes' flight recorders share: retain
// IncidentCap bundles, capture a warning at IncidentWarn, and arm the
// burnrate trigger.
func (cfg *Config) recorderConfig(layers []string, tracer *obs.Tracer) obs.RecorderConfig {
	return obs.RecorderConfig{Layers: layers, WarnThreshold: cfg.IncidentWarn, BurnRateFloor: burnRateFloor,
		MaxBundles: cfg.IncidentCap, Tracer: tracer}
}

// buildRecorder assembles the pipeline's flight recorder over its mirror
// log, tracer, ledger and lifecycle, plus the lazy diagnoser; IncidentCap 0
// leaves both nil.
func (p *pipeline) buildRecorder() error {
	if p.cfg.IncidentCap <= 0 {
		return nil
	}
	dp := &diagProvider{log: p.mirror.log}
	rc := p.cfg.recorderConfig(p.names, p.tracer)
	rc.Window = 600 // matches the layers' error-data window Δtd
	rc.Log, rc.Ledger, rc.Diagnose, rc.RuntimeStats = p.mirror.log, p.ledger, dp.Diagnose, true
	if lcm := p.lcm; lcm != nil {
		rc.Lifecycle = func() any { return lcm.States() }
	}
	rec, err := obs.NewRecorder(rc)
	if err != nil {
		return err
	}
	p.recorder, p.diag = rec, dp
	return p.cfg.persist(rec)
}

// fleetRecorder builds the fleet's flight recorder from the same settings:
// one recorder per tenant under the fleetScopes cardinality cap (later
// tenants share the overflow recorder), each gated at IncidentWarn weighted
// by its tenant's criticality. The fleet mirrors no event log, so its
// bundles carry scores, versions and spans but no events or suspects.
// IncidentCap 0 leaves it nil.
func (cfg *Config) fleetRecorder(layers []string, tracer *obs.Tracer) (*obs.ScopedRecorder, error) {
	if cfg.IncidentCap <= 0 {
		return nil, nil
	}
	rec, err := obs.NewScopedRecorder(cfg.recorderConfig(layers, tracer), fleetScopes)
	if err != nil {
		return nil, err
	}
	return rec, cfg.persist(rec)
}

// persist subscribes rec to a sink that writes each captured bundle to
// IncidentDir as <id>.json (pretty-printed, one file per incident); without
// IncidentDir the bundles stay in memory.
func (cfg *Config) persist(rec interface {
	Subscribe(func(*obs.IncidentBundle))
}) error {
	dir, logger := cfg.IncidentDir, cfg.Logger
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("incident dir: %w", err)
	}
	rec.Subscribe(func(b *obs.IncidentBundle) {
		path := filepath.Join(dir, b.ID+".json")
		data, err := json.MarshalIndent(b, "", "  ")
		if err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
		if err != nil {
			logger.Warn("incident bundle write failed", "id", b.ID, "err", err)
			return
		}
		logger.Info("incident bundle written",
			"id", b.ID, "trigger", string(b.Trigger), "sim_time", b.Time,
			"events", b.EventsTotal, "path", path)
	})
	return nil
}

// logIncidents reports the recorder's capture record at shutdown.
func logIncidents(logger *slog.Logger, rec *obs.Recorder) {
	if rec == nil {
		return
	}
	attrs := []any{slog.Int64("suppressed", rec.Suppressed())}
	var total int64
	for _, k := range obs.TriggerKinds {
		n := rec.Captured(k)
		total += n
		attrs = append(attrs, slog.Int64(string(k), n))
	}
	attrs = append(attrs, slog.Int64("captured", total))
	logger.Info("incident summary", attrs...)
}
