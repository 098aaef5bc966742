// Flight-recorder wiring (-incident-dir/-incident-cap/-incident-warn):
// the always-on obs.Recorder rides the MEA act stage, and pfmd adds the
// service-level pieces — a lazily retrained log-symptom diagnoser feeding
// the bundles' top suspects, and an optional on-disk JSON sink so bundles
// survive the process.
package main

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
// ledger's combined F-measure falls below it. The product's combined decision
// stands at F ≈ 0.25 (f1_combined in bench/history/20.json), so 0.1 is a
// collapse to less than half of that, not the run-to-run noise around it.
const burnRateFloor = 0.1

// incidentOptions carries the -incident-* flag set.
type incidentOptions struct {
	dir  string  // bundle sink directory ("" = in-memory only)
	cap  int     // retained bundles (0 disables the recorder)
	warn float64 // combined-confidence gate for warn-triggered capture
}

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

func newDiagProvider(log *eventlog.Log) *diagProvider {
	return &diagProvider{log: log}
}

// RecordFailure notes one ground-truth failure for future training.
func (p *diagProvider) RecordFailure(t float64) {
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
		failWins, nonFailWins, err := diagnose.CollectWindowRanges(p.log, p.failures, eventlog.ExtractConfig{
			DataWindow:       600,
			LeadTime:         0, // diagnose from the window adjacent to the failure
			MinEvents:        1,
			NonFailureStride: 1200,
		})
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

// buildRecorder assembles the pipeline's flight recorder over its mirror
// log, tracer, ledger and lifecycle, plus the lazy diagnoser; -incident-cap 0
// leaves both nil.
func (p *pipeline) buildRecorder() error {
	o := p.o.incidents
	if o.cap <= 0 {
		return nil
	}
	dp := newDiagProvider(p.mirror.log)
	cfg := obs.RecorderConfig{
		Layers:        p.names,
		Window:        600, // matches the layers' error-data window Δtd
		WarnThreshold: o.warn,
		BurnRateFloor: burnRateFloor,
		MaxBundles:    o.cap,
		Log:           p.mirror.log,
		Tracer:        p.tracer,
		Ledger:        p.ledger,
		Diagnose:      dp.Diagnose,
		RuntimeStats:  true,
	}
	if lcm := p.lcm; lcm != nil {
		cfg.Lifecycle = func() any { return lcm.States() }
	}
	rec, err := obs.NewRecorder(cfg)
	if err != nil {
		return err
	}
	if o.dir != "" {
		sink, err := incidentSink(o.dir, p.o.logger)
		if err != nil {
			return err
		}
		rec.Subscribe(sink)
	}
	p.recorder, p.diag = rec, dp
	return nil
}

// fleetRecorder builds the fleet's flight recorder from the same flags: one
// recorder per tenant under the fleetScopes cardinality cap (later tenants
// share the overflow recorder), each retaining -incident-cap bundles and
// gated at -incident-warn weighted by its tenant's criticality. The fleet
// mirrors no event log, so its bundles carry scores, versions and spans but
// no events or suspects. -incident-cap 0 leaves it nil.
func (o *options) fleetRecorder(layers []string, tracer *obs.Tracer) (*obs.ScopedRecorder, error) {
	if o.incidents.cap <= 0 {
		return nil, nil
	}
	rec, err := obs.NewScopedRecorder(obs.RecorderConfig{
		Layers:        layers,
		WarnThreshold: o.incidents.warn,
		BurnRateFloor: burnRateFloor,
		MaxBundles:    o.incidents.cap,
		Tracer:        tracer,
	}, fleetScopes)
	if err != nil {
		return nil, err
	}
	if o.incidents.dir != "" {
		sink, err := incidentSink(o.incidents.dir, o.logger)
		if err != nil {
			return nil, err
		}
		rec.Subscribe(sink)
	}
	return rec, nil
}

// incidentSink returns a bundle subscriber that persists each captured
// bundle as <dir>/<id>.json (pretty-printed, one file per incident).
func incidentSink(dir string, logger *slog.Logger) (func(*obs.IncidentBundle), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("incident dir: %w", err)
	}
	return func(b *obs.IncidentBundle) {
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
	}, nil
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
