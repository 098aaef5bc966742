package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/act"
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/lifecycle"
	"repro/internal/meta"
	"repro/internal/obs"
	"repro/internal/pfmmodel"
	"repro/internal/runtime"
	"repro/internal/scp"
	ts "repro/internal/timeseries"
)

// mirror is the runtime's predictor-visible state: the ingest stage
// replays the simulator's error log and SAR series into it, and the
// layers read it. Locking is owned by the runtime: Apply calls are
// serialized and never overlap evaluation.
type mirror struct {
	log *eventlog.Log
	sar map[string]*ts.Series
}

func newMirror() *mirror {
	m := &mirror{log: eventlog.NewLog(), sar: make(map[string]*ts.Series)}
	for _, name := range scp.SARVariables {
		m.sar[name] = ts.New(name)
	}
	return m
}

// apply integrates one streamed event.
func (m *mirror) apply(ev ingest.Event) error {
	switch ev.Kind {
	case ingest.KindError:
		return m.log.Append(ev.Error)
	case ingest.KindSample:
		s, ok := m.sar[ev.Variable]
		if !ok {
			return fmt.Errorf("unknown variable %q", ev.Variable)
		}
		return s.Append(ev.Time, ev.Value)
	default:
		return fmt.Errorf("unknown event kind %d", ev.Kind)
	}
}

// layers builds the per-level predictors of the Fig. 11 blueprint over
// the mirror state. Each layer is a calibrated predictor — score =
// raw/scale with the warning threshold at 1.0 — whose initial scale is the
// blueprint's hand-tuned warning level, so the static behaviour is
// unchanged while the lifecycle (with Hotswap) can refit a scale whose
// signal regime drifted.
func (m *mirror) layers() []*core.Layer {
	// Free memory below twice the simulator's swap threshold adds a point
	// to the memory layer's depletion trend.
	memFloor := 2 * scp.DefaultConfig().SwapThreshold
	rawErrors := func(now float64) float64 {
		// Application level: detected-error rate over the data window —
		// counted off the time column, nothing materialized.
		lo, hi := m.log.ScanWindow(now-600, now+1e-9)
		return float64(hi-lo) / 600
	}
	rawMemory := func(now float64) float64 {
		// OS/resource level: free-memory depletion trend.
		w := m.sar["mem_free"].Window(now-1200, now+1e-9)
		if w.Len() < 3 {
			return 0
		}
		slope, _, err := w.LinearTrend()
		if err != nil {
			return 0
		}
		score := -slope
		if v, ok := w.Last(); ok && v.V < memFloor {
			score += 1
		}
		return score
	}
	// Platform level: utilization headroom, and swap pressure (already
	// degrading) — each the variable's last sample.
	last := func(name string) func(float64) float64 {
		series := m.sar[name]
		return func(float64) float64 {
			v, _ := series.Last()
			return v.V
		}
	}
	return []*core.Layer{
		{Name: "errors", Predictor: newCalibrated(rawErrors, 0.05), Threshold: 1},
		{Name: "memory", Predictor: newCalibrated(rawMemory, 0.1), Threshold: 1},
		{Name: "load", Predictor: newCalibrated(last("cpu"), 0.85), Threshold: 1},
		{Name: "swap", Predictor: newCalibrated(last("swap"), 0.5), Threshold: 1},
	}
}

// parseMetaWeights builds the -meta-weights stacker: one logistic weight
// per layer (in layer order), bias fixed at −Σ wᵢθᵢ so a system sitting
// exactly at every layer threshold scores 0.5. The stacker itself is
// returned (not just its Score closure) so the lifecycle can down-weight a
// freshly swapped layer during probation.
func parseMetaWeights(spec string, layers []*core.Layer) (*meta.Stacker, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != len(layers) {
		return nil, fmt.Errorf("-meta-weights needs %d comma-separated weights, got %d", len(layers), len(parts))
	}
	names := make([]string, len(layers))
	weights := make([]float64, len(layers))
	bias := 0.0
	for i, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("-meta-weights[%d]: %w", i, err)
		}
		names[i] = layers[i].Name
		weights[i] = w
		bias -= w * layers[i].Threshold
	}
	return meta.NewStacker(names, weights, bias)
}

// pipeline is the single-tenant wiring the live service and the columnar
// replay share.
type pipeline struct {
	*runtime.Runtime
	cfg      *Config
	mirror   *mirror
	names    []string      // the layers', in layer order
	stacker  *meta.Stacker // nil without MetaWeights
	action   *act.Action
	engine   *core.Engine
	ledger   *obs.Ledger
	tracer   *obs.Tracer
	lcm      *lifecycle.Manager // nil without Hotswap
	recorder *obs.Recorder
	diag     *diagProvider
	clock    fleet.Clock
	sys      *scp.System // the simulator a live run steers; nil on a replay
}

// newPipeline assembles the wiring; mitigate is the countermeasure's body.
func newPipeline(cfg *Config, mitigate func() error) (*pipeline, error) {
	p := &pipeline{cfg: cfg, mirror: newMirror(), tracer: cfg.newTracer()}
	layers := p.mirror.layers()
	var combiner core.Combiner
	var err error
	if cfg.MetaWeights != "" {
		if p.stacker, err = parseMetaWeights(cfg.MetaWeights, layers); err != nil {
			return nil, err
		}
		combiner = p.stacker.Score
		cfg.Logger.Info("meta combiner", "weights", cfg.MetaWeights)
	}
	p.action, err = act.New("mitigate+prepare", act.PreparedRepair,
		act.Params{Cost: 0.5, SuccessProb: 0.85, Complexity: 0.3}, mitigate)
	if err != nil {
		return nil, err
	}
	selector, err := act.NewSelector(act.DefaultWeights())
	if err != nil {
		return nil, err
	}
	// The runtime drives the engine on the run's domain time; any single
	// layer of the four suffices for a warning.
	p.engine, err = core.New(nil, layers, combiner, selector, []*act.Action{p.action}, nil, cfg.engine(0.2))
	if err != nil {
		return nil, err
	}

	// Online prediction-quality ledger: journaled by the runtime's act
	// tail, ground truth fed by pump, matched with the lead time
	// Δtl and slack Δtp.
	p.names = make([]string, len(layers))
	for i, l := range layers {
		p.names[i] = l.Name
	}
	if p.ledger, err = obs.NewLedger(cfg.ledger(), p.names...); err != nil {
		return nil, err
	}

	// Predictor lifecycle (Hotswap): drift-triggered recalibration with
	// shadow validation against the live ledger and zero-downtime swaps.
	if cfg.Hotswap {
		drift := driftConfig()
		if p.lcm, err = lifecycle.NewManager(layers, p.ledger, drift); err != nil {
			return nil, err
		}
		cfg.Logger.Info("predictor lifecycle enabled",
			"drift_warmup", drift.ScoreWarmup, "drift_threshold_sigma", drift.ScoreThresholdSigma,
			"shadow_min_resolved", drift.ShadowMinResolved, "cooldown_cycles", drift.CooldownCycles)
	}

	// Flight recorder: always-on bounded capture keyed to the act stage's
	// warn/act decisions, lifecycle events, and ledger burn rate.
	if err = p.buildRecorder(); err != nil {
		return nil, err
	}

	if p.Runtime, err = runtime.New(runtime.Config{
		Engine: p.engine, Apply: p.mirror.apply, Clock: p.clock.Now,
		QueueCapacity: cfg.QueueCapacity, Overflow: cfg.Overflow,
		Tracer: p.tracer, Ledger: p.ledger, Lifecycle: p.lcm, Recorder: p.recorder,
	}); err != nil {
		return nil, err
	}
	if p.lcm != nil {
		p.watchLifecycle()
	}
	return p, nil
}

// runSingle runs the single-tenant runtime: over the SCP simulator, paced by
// the wall clock at Compress and steered by the pipeline's countermeasure,
// or with ReplayColumnar over a recorded one-tenant trace at full speed (a
// recording cannot be steered, so its countermeasure is a no-op and only its
// decision record matters).
func runSingle(ctx context.Context, cfg *Config) error {
	var src fleet.Source
	var sys *scp.System
	mitigate := func() error { return nil }
	if cfg.ReplayColumnar != "" {
		trace, closer, err := fleet.OpenTrace(cfg.ReplayColumnar)
		if err != nil {
			return err
		}
		defer closer.Close()
		src = trace
	} else {
		m, err := scp.NewMulti(scp.MultiConfig{Tenants: 1, BaseSeed: cfg.Seed})
		if err != nil {
			return err
		}
		sys = m.System(0)
		// The act stage runs on the goroutine that runs the simulator, so the
		// countermeasure steers it directly.
		mitigate = func() error {
			if !sys.Up() {
				return nil
			}
			if sys.Utilization() > 0.85 {
				_ = sys.ShedLoad(0.3)
				_ = sys.Engine().Schedule(1200, func() {
					if sys.Up() {
						_ = sys.ShedLoad(0)
					}
				})
			}
			if sys.FreeMemory() < 2*sys.Config().SwapThreshold {
				_ = sys.CleanupState()
			}
			_ = sys.PrepareRepair()
			return nil
		}
		src = cfg.simulate(ctx, m)
	}
	p, err := newPipeline(cfg, mitigate)
	if err != nil {
		return err
	}
	if p.sys = sys; sys != nil {
		p.logDecisions()
	}
	return serve(ctx, cfg, p, src, &p.clock, p.tracer)
}

func (p *pipeline) started(addr string) {
	cfg := p.cfg
	cfg.Logger.Info("serving observability endpoints",
		"addr", addr, "tracez", p.tracer != nil, "ledger", true, "pprof", cfg.Profiling)
	source := fmt.Sprintf("simulator, %g days at %g×", cfg.Days, cfg.Compress)
	if p.sys == nil {
		source = cfg.ReplayColumnar
	}
	cfg.Logger.Info("replay starting", "source", source, "cadence_sim_s", cfg.Eval, "policy", cfg.Overflow.String())
}

// cycle applies what the input handed on before the stack's last boundary,
// then runs a cycle at each boundary of it.
func (p *pipeline) cycle(ctx context.Context, nows []float64) error {
	if err := p.Barrier(ctx); err != nil {
		return err
	}
	p.clock.Advance(nows[len(nows)-1])
	p.CycleBatch(nows)
	return nil
}

// pump feeds src into the runtime: events through Ingest, failure marks into
// the ledger. It returns the events ingested. A record of a second tenant is
// refused by name.
func (p *pipeline) pump(ctx context.Context, src fleet.Source) (int, error) {
	events := 0
	var tenant string
	for n := 0; ; n++ {
		rec, err := src.Next()
		if errors.Is(err, io.EOF) {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		ev := &rec.Event
		if n == 0 {
			tenant = ev.Tenant
		} else if ev.Tenant != tenant {
			return events, fmt.Errorf("trace names tenants %q and %q, the single-tenant runtime takes one", tenant, ev.Tenant)
		}
		if rec.Failure { // ground truth for the ledger and the incident diagnoser
			p.ledger.RecordFailure(ev.Time)
			p.diag.RecordFailure(ev.Time)
			continue
		}
		if err := p.Ingest(ctx, *ev); err != nil {
			return events, err
		}
		events++
	}
}

// summary logs the exit report and prints the engine's report.
func (p *pipeline) summary(events int, elapsed time.Duration) {
	logger := p.cfg.Logger
	logger.Info("replay complete",
		"events", events, "wall_seconds", elapsed.Seconds(),
		"events_per_sec", int64(float64(events)/elapsed.Seconds()),
		"sim_days", p.clock.Now()/86400, "cycles", p.Cycles())
	if sys := p.sys; sys != nil {
		logger.Info("system summary",
			"availability", sys.MeasuredAvailability(),
			"failures", len(sys.Failures()), "restarts", len(sys.Restarts()))
	}
	mm := p.Metrics()
	logger.Info("pipeline summary",
		"ingested", mm.Ingested.Value(), "applied", mm.Applied.Value(),
		"dropped", mm.Dropped(), "evaluations", mm.Evaluations.Value(),
		"warnings", mm.Warnings.Value(), "actions", mm.Actions.Value(),
		"suppressed", mm.Suppressed.Value())
	s := p.action.Stats()
	logger.Info("action stats", "action", p.action.Name(),
		"executions", s.Executions, "failures", s.Failures)
	if p.lcm != nil {
		logLifecycle(logger, p.lcm)
	}
	logQuality(logger, p.ledger)
	logModelAssessment(logger, p.ledger)
	logIncidents(logger, p.recorder)
	fmt.Fprint(p.cfg.Stdout, p.engine.Report())
}

// logDecisions is the structured decision log: every MEA cycle at debug,
// warnings at info, linked to the newest completed /tracez span. A cycle
// record the logger would drop is not built.
func (p *pipeline) logDecisions() {
	logger, tracer, names := p.cfg.Logger, p.tracer, p.names
	p.engine.SetCycleObserver(func(now float64, scores []float64, d core.Decision) {
		if !d.Warned && !logger.Enabled(context.Background(), slog.LevelDebug) {
			return
		}
		attrs := []any{slog.Float64("sim_now", now), slog.Float64("confidence", d.Confidence),
			slog.Bool("warned", d.Warned), slog.String("action", d.ActionName),
			slog.Bool("executed", d.Executed), slog.Bool("suppressed", d.Suppressed)}
		if tracer != nil {
			attrs = append(attrs, slog.Uint64("trace_id", tracer.NewestCompleteID()))
		}
		for i, s := range scores {
			if i < len(names) && !math.IsNaN(s) {
				attrs = append(attrs, slog.Float64("score_"+names[i], s))
			}
		}
		if d.Warned {
			logger.Info("failure warning", attrs...)
		} else {
			logger.Debug("cycle", attrs...)
		}
	})
}

// watchLifecycle subscribes the service to predictor-lifecycle events: every
// transition is logged (swap decisions at info, linked to the newest /tracez
// span), and when a meta stacker combines the layers, a freshly swapped
// layer is down-weighted during probation and restored on confirm/rollback.
func (p *pipeline) watchLifecycle() {
	lcm, stacker, tracer, logger := p.lcm, p.stacker, p.tracer, p.cfg.Logger
	lcm.Subscribe(func(e lifecycle.Event) {
		attrs := []any{slog.String("layer", e.Layer), slog.String("event", string(e.Type)),
			slog.Uint64("version", e.Version), slog.Float64("sim_now", e.Time)}
		msg := "predictor lifecycle"
		switch e.Type {
		case lifecycle.EventSwapped, lifecycle.EventConfirmed, lifecycle.EventRolledBack:
			msg = "predictor swap decision"
			fallthrough
		case lifecycle.EventShadowDiscarded:
			attrs = append(attrs, slog.Float64("candidate_f", e.CandidateF), slog.Float64("incumbent_f", e.IncumbentF))
		}
		if e.Duration > 0 {
			attrs = append(attrs, slog.Float64("retrain_seconds", e.Duration))
		}
		if e.Err != "" {
			attrs = append(attrs, slog.String("err", e.Err))
		}
		if tracer != nil {
			attrs = append(attrs, slog.Uint64("trace_id", tracer.NewestCompleteID()))
		}
		logger.Info(msg, attrs...)
	})
	if stacker == nil {
		return
	}
	// Probation discount: trust a just-swapped predictor at half its
	// configured weight until the swap is confirmed (or rolled back).
	const probationDiscount = 0.5
	initial := make(map[string]float64, len(p.names))
	for _, name := range p.names {
		if w, err := stacker.Weight(name); err == nil {
			initial[name] = w
		}
	}
	lcm.Subscribe(func(e lifecycle.Event) {
		w0, ok := initial[e.Layer]
		if !ok {
			return
		}
		switch e.Type {
		case lifecycle.EventSwapped:
			if prev, err := stacker.Reweight(e.Layer, w0*probationDiscount); err == nil {
				logger.Info("stacker reweighted for probation",
					"layer", e.Layer, "weight", w0*probationDiscount, "previous", prev)
			}
		case lifecycle.EventConfirmed, lifecycle.EventRolledBack:
			if _, err := stacker.Reweight(e.Layer, w0); err == nil {
				logger.Info("stacker weight restored", "layer", e.Layer, "weight", w0)
			}
		}
	})
}

// logLifecycle reports the per-layer predictor-lifecycle outcome.
func logLifecycle(logger *slog.Logger, lcm *lifecycle.Manager) {
	for _, st := range lcm.States() {
		logger.Info("predictor lifecycle summary",
			"layer", st.Layer, "state", st.State, "version", st.Version,
			"drifts", st.Drifts, "retrains", st.Retrains,
			"retrain_errors", st.RetrainErrors, "swaps", st.Swaps,
			"rollbacks", st.Rollbacks, "confirms", st.Confirms,
			"eval_errors", st.EvalErrors)
	}
}

// logQuality reports the ledger's per-layer online quality tables.
func logQuality(logger *slog.Logger, led *obs.Ledger) {
	for _, layer := range led.Layers() {
		c := led.Cumulative(layer)
		attrs := []any{slog.String("layer", layer),
			slog.Int("tp", c.TP), slog.Int("fp", c.FP), slog.Int("tn", c.TN), slog.Int("fn", c.FN)}
		names := [...]string{"precision", "recall", "fpr", "f1"}
		for i, v := range [...]float64{c.Precision(), c.Recall(), c.FPR(), c.FMeasure()} {
			if !math.IsNaN(v) {
				attrs = append(attrs, slog.Float64(names[i], v))
			}
		}
		logger.Info("prediction quality", attrs...)
	}
}

// logModelAssessment compares the Sect. 5 CTMC under the measured combined
// quality against the paper's Table 2 reference parameterization.
func logModelAssessment(logger *slog.Logger, led *obs.Ledger) {
	a, err := obs.AssessModel(led.Cumulative(obs.CombinedLayer), pfmmodel.DefaultParams())
	if err != nil {
		logger.Debug("model assessment unavailable", "reason", err.Error())
		return
	}
	logger.Info("model assessment",
		"measured_precision", a.Measured.Precision, "measured_recall", a.Measured.Recall,
		"measured_fpr", a.Measured.FPR, "measured_availability", a.Measured.Availability,
		"reference_availability", a.Reference.Availability, "availability_delta", a.AvailabilityDelta,
		"unavailability_ratio", a.Measured.UnavailabilityRatio,
		"reference_unavailability_ratio", a.Reference.UnavailabilityRatio,
		"unavailability_ratio_delta", a.UnavailabilityRatioDelta,
		"mttf_relative", a.MTTFRelative, "hazard_at_mttf", a.Measured.HazardAtMTTF)
}
