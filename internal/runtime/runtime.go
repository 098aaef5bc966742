package runtime

import (
	"context"
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/predict"
)

// Config parameterizes the streaming runtime.
type Config struct {
	// Engine supplies the layers and the serialized Act semantics
	// (cross-layer decision, oscillation guard). The runtime's cycle is
	// its clock; the Ledger books its predictions' outcomes.
	Engine *core.Engine
	// Apply integrates one ingested event into the predictor-visible
	// state (e.g. append to an eventlog.Log or a timeseries.Series).
	// Apply and Layer.Evaluate never overlap and Apply calls are fully
	// serialized, in ingest order (one queue, one drain lock, one state
	// lock), so Apply and the layers may share state without their own
	// locking. Apply runs on the drain consumer's goroutine, or on the
	// goroutine that calls Barrier: Barrier applies the backlog it waits
	// for itself.
	Apply func(ingest.Event) error
	// Clock reads the domain time an EvaluateNow cycle, and Stop's final
	// cycle, evaluates and acts at. Nil defaults to seconds since Start.
	// CycleBatch takes its times from its caller instead.
	Clock func() float64
	// QueueCapacity bounds the ingest queue (default 1024).
	QueueCapacity int
	// Overflow is the full-queue policy (default Block).
	Overflow OverflowPolicy
	// BatchSize is the drain-amortization unit: a drain takes up to
	// BatchSize events per chunk and applies them under one
	// state-lock acquisition with one latency observation (default 64).
	// 1 reproduces the event-at-a-time path — batching is observationally
	// invisible either way (ledger state, counters and act decisions are
	// byte-identical across batch sizes; only the histograms' observation
	// granularity changes).
	BatchSize int
	// Profiling exposes net/http/pprof handlers under /debug/pprof/ on
	// the runtime's Handler. Off by default — profiles reveal operational
	// detail, so they are opt-in.
	Profiling bool
	// Workers sizes the layer-evaluation pool (default GOMAXPROCS, or
	// the layer count if smaller). 1 evaluates sequentially.
	Workers int
	// Tracer records end-to-end spans (ingest→queue→apply→evaluate→act)
	// for every event into a ring of recent traces, rendered by /tracez.
	// Nil disables tracing (the hot path then skips all stamping).
	Tracer *obs.Tracer
	// Ledger journals every per-layer prediction and combined decision the
	// act stage emits, for online Sect. 3.3 quality accounting. The caller
	// feeds ground-truth failures via Ledger.RecordFailure. Nil disables
	// the ledger. When set, per-layer precision/recall/fpr/F1 gauges are
	// registered on the metric registry and /ledger serves the journal.
	Ledger *obs.Ledger
	// Lifecycle drives drift-triggered retraining and zero-downtime
	// predictor hot-swaps for the engine's layers: candidate windows are
	// captured and shadow candidates scored inside each cycle's evaluation
	// exclusion (Manager.Collect), shadow predictions are journaled to the
	// Ledger under "<layer>#candidate", and promotion/rollback decisions
	// run in the cycle's act tail (Manager.ObserveCycle). Requires Ledger. Nil
	// disables the lifecycle. When set, layer-version gauges, swap/retrain
	// counters, a retrain-duration histogram and the /layers endpoint are
	// registered.
	Lifecycle *lifecycle.Manager
	// Recorder is the prediction-triggered flight recorder: the act tail
	// feeds it every cycle's decision (Recorder.Observe), pending
	// incident triggers are captured inside the evaluation exclusion
	// (Recorder.Collect), lifecycle drift/rollback events fire its
	// external triggers, and Stop flushes the tail. Nil disables it. When
	// set, pfm_incidents_total / pfm_incident_bundle_seconds are
	// registered and /incidents serves the retained bundles.
	Recorder *obs.Recorder
}

// Runtime is the concurrent streaming MEA pipeline. Construct with New,
// drive with Start/Ingest/EvaluateNow, finish with Stop.
type Runtime struct {
	cfg     Config
	ring    *Ring[queued] // the bounded ingest queue, drained by drain
	metrics *Metrics
	// shell owns the goroutines (drain consumer, pool) and the stop
	// protocol; drain is the drain body over the ring, run by the consumer
	// and helped by Barrier, cycle the cycle body over the runtime's one
	// seat.
	shell *Shell
	drain DrainCore[queued]
	cycle CycleCore
	seat  Seat

	// stateMu guards the user's predictor state: a drain holds it around
	// each chunk's Apply calls, the cycle around layer evaluation, so the two
	// never overlap. A plain Mutex: the drain lock already serializes the
	// appliers, so there is no second one for a shared side to admit.
	stateMu sync.Mutex

	// ingestGate drives both producer-side sampling decisions from one
	// shared atomic per Ingest call: the ingest-latency histogram observes
	// 1 in ingestLatencyEvery calls (two clock reads per event would
	// dominate the batched hot path), and trace sampling admits 1 in
	// sampleEvery calls (the tracer's interval, cached at construction).
	ingestGate  atomic.Uint64
	sampleEvery uint64 // 0 = tracing off
	sampleMask  uint64 // sampleEvery-1 when it is a power of two, else 0
}

// ingestLatencyEvery is the ingest-latency sampling interval (power of
// two). Symmetric across tracing on/off, so the tracing-overhead budget
// comparison stays apples-to-apples.
const ingestLatencyEvery = 16

// New validates the configuration and assembles a runtime (not yet
// running; call Start).
func New(cfg Config) (*Runtime, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("%w: nil engine", ErrRuntime)
	}
	if cfg.Apply == nil {
		return nil, fmt.Errorf("%w: nil Apply", ErrRuntime)
	}
	if cfg.QueueCapacity < 0 || cfg.Workers < 0 || cfg.BatchSize < 0 {
		return nil, fmt.Errorf("%w: negative capacity/workers/batch", ErrRuntime)
	}
	if cfg.Lifecycle != nil && cfg.Ledger == nil {
		return nil, fmt.Errorf("%w: Lifecycle requires Ledger (shadow validation reads live quality)", ErrRuntime)
	}
	if cfg.QueueCapacity == 0 {
		cfg.QueueCapacity = 1024
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	layers := cfg.Engine.Layers()
	if cfg.Workers == 0 {
		cfg.Workers = stdruntime.GOMAXPROCS(0)
		if len(layers) < cfg.Workers {
			cfg.Workers = len(layers)
		}
	}
	r := &Runtime{
		cfg:     cfg,
		ring:    NewRing[queued](cfg.QueueCapacity, cfg.Overflow),
		metrics: NewMetrics(),
	}
	r.seat = Seat{Engine: cfg.Engine, Tail: ActTail{
		Layers: layers, Ledger: cfg.Ledger, JournalLayers: true, Advance: true,
		Lifecycle: cfg.Lifecycle, Recorder: cfg.Recorder,
	}}
	r.shell = NewShell(ShellConfig{
		Err:         ErrRuntime,
		Workers:     cfg.Workers,
		Tracer:      cfg.Tracer,
		Cycle:       &r.cycle,
		CloseQueues: r.ring.Close,
		Quiesced: func() {
			if cfg.Lifecycle != nil {
				cfg.Lifecycle.Wait() // let in-flight background retrains land
			}
			// Capture triggers the final cycle raised and deliver
			// undelivered bundles.
			cfg.Recorder.Flush()
		},
	})
	if cfg.Clock == nil {
		r.cfg.Clock = func() float64 { return r.shell.Uptime().Seconds() }
	}
	r.cycle = CycleCore{
		Shell: r.shell, Metrics: r.metrics, Tracer: cfg.Tracer, State: &r.stateMu,
		Recorder: cfg.Recorder, Clock: r.cfg.Clock, Seats: []*Seat{&r.seat}, Layers: len(layers),
		Score: func(j, lo, hi int, nows, out []float64) { layers[j].ScoreBatch(nows[lo:hi], out) },
	}
	r.drain = DrainCore[queued]{
		Shell: r.shell, Metrics: r.metrics, Tracer: cfg.Tracer, State: &r.stateMu, Batch: cfg.BatchSize,
		Wait:   r.ring.Wait,
		Take:   r.ring.Take,
		Settle: func(_ []queued, n int) { r.ring.Settle(n) },
		Apply:  func(q *queued) error { return cfg.Apply(q.ev) },
		Span: func(q *queued) (int64, uint8, string, int) {
			return q.trace, uint8(q.ev.Kind), traceKey(&q.ev), 0
		},
	}
	if cfg.Tracer != nil {
		r.sampleEvery = uint64(cfg.Tracer.Interval())
		if r.sampleEvery > 1 && r.sampleEvery&(r.sampleEvery-1) == 0 {
			// Power-of-two interval (the default is 16): a mask beats the
			// hardware division n%every would cost on every single event.
			r.sampleMask = r.sampleEvery - 1
		}
	}
	// DropOldest evictions are accounted under the ring lock, in eviction
	// order.
	r.ring.OnEvict = func(old queued) {
		r.metrics.DroppedOldest.Inc()
		r.traceDrop(&old.ev, old.trace)
	}
	reg := r.metrics.Registry()
	reg.GaugeFunc("pfm_queue_depth",
		"Events waiting in the ingest queue.", func() float64 { return float64(r.ring.Depth()) })
	reg.GaugeFunc("pfm_queue_capacity",
		"Ingest queue capacity.", func() float64 { return float64(r.ring.Capacity()) })
	if cfg.Ledger != nil {
		registerLedgerGauges(reg, cfg.Ledger, layers)
	}
	// Layer evaluation failures were previously swallowed as silent NaN
	// abstentions; surface them per layer, and combiner failures engine-wide.
	for _, l := range layers {
		layer := l
		reg.CounterFunc("pfm_layer_eval_errors_total",
			"Layer evaluations that returned an error (scored as abstain).",
			func() float64 { return float64(layer.EvalErrors()) }, "layer", layer.Name)
	}
	reg.CounterFunc("pfm_combiner_errors_total",
		"Act rounds whose combiner failed (confidence forced to 0).",
		func() float64 { return float64(cfg.Engine.CombinerErrors()) })
	if cfg.Lifecycle != nil {
		registerLifecycleMetrics(reg, cfg.Lifecycle, layers)
	}
	if cfg.Recorder != nil {
		registerRecorderMetrics(reg, cfg.Recorder)
		r.seat.Tail.WireTriggers()
	}
	return r, nil
}

// registerRecorderMetrics exposes the flight recorder's trigger counters
// and the capture latency histogram, fed by the captures themselves so that
// no bundle is built for it.
func registerRecorderMetrics(reg *Registry, rec *obs.Recorder) {
	for _, k := range obs.TriggerKinds {
		kind := k
		reg.CounterFunc("pfm_incidents_total", "Incident bundles captured, by trigger kind.",
			func() float64 { return float64(rec.Captured(kind)) }, "trigger", string(kind))
	}
	reg.CounterFunc("pfm_incidents_suppressed_total",
		"Triggers swallowed by the refractory rate limit.",
		func() float64 { return float64(rec.Suppressed()) })
	bundleDur := reg.Histogram("pfm_incident_bundle_seconds",
		"Wall time spent capturing one incident.",
		[]float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1})
	rec.OnCapture(bundleDur.Observe)
}

// registerLifecycleMetrics exposes the predictor-lifecycle observability:
// serving version per layer, episode counters, and the retrain-duration
// histogram (fed by lifecycle events).
func registerLifecycleMetrics(reg *Registry, mgr *lifecycle.Manager, layers []*core.Layer) {
	for _, l := range layers {
		layer := l
		reg.GaugeFunc("pfm_layer_version",
			"Serving predictor version per layer (bumped by hot-swap and rollback).",
			func() float64 { return float64(layer.Version()) }, "layer", layer.Name)
	}
	counters := []struct {
		name, help string
		f          func(lifecycle.Totals) int
	}{
		{"pfm_drift_detected_total", "Drift detections across layers.", func(t lifecycle.Totals) int { return t.Drifts }},
		{"pfm_retrains_total", "Candidate retrains started.", func(t lifecycle.Totals) int { return t.Retrains }},
		{"pfm_retrain_errors_total", "Retrains that failed (capture or fit).", func(t lifecycle.Totals) int { return t.RetrainErrors }},
		{"pfm_swaps_total", "Predictor hot-swaps (candidate promoted).", func(t lifecycle.Totals) int { return t.Swaps }},
		{"pfm_swap_rollbacks_total", "Swaps rolled back after probation regression.", func(t lifecycle.Totals) int { return t.Rollbacks }},
		{"pfm_swap_confirms_total", "Swaps confirmed after probation.", func(t lifecycle.Totals) int { return t.Confirms }},
	}
	for _, c := range counters {
		f := c.f
		reg.CounterFunc(c.name, c.help, func() float64 { return float64(f(mgr.Totals())) })
	}
	retrainDur := reg.Histogram("pfm_retrain_duration_seconds",
		"Wall time of candidate retrains (succeeded or failed).",
		[]float64{1e-3, 1e-2, 1e-1, 1, 10, 60, 600})
	mgr.Subscribe(func(e lifecycle.Event) {
		if e.Type == lifecycle.EventRetrainDone || e.Type == lifecycle.EventRetrainFailed {
			retrainDur.Observe(e.Duration)
		}
	})
}

// registerLedgerGauges exposes the ledger's rolling-window Sect. 3.3
// quality metrics for every engine layer plus the combined decision.
// Gauges render NaN while a metric's denominator is still empty.
func registerLedgerGauges(reg *Registry, led *obs.Ledger, layers []*core.Layer) {
	names := make([]string, 0, len(layers)+1)
	for _, l := range layers {
		names = append(names, l.Name)
	}
	names = append(names, obs.CombinedLayer)
	quality := []struct {
		metric, help string
		f            func(predict.ContingencyTable) float64
	}{
		{"pfm_ledger_precision", "Rolling-window precision per prediction layer.", predict.ContingencyTable.Precision},
		{"pfm_ledger_recall", "Rolling-window recall per prediction layer.", predict.ContingencyTable.Recall},
		{"pfm_ledger_fpr", "Rolling-window false positive rate per prediction layer.", predict.ContingencyTable.FPR},
		{"pfm_ledger_f1", "Rolling-window F-measure per prediction layer.", predict.ContingencyTable.FMeasure},
	}
	for _, qm := range quality {
		for _, name := range names {
			f, layer := qm.f, name
			reg.GaugeFunc(qm.metric, qm.help, func() float64 { return f(led.Quality(layer)) }, "layer", layer)
		}
	}
	for _, name := range names {
		layer := name
		for _, oc := range []struct {
			outcome string
			f       func(predict.ContingencyTable) int
		}{
			{"tp", func(c predict.ContingencyTable) int { return c.TP }},
			{"fp", func(c predict.ContingencyTable) int { return c.FP }},
			{"tn", func(c predict.ContingencyTable) int { return c.TN }},
			{"fn", func(c predict.ContingencyTable) int { return c.FN }},
		} {
			f := oc.f
			reg.GaugeFunc("pfm_ledger_outcomes", "Rolling-window contingency counts per layer and outcome.",
				func() float64 { return float64(f(led.Quality(layer))) },
				"layer", layer, "outcome", oc.outcome)
		}
	}
}

// Tracer returns the configured span tracer (nil when tracing is off).
func (r *Runtime) Tracer() *obs.Tracer { return r.cfg.Tracer }

// Recorder returns the configured flight recorder (nil when disabled).
func (r *Runtime) Recorder() *obs.Recorder { return r.cfg.Recorder }

// Metrics returns the pipeline's metric set.
func (r *Runtime) Metrics() *Metrics { return r.metrics }

// QueueDepth returns the current ingest backlog.
func (r *Runtime) QueueDepth() int { return r.ring.Depth() }

// Start launches the drain consumer. ctx cancellation hard-stops the
// pipeline (no drain); use Stop for graceful shutdown.
func (r *Runtime) Start(ctx context.Context) error {
	return r.shell.Start(ctx, 1, func(int) { r.drain.Run() })
}

// Ingest offers one event to the pipeline under the configured overflow
// policy. Under Block it waits for queue space until ctx is canceled
// (ctx.Err() returned; the event is counted ingested and dropped). A
// DropNewest rejection is counted but not surfaced as an error, matching the
// policy's contract. Ingest returns ErrClosed once shutdown has begun (the
// event is then not counted at all).
//
// One shared atomic per call drives both producer-side samplers: trace
// sampling admits one in tracer-interval events (the first call always
// samples) and the ingest-latency histogram observes
// one in ingestLatencyEvery calls — the unsampled hot path pays no clock
// read and no further tracer bookkeeping, and a call picked by both (at the
// default interval they coincide) reads its start stamp once.
func (r *Runtime) Ingest(ctx context.Context, ev ingest.Event) error {
	n := r.ingestGate.Add(1)
	timed := n&(ingestLatencyEvery-1) == 1
	sampled := false
	if r.sampleMask != 0 {
		sampled = n&r.sampleMask == 1
	} else if r.sampleEvery != 0 {
		sampled = r.sampleEvery == 1 || n%r.sampleEvery == 1
	}
	var start, trace int64
	if timed || sampled {
		start = r.shell.Nanos()
	}
	if sampled {
		// A sampled event is one with a stamp, so a reading of exactly 0 (the
		// tracer's first nanosecond) is nudged to 1.
		trace = max(start, 1)
	}
	err := r.ring.Push(ctx, queued{ev, trace})
	switch {
	case err == nil:
		r.metrics.Ingested.Inc()
	case errors.Is(err, ErrClosed):
		return ErrClosed
	case errors.Is(err, ErrRejected):
		r.metrics.Ingested.Inc()
		r.metrics.DroppedNewest.Inc()
		r.traceDrop(&ev, trace)
		err = nil
	default: // canceled Block wait
		r.metrics.Ingested.Inc()
		r.metrics.DroppedCanceled.Inc()
		r.traceDrop(&ev, trace)
	}
	if timed {
		r.metrics.IngestLatency.Observe(float64(r.shell.Nanos()-start) / 1e9)
	}
	return err
}

// traceDrop publishes a shed event's partial trace (no-op for unsampled
// events).
func (r *Runtime) traceDrop(ev *ingest.Event, trace int64) {
	if tr := r.cfg.Tracer; trace != 0 && tr != nil {
		tr.PublishDropped(uint8(ev.Kind), traceKey(ev), 0, trace, trace, tr.Now())
	}
}

// Barrier blocks until every event admitted to the ingest queue before the
// call has been fully processed (applied, or shed by a drop policy or
// shutdown). Replay drivers use it to line ingest windows up with
// synchronous evaluation (CycleBatch) without sleeping.
//
// Barrier applies what is queued itself (DrainCore.Help), in ingest order
// with the consumer's chunks, then waits out what the consumer holds — all
// of it when the consumer was mid-chunk at the call, since Help does not
// queue up behind it: a cadence's few events are applied without waiting
// for the consumer's goroutine to be scheduled.
func (r *Runtime) Barrier(ctx context.Context) error {
	if r.shell.Started() {
		r.drain.Help(r.ring.Depth())
	}
	return AwaitSettled(ctx, func() bool { return r.ring.Pending() == 0 })
}

// Cycles returns how many act rounds have completed since Start
// (Shell.Cycles).
func (r *Runtime) Cycles() int64 { return r.shell.Cycles() }

// EvaluateNow runs one MEA cycle at the clock's reading on the calling
// goroutine and returns once it is done (CycleCore.Run). After Stop has
// begun it runs none.
func (r *Runtime) EvaluateNow() { r.cycle.Run(nil) }

// CycleBatch runs one synchronous MEA cycle per time in nows (ascending):
// the cycle body (CycleCore) with the one seat's instants as its rows — every
// layer scores the whole stack under a single evaluation exclusion
// (core.Layer.ScoreBatch), then each instant acts in order. Ledger state,
// monotone counters and act decisions are byte-identical to len(nows)
// EvaluateNow cycles at the same times, which run the same body with a
// one-element stack.
//
// CycleBatch calls serialize with each other and with EvaluateNow; once Stop
// has begun it runs none. Typical use: a replay ingests a window of events,
// Barriers, then stacks the cycle times that fell due in the gap — amortizing
// the exclusive lock and the versioned-predictor handle loads across the
// whole stack.
func (r *Runtime) CycleBatch(nows []float64) {
	if len(nows) > 0 {
		r.cycle.Run(nows)
	}
}

// Stop shuts the pipeline down by the shell's stop protocol (see Shell):
// reject new ingest, drain the queues through Apply, run one final cycle,
// release the workers, let background retrains land and flush the recorder.
// If ctx expires first, the pipeline is hard-stopped and ctx's error
// returned. Stop is idempotent.
func (r *Runtime) Stop(ctx context.Context) error { return r.shell.Stop(ctx) }

// Running reports whether the pipeline is started and not yet stopping.
func (r *Runtime) Running() bool { return r.shell.Running() }
