// Command pfmd runs the PFM library as a long-running service: the
// concurrent streaming MEA runtime (internal/runtime) fed by the SCP
// simulator in real-time-scaled replay mode. Simulated operation is paced
// by the wall clock at a configurable time-compression factor; the
// simulator's error log and SAR samples stream through the bounded ingest
// queue into mirror state, layered predictors score in a worker pool, and
// the serialized act stage steers the live simulator directly.
//
// Every mode has one time base, the domain time of its input. One stepper
// (step.go) runs an MEA cycle at every -eval simulated seconds of it, on the
// goroutine that feeds the pipeline, once the input before that instant has
// been applied — so a run without -hotswap (whose retrains land on
// background goroutines) is a deterministic function of its flags, and a
// live run is reproducible from its -seed. -rate-limit keeps that: a tenant's
// token bucket decides at admission, on the input's own time, and sheds what
// is over the rate then and there.
//
// Observability: /metrics (Prometheus text), /healthz and /readyz
// (readiness), /livez (liveness), /tracez (end-to-end span traces),
// /ledger (online Sect. 3.3 prediction quality), /layers (predictor
// lifecycle state, with -hotswap) and /incidents (flight-recorder bundles)
// on -addr while the replay runs, e.g.
//
//	pfmd -days 2 -compress 7200 -hotswap -incident-dir /tmp/incidents &
//	curl -s localhost:9600/metrics | grep pfm_
//	curl -s localhost:9600/ledger | head
//	curl -s localhost:9600/layers
//	curl -s "localhost:9600/tracez?n=10"
//	curl -s localhost:9600/incidents | head
//
// The flight recorder keeps bounded always-on state (recent event-window
// indices, per-layer score history, span IDs) and assembles a correlated
// incident bundle — pre-trigger events, scores, versions, slowest spans,
// suspect components, lifecycle states, runtime snapshot — whenever a
// warning clears -incident-warn, a countermeasure fires, a predictor
// drifts or rolls back, or ledger quality burns down. Bundles are served
// on /incidents and optionally persisted to -incident-dir as JSON.
//
// With -hotswap the predictor lifecycle watches every layer's score stream
// (self-calibrating CUSUM) and ledger quality (Page–Hinkley) for drift,
// recalibrates a candidate off the hot path, validates it in shadow against
// the incumbent's live F-measure, and swaps it in without pausing the MEA
// loop; swap decisions are logged with the newest trace ID.
//
// Progress and decisions are structured logs on stderr (-log-format=json
// for machine ingestion); result tables stay on stdout.
//
// Usage:
//
//	pfmd [-addr :9600] [-seed 11] [-days 1] [-compress 3600] [-eval 60]
//	     [-queue 4096] [-overflow block|drop-oldest|drop-newest]
//	     [-log-format text|json] [-log-level info|debug] [-pprof]
//	     [-trace-cap 256] [-trace-sample 16] [-trace-dump 0]
//	     [-ledger-window 0] [-meta-weights w1,w2,w3,w4] [-hotswap]
//	     [-incident-dir DIR] [-incident-cap 32] [-incident-warn 0.5]
//	pfmd -replay-columnar trace.wire|trace.trace
//	pfmd -fleet [-tenants 100] [-skew 1] [-shards 0]
//	     [-fleet-trace FILE | -listen ADDR] [-act-budget 0] [-rate-limit 0]
//
// -fleet (fleet.go) runs the multi-tenant fleet and -replay-columnar replays
// a recorded one-tenant trace unpaced; both read the first form's flags too,
// except where flagModes says otherwise: a flag given on the command line that
// the selected mode does not read is an error. -eval is the MEA cadence in
// simulated seconds in every mode, at most the lead time (300).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/act"
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/fleet"
	"repro/internal/lifecycle"
	"repro/internal/meta"
	"repro/internal/obs"
	"repro/internal/pfmmodel"
	"repro/internal/runtime"
	"repro/internal/scp"
	ts "repro/internal/timeseries"
)

func main() {
	// SIGINT/SIGTERM end the feed; the pipeline then drains gracefully
	// (bounded, see options.stop) and the exit summary is printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pfmd:", err)
		os.Exit(1)
	}
}

// leadTime is the warning lead time Δtl every mode predicts at [sim s].
const leadTime = 300.0

// drainTimeout bounds a graceful stop, so Ctrl-C always wins within seconds.
const drainTimeout = 10 * time.Second

// What six flags nobody set defaulted to.
const (
	ledgerSlack    = 300 // prediction-period slack Δtp for TP matching [sim s]
	fleetScopes    = 64  // tenants with a dedicated ledger and recorder scope; the rest fold
	driftWarmup    = 240 // score-drift detector self-calibration window [cycles]
	driftThreshold = 8   // score-drift CUSUM threshold [σ]
	driftShadowMin = 20  // resolved shadow predictions before a promotion decision
	driftCooldown  = 200 // cycles a layer is muted after a lifecycle episode
)

// options is the flag set, bound straight into the structs the modes hand
// to the library (runtime.Config, obs.LedgerConfig, lifecycle.Config).
type options struct {
	addr     string
	seed     int64
	days     float64
	compress float64
	eval     float64 // MEA cadence [sim s]
	// rt carries -queue, -overflow and -pprof; the fleet reads its sizing
	// from the same fields, plus -shards.
	rt     runtime.Config
	shards int

	traceCap    int
	traceDump   int
	traceSample int
	ledger      obs.LedgerConfig // -ledger-window
	metaWeights string
	hotswap     bool
	drift       lifecycle.Config
	incidents   incidentOptions // -incident-*

	replayColumnar string

	fleetMode  bool
	tenants    int
	skew       float64
	fleetTrace string
	listen     string
	actBudget  int
	rateLimit  float64

	logFormat, logLevel string
	logger              *slog.Logger
	stdout              io.Writer

	// Test seams, no flag: serving is told the bound address once the
	// endpoints are up; drained runs after the pipeline has stopped, while
	// the endpoints still serve.
	serving func(addr string)
	drained func()
}

// flagSet registers every flag, each bound to the options field it sets.
func (o *options) flagSet(stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("pfmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", ":9600", "metrics/health listen address")
	fs.Int64Var(&o.seed, "seed", 11, "simulation seed")
	fs.Float64Var(&o.days, "days", 1, "replay horizon [simulated days]")
	fs.Float64Var(&o.compress, "compress", 3600, "time compression [simulated seconds per wall second]")
	fs.IntVar(&o.rt.QueueCapacity, "queue", 4096, "ingest queue capacity")
	fs.Func("overflow", "overflow policy: block|drop-oldest|drop-newest (default block)", func(s string) (err error) {
		o.rt.Overflow, err = runtime.ParsePolicy(s)
		return err
	})
	fs.Float64Var(&o.eval, "eval", 60, "MEA cadence [simulated seconds], at most the lead time (300)")
	fs.IntVar(&o.shards, "shards", 0, "ingest shards, each one queue consumer over its consistent-hash share of the tenants (with -fleet; 0 = library default, from GOMAXPROCS)")
	fs.BoolVar(&o.rt.Profiling, "pprof", false, "expose /debug/pprof/ on the metrics address")
	fs.StringVar(&o.logFormat, "log-format", "text", "log output format: text|json")
	fs.StringVar(&o.logLevel, "log-level", "info", "log level: info|debug (debug logs every MEA cycle)")
	fs.IntVar(&o.traceCap, "trace-cap", 256, "end-to-end trace ring capacity (0 disables tracing)")
	fs.IntVar(&o.traceDump, "trace-dump", 0, "print the N slowest end-to-end traces at exit")
	fs.IntVar(&o.traceSample, "trace-sample", obs.DefaultSampleInterval, "trace 1 in N ingested events (1 = every event)")
	fs.Float64Var(&o.ledger.Window, "ledger-window", 0, "rolling quality window [sim s]; 0 = cumulative")
	fs.StringVar(&o.metaWeights, "meta-weights", "", "comma-separated logistic combiner weight per layer (errors,memory,load,swap); empty = threshold voting")
	fs.BoolVar(&o.hotswap, "hotswap", false, "enable the predictor lifecycle: drift-triggered recalibration with shadow validation and zero-downtime hot-swap")
	fs.BoolVar(&o.fleetMode, "fleet", false, "run the multi-tenant fleet runtime instead of the single-instance pipeline")
	fs.IntVar(&o.tenants, "tenants", 100, "fleet size (with -fleet)")
	fs.Float64Var(&o.skew, "skew", 1, "Zipf exponent of the tenant load profile (with -fleet)")
	fs.StringVar(&o.fleetTrace, "fleet-trace", "", "replay a recorded trace file instead of simulating (loggen's .wire or .trace, told apart by magic)")
	fs.StringVar(&o.listen, "listen", "", "accept tenant traces over TCP on this address instead of simulating (with -fleet; binary frames or text line protocol, see loggen -send)")
	fs.IntVar(&o.actBudget, "act-budget", 0, "max tenants that may execute a countermeasure per cycle, criticality-prioritized (with -fleet; 0 = unlimited)")
	fs.Float64Var(&o.rateLimit, "rate-limit", 0, "per-tenant ingest admission cap [events per simulated second]; events over it are shed as ratelimited drops (with -fleet; 0 = unlimited)")
	fs.StringVar(&o.replayColumnar, "replay-columnar", "", "replay a one-tenant trace file (loggen's .wire or .trace, told apart by magic) at full speed instead of simulating")
	fs.StringVar(&o.incidents.dir, "incident-dir", "", "persist captured incident bundles as JSON files in this directory")
	fs.IntVar(&o.incidents.cap, "incident-cap", 32, "retained incident bundles (0 disables the flight recorder)")
	fs.Float64Var(&o.incidents.warn, "incident-warn", 0.5, "combined-confidence gate for warn-triggered incident capture")
	return fs
}

// parseFlags parses the command line into options and builds the logger
// (on stderr; result tables go to stdout).
func parseFlags(args []string, stdout, stderr io.Writer) (*options, error) {
	o := &options{
		stdout: stdout,
		ledger: obs.LedgerConfig{LeadTime: leadTime, Slack: ledgerSlack},
		drift: lifecycle.Config{ScoreWarmup: driftWarmup, ScoreThresholdSigma: driftThreshold,
			ShadowMinResolved: driftShadowMin, CooldownCycles: driftCooldown},
	}
	fs := o.flagSet(stderr)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	// A flag given on the command line that the selected mode never reads is
	// refused, not ignored; defaults are not visited.
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if readBy, ok := flagModes[f.Name]; ok && readBy&o.mode() == 0 {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		return nil, fmt.Errorf("%s: not read in %s mode", strings.Join(unread, ", "), o.mode())
	}
	if o.days <= 0 || o.compress <= 0 {
		return nil, fmt.Errorf("days and compress must be positive")
	}
	// core.Config refuses the same: a cadence longer than the lead time
	// leaves failures no cycle could have warned of.
	if !(o.eval > 0 && o.eval <= leadTime) {
		return nil, fmt.Errorf("-eval %g: the MEA cadence must be positive and at most the lead time, %g simulated seconds", o.eval, leadTime)
	}
	var err error
	if o.logger, err = newLogger(stderr, o.logFormat, o.logLevel); err != nil {
		return nil, err
	}
	if o.traceDump > o.traceCap {
		o.traceCap = o.traceDump
	}
	return o, nil
}

// mode is one of pfmd's three ways to run, as a bit so a flag can name
// several.
type mode uint8

const (
	modeLive     mode = 1 << iota // the SCP simulator, paced by the wall clock
	modeColumnar                  // -replay-columnar
	modeFleet                     // -fleet
)

func (m mode) String() string {
	switch m {
	case modeColumnar:
		return "-replay-columnar"
	case modeFleet:
		return "-fleet"
	}
	return "live"
}

// mode is the mode the flags select.
func (o *options) mode() mode {
	switch {
	case o.replayColumnar != "":
		return modeColumnar
	case o.fleetMode:
		return modeFleet
	}
	return modeLive
}

// flagModes names, for each flag that not every mode reads, the modes that
// do. A flag absent from the table is read by all three.
var flagModes = map[string]mode{
	"seed": modeLive | modeFleet, "days": modeLive | modeFleet, "compress": modeLive | modeFleet,
	"pprof": modeLive | modeColumnar, "trace-dump": modeLive | modeColumnar,
	"meta-weights": modeLive | modeColumnar, "hotswap": modeLive, "replay-columnar": modeColumnar,
	"fleet": modeFleet, "tenants": modeFleet, "skew": modeFleet, "shards": modeFleet,
	"fleet-trace": modeFleet, "listen": modeFleet,
	"act-budget": modeFleet, "rate-limit": modeFleet,
}

// run parses the flags and runs the mode they select until its input ends
// or ctx is canceled.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args, stdout, stderr)
	if err != nil {
		return err
	}
	if o.mode() == modeFleet {
		return runFleet(ctx, o)
	}
	return runSingle(ctx, o)
}

// newTracer builds the -trace-cap/-trace-sample span tracer (nil when
// tracing is off).
func (o *options) newTracer() *obs.Tracer {
	if o.traceCap <= 0 {
		return nil
	}
	tracer := obs.NewTracer(o.traceCap)
	tracer.SetSampleInterval(o.traceSample)
	return tracer
}

// start launches a pipeline (a Runtime's or a Fleet's Start and Serve) and
// its observability endpoints, and returns the bound address. The pipeline
// does not inherit ctx's cancellation: a canceled ctx ends the feed, and
// stop then drains gracefully instead of shedding the backlog.
func (o *options) start(ctx context.Context, start func(context.Context) error,
	serve func(addr string) (*http.Server, string, error)) (*http.Server, string, error) {
	if err := start(context.WithoutCancel(ctx)); err != nil {
		return nil, "", err
	}
	srv, bound, err := serve(o.addr)
	if err == nil && o.serving != nil {
		o.serving(bound)
	}
	return srv, bound, err
}

// stop drains a pipeline gracefully, bounded by drainTimeout.
func (o *options) stop(stop func(context.Context) error) {
	stopCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := stop(stopCtx); err != nil {
		o.logger.Warn("drain incomplete", "err", err)
	}
	if o.drained != nil {
		o.drained()
	}
}

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
func (m *mirror) apply(ev runtime.Event) error {
	switch ev.Kind {
	case runtime.KindError:
		return m.log.Append(ev.Error)
	case runtime.KindSample:
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
// unchanged while the lifecycle (with -hotswap) can refit a scale whose
// signal regime drifted.
func (m *mirror) layers(memFloor float64) []*core.Layer {
	rawErrors := func(now float64) (float64, error) {
		// Application level: detected-error rate over the data window —
		// counted off the time column, nothing materialized.
		lo, hi := m.log.ScanWindow(now-600, now+1e-9)
		return float64(hi-lo) / 600, nil
	}
	rawMemory := func(now float64) (float64, error) {
		// OS/resource level: free-memory depletion trend.
		w := m.sar["mem_free"].Window(now-1200, now+1e-9)
		if w.Len() < 3 {
			return 0, nil
		}
		slope, _, err := w.LinearTrend()
		if err != nil {
			return 0, nil
		}
		score := -slope
		if v, ok := w.Last(); ok && v.V < memFloor {
			score += 1
		}
		return score, nil
	}
	rawLoad := func(now float64) (float64, error) {
		// Platform level: utilization headroom.
		v, ok := m.sar["cpu"].Last()
		if !ok {
			return 0, nil
		}
		return v.V, nil
	}
	rawSwap := func(now float64) (float64, error) {
		// Platform level: swap pressure (already degrading).
		v, ok := m.sar["swap"].Last()
		if !ok {
			return 0, nil
		}
		return v.V, nil
	}
	return []*core.Layer{
		{Name: "errors", Predictor: newCalibrated(rawErrors, 0.05), Threshold: 1},
		{Name: "memory", Predictor: newCalibrated(rawMemory, 0.1), Threshold: 1},
		{Name: "load", Predictor: newCalibrated(rawLoad, 0.85), Threshold: 1},
		{Name: "swap", Predictor: newCalibrated(rawSwap, 0.5), Threshold: 1},
	}
}

// newLogger builds the service logger from the -log-format/-log-level
// flags, writing to w (stderr; result tables stay on stdout).
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "info":
		lv = slog.LevelInfo
	case "debug":
		lv = slog.LevelDebug
	default:
		return nil, fmt.Errorf("unknown log level %q (want info|debug)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text|json)", format)
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
// replay share: mirror state → layered predictors → combiner → action and
// selector → engine → quality ledger → tracer → (lifecycle) → flight
// recorder → runtime, on the run's domain clock.
type pipeline struct {
	o        *options
	mirror   *mirror
	layers   []*core.Layer
	names    []string
	stacker  *meta.Stacker // nil without -meta-weights
	action   *act.Action
	engine   *core.Engine
	ledger   *obs.Ledger
	tracer   *obs.Tracer
	lcm      *lifecycle.Manager // nil without -hotswap
	recorder *obs.Recorder
	diag     *diagProvider
	clock    domainClock
	rt       *runtime.Runtime
}

// newPipeline assembles the wiring; mitigate is the countermeasure's body.
func newPipeline(o *options, mitigate func() error) (*pipeline, error) {
	p := &pipeline{o: o, mirror: newMirror(), tracer: o.newTracer()}
	p.layers = p.mirror.layers(2 * scp.DefaultConfig().SwapThreshold)
	var combiner core.Combiner
	var err error
	if o.metaWeights != "" {
		if p.stacker, err = parseMetaWeights(o.metaWeights, p.layers); err != nil {
			return nil, err
		}
		combiner = p.stacker.Score
		o.logger.Info("meta combiner", "weights", o.metaWeights)
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
	// The runtime drives the engine on the run's domain time.
	p.engine, err = core.New(nil, p.layers, combiner, selector,
		[]*act.Action{p.action}, nil, core.Config{
			EvalInterval:        o.eval,
			LeadTime:            leadTime,
			WarnThreshold:       0.2, // any single layer suffices (4 layers)
			OscillationWindow:   1800,
			MaxActionsPerWindow: 6,
		})
	if err != nil {
		return nil, err
	}

	// Online prediction-quality ledger: journaled by the runtime's act
	// tail, ground truth fed by recordFailure, matched with the engine's
	// lead time Δtl and the ledgerSlack Δtp.
	p.names = make([]string, len(p.layers))
	for i, l := range p.layers {
		p.names[i] = l.Name
	}
	if p.ledger, err = obs.NewLedger(o.ledger, p.names...); err != nil {
		return nil, err
	}

	// Predictor lifecycle (-hotswap): drift-triggered recalibration with
	// shadow validation against the live ledger and zero-downtime swaps.
	if o.hotswap {
		if p.lcm, err = lifecycle.NewManager(p.layers, p.ledger, o.drift); err != nil {
			return nil, err
		}
		o.logger.Info("predictor lifecycle enabled",
			"drift_warmup", o.drift.ScoreWarmup, "drift_threshold_sigma", o.drift.ScoreThresholdSigma,
			"shadow_min_resolved", o.drift.ShadowMinResolved, "cooldown_cycles", o.drift.CooldownCycles)
	}

	// Flight recorder: always-on bounded capture keyed to the act stage's
	// warn/act decisions, lifecycle events, and ledger burn rate.
	if err = p.buildRecorder(); err != nil {
		return nil, err
	}

	cfg := o.rt
	cfg.Engine = p.engine
	cfg.Apply = p.mirror.apply
	cfg.Clock = p.clock.now
	cfg.Tracer, cfg.Ledger, cfg.Lifecycle, cfg.Recorder = p.tracer, p.ledger, p.lcm, p.recorder
	if p.rt, err = runtime.New(cfg); err != nil {
		return nil, err
	}
	if p.lcm != nil {
		p.watchLifecycle()
	}
	return p, nil
}

// recordFailure feeds one ground-truth failure to the quality ledger and
// the incident diagnoser's training set.
func (p *pipeline) recordFailure(t float64) {
	p.ledger.RecordFailure(t)
	if p.diag != nil {
		p.diag.RecordFailure(t)
	}
}

// summary logs the exit report and prints the result tables.
func (p *pipeline) summary() error {
	logger := p.o.logger
	mm := p.rt.Metrics()
	logger.Info("pipeline summary",
		"ingested", mm.Ingested.Value(), "applied", mm.Applied.Value(),
		"dropped", mm.Dropped(), "evaluations", mm.Evaluations.Value(),
		"warnings", mm.Warnings.Value(), "actions", mm.Actions.Value(),
		"suppressed", mm.Suppressed.Value())
	logActionStats(logger, p.action)
	if p.lcm != nil {
		logLifecycle(logger, p.lcm)
	}
	logQuality(logger, p.ledger)
	logModelAssessment(logger, p.ledger)
	logIncidents(logger, p.recorder)
	fmt.Fprint(p.o.stdout, p.engine.Report())
	if p.o.traceDump > 0 && p.tracer != nil {
		fmt.Fprintf(p.o.stdout, "\nslowest %d end-to-end traces:\n\n", p.o.traceDump)
		return obs.WriteText(p.o.stdout, p.tracer.Slowest(p.o.traceDump), runtime.KindLabel)
	}
	return nil
}

// runSingle runs the single-tenant runtime: over the SCP simulator, paced by
// the wall clock at -compress and steered by the pipeline's countermeasure,
// or with -replay-columnar over a recorded one-tenant trace at full speed (a
// recording cannot be steered, so its countermeasure is a no-op and only its
// decision record matters).
func runSingle(ctx context.Context, o *options) error {
	var src fleet.Source
	var sys *scp.System
	mitigate := func() error { return nil }
	if o.replayColumnar != "" {
		trace, closer, err := fleet.OpenTrace(o.replayColumnar)
		if err != nil {
			return err
		}
		defer closer.Close()
		src = trace
	} else {
		m, err := scp.NewMulti(scp.MultiConfig{Tenants: 1, BaseSeed: o.seed})
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
		src = o.simulate(ctx, m)
	}
	p, err := newPipeline(o, mitigate)
	if err != nil {
		return err
	}
	if sys != nil {
		p.logDecisions()
	}
	logger := o.logger
	srv, bound, err := o.start(ctx, p.rt.Start, p.rt.Serve)
	if err != nil {
		return err
	}
	defer srv.Close()
	logger.Info("serving observability endpoints",
		"addr", bound, "tracez", p.tracer != nil, "ledger", true, "pprof", o.rt.Profiling)
	source := fmt.Sprintf("simulator, %g days at %g×", o.days, o.compress)
	if sys == nil {
		source = o.replayColumnar
	}
	logger.Info("replay starting", "source", source, "cadence_sim_s", o.eval, "policy", o.rt.Overflow.String())

	started := time.Now()
	events, err := p.feed(ctx, newStepper(src, o.eval, &p.clock, func(nows []float64) error {
		if err := p.rt.Barrier(ctx); err != nil {
			return err
		}
		p.clock.advance(nows[len(nows)-1])
		p.rt.CycleBatch(nows)
		return nil
	}))
	o.stop(p.rt.Stop)
	if err != nil && ctx.Err() == nil {
		return err
	}
	elapsed := time.Since(started)
	logger.Info("replay complete",
		"events", events, "wall_seconds", elapsed.Seconds(),
		"events_per_sec", int64(float64(events)/elapsed.Seconds()),
		"sim_days", p.clock.now()/86400, "cycles", p.rt.Cycles())
	if sys != nil {
		logger.Info("system summary",
			"availability", sys.MeasuredAvailability(),
			"failures", len(sys.Failures()), "restarts", len(sys.Restarts()))
	}
	return p.summary()
}

// logDecisions is the structured decision log: every MEA cycle at debug,
// warnings at info, linked to the newest completed /tracez span.
func (p *pipeline) logDecisions() {
	logger, tracer, names := p.o.logger, p.tracer, p.names
	p.engine.SetCycleObserver(func(now float64, scores []float64, d core.Decision) {
		attrs := []any{
			slog.Float64("sim_now", now),
			slog.Float64("confidence", d.Confidence),
			slog.Bool("warned", d.Warned),
			slog.String("action", d.ActionName),
			slog.Bool("executed", d.Executed),
			slog.Bool("suppressed", d.Suppressed),
		}
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
	lcm, stacker, tracer, logger := p.lcm, p.stacker, p.tracer, p.o.logger
	lcm.Subscribe(func(e lifecycle.Event) {
		attrs := []any{
			slog.String("layer", e.Layer),
			slog.String("event", string(e.Type)),
			slog.Uint64("version", e.Version),
			slog.Float64("sim_now", e.Time),
		}
		switch e.Type {
		case lifecycle.EventSwapped, lifecycle.EventShadowDiscarded,
			lifecycle.EventConfirmed, lifecycle.EventRolledBack:
			attrs = append(attrs,
				slog.Float64("candidate_f", e.CandidateF),
				slog.Float64("incumbent_f", e.IncumbentF))
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
		switch e.Type {
		case lifecycle.EventSwapped, lifecycle.EventConfirmed, lifecycle.EventRolledBack:
			logger.Info("predictor swap decision", attrs...)
		default:
			logger.Info("predictor lifecycle", attrs...)
		}
	})
	if stacker == nil {
		return
	}
	// Probation discount: trust a just-swapped predictor at half its
	// configured weight until the swap is confirmed (or rolled back).
	const probationDiscount = 0.5
	initial := make(map[string]float64, len(p.layers))
	for _, l := range p.layers {
		if w, err := stacker.Weight(l.Name); err == nil {
			initial[l.Name] = w
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

// logActionStats reports the countermeasure's execution record.
func logActionStats(logger *slog.Logger, a *act.Action) {
	s := a.Stats()
	logger.Info("action stats", "action", a.Name(),
		"executions", s.Executions, "failures", s.Failures,
		"mean_duration", s.MeanDuration(), "last_duration", s.LastDuration)
}

// logQuality reports the ledger's per-layer online quality tables.
func logQuality(logger *slog.Logger, led *obs.Ledger) {
	for _, layer := range led.Layers() {
		c := led.Cumulative(layer)
		attrs := []any{
			slog.String("layer", layer),
			slog.Int("tp", c.TP), slog.Int("fp", c.FP),
			slog.Int("tn", c.TN), slog.Int("fn", c.FN),
		}
		for _, m := range []struct {
			name string
			v    float64
		}{
			{"precision", c.Precision()}, {"recall", c.Recall()},
			{"fpr", c.FPR()}, {"f1", c.FMeasure()},
		} {
			if !math.IsNaN(m.v) {
				attrs = append(attrs, slog.Float64(m.name, m.v))
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
		"measured_precision", a.Measured.Precision,
		"measured_recall", a.Measured.Recall,
		"measured_fpr", a.Measured.FPR,
		"measured_availability", a.Measured.Availability,
		"reference_availability", a.Reference.Availability,
		"availability_delta", a.AvailabilityDelta,
		"unavailability_ratio", a.Measured.UnavailabilityRatio,
		"reference_unavailability_ratio", a.Reference.UnavailabilityRatio,
		"unavailability_ratio_delta", a.UnavailabilityRatioDelta,
		"mttf_relative", a.MTTFRelative,
		"hazard_at_mttf", a.Measured.HazardAtMTTF)
}
