// Command pfmd runs the PFM library as a long-running service. pfmd is its
// flags: it reads them, fills in a service.Config and calls internal/service,
// which assembles and runs the product — the single-tenant streaming MEA
// runtime over the SCP simulator (paced by the wall clock at -compress) or a
// recorded trace, or the multi-tenant fleet — with the flight recorder and,
// with -hotswap, the predictor lifecycle. Every mode cycles on its input's
// own time, so a run without -hotswap is a deterministic function of its
// flags.
//
// Observability: /metrics (Prometheus text), /healthz and /readyz
// (readiness), /livez (liveness), /tracez (end-to-end span traces),
// /ledger (online Sect. 3.3 prediction quality), /layers (predictor
// lifecycle state, with -hotswap) and /incidents (flight-recorder bundles)
// on -addr while the input runs; with -fleet, /fleet too. README's "Run it
// as a service" walks through each.
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
// -fleet runs the multi-tenant fleet and -replay-columnar replays
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
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/service"
)

func main() {
	// SIGINT/SIGTERM end the feed; the pipeline then drains gracefully
	// (bounded, see internal/service) and the exit summary is printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pfmd:", err)
		os.Exit(1)
	}
}

// leadTime is the warning lead time Δtl every mode predicts at [sim s]: the
// ledger scores at it and the engines warn at it.
const leadTime = 300.0

// What six flags nobody set defaulted to.
const (
	ledgerSlack    = 300                 // prediction-period slack Δtp for TP matching [sim s]
	fleetScopes    = service.FleetScopes // the service's: tenants with a dedicated ledger and recorder scope
	driftWarmup    = 240                 // score-drift detector self-calibration window [cycles]
	driftThreshold = 8                   // score-drift CUSUM threshold [σ]
	driftShadowMin = 20                  // resolved shadow predictions before a promotion decision
	driftCooldown  = 200                 // cycles a layer is muted after a lifecycle episode
)

// options is the flag set, bound straight into the structs the service hands
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
	incidents   struct {
		dir  string  // bundle sink directory ("" = in-memory only)
		cap  int     // retained bundles (0 disables the recorder)
		warn float64 // combined-confidence gate for warn-triggered capture
	}

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

	// Test seams, no flag: service.Config's Serving and Drained.
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

var modeNames = map[mode]string{modeLive: "live", modeColumnar: "-replay-columnar", modeFleet: "-fleet"}

func (m mode) String() string { return modeNames[m] }

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

// config is the run the flags describe.
func (o *options) config() service.Config {
	c := service.Config{
		Addr: o.addr, Seed: o.seed, Days: o.days, Compress: o.compress, Eval: o.eval,
		Runtime: o.rt, Shards: o.shards,
		TraceCap: o.traceCap, TraceSample: o.traceSample, TraceDump: o.traceDump,
		Ledger: o.ledger, MetaWeights: o.metaWeights,
		IncidentDir: o.incidents.dir, IncidentCap: o.incidents.cap, IncidentWarn: o.incidents.warn,
		ReplayColumnar: o.replayColumnar, Tenants: o.tenants, Skew: o.skew,
		FleetTrace: o.fleetTrace, Listen: o.listen, ActBudget: o.actBudget, RateLimit: o.rateLimit,
		Logger: o.logger, Stdout: o.stdout, Serving: o.serving, Drained: o.drained,
	}
	if o.hotswap {
		c.Hotswap = &o.drift
	}
	return c
}

// runSingle runs the single-tenant modes, live and -replay-columnar.
func runSingle(ctx context.Context, o *options) error { return service.RunSingle(ctx, o.config()) }

// runFleet runs -fleet.
func runFleet(ctx context.Context, o *options) error { return service.RunFleet(ctx, o.config()) }

// newLogger builds the service logger from the -log-format/-log-level
// flags, writing to w (stderr; result tables stay on stdout).
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{} // info
	switch level {
	case "info":
	case "debug":
		opts.Level = slog.LevelDebug
	default:
		return nil, fmt.Errorf("unknown log level %q (want info|debug)", level)
	}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text|json)", format)
	}
}
