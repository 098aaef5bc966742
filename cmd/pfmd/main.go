// Command pfmd runs the PFM library as a long-running service. pfmd is its
// flags: each binds straight into a field of one service.Config, and
// service.Run assembles and runs the product — the single-tenant streaming
// MEA runtime over the SCP simulator (paced by the wall clock at -compress)
// or a recorded trace, or the multi-tenant fleet — with the flight recorder
// and, with -hotswap, the predictor lifecycle. Every mode cycles on its
// input's own time, so a run without -hotswap is a deterministic function of
// its flags.
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
// the selected mode does not read is an error. -pprof (/debug/pprof/ on
// -addr) and -trace-dump (the slowest traces, printed at exit) are read in
// every mode. -eval is the MEA cadence in
// simulated seconds in every mode, at most the lead time (300). pfmd refuses
// unknown flags, unread ones and a bad -overflow, -log-format or -log-level;
// service.Run refuses the values no run can use.
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

// run parses the flags and runs the mode they select until its input ends
// or ctx is canceled.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	c, err := parseFlags(args, stdout, stderr)
	if err != nil {
		return err
	}
	return service.Run(ctx, c)
}

// flagSet registers every flag, each bound to the field of c it sets;
// -log-format and -log-level both set c.Logger, which writes to stderr
// (result tables go to stdout).
func flagSet(c *service.Config, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("pfmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	level := new(slog.LevelVar) // info
	c.Logger = slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level}))
	fs.StringVar(&c.Addr, "addr", ":9600", "metrics/health listen address")
	fs.Int64Var(&c.Seed, "seed", 11, "simulation seed")
	fs.Float64Var(&c.Days, "days", 1, "replay horizon [simulated days]")
	fs.Float64Var(&c.Compress, "compress", 3600, "time compression [simulated seconds per wall second]")
	fs.IntVar(&c.QueueCapacity, "queue", 4096, "ingest queue capacity")
	fs.Func("overflow", "overflow policy: block|drop-oldest|drop-newest (default block)", func(s string) (err error) {
		c.Overflow, err = runtime.ParsePolicy(s)
		return err
	})
	fs.Float64Var(&c.Eval, "eval", 60, "MEA cadence [simulated seconds], at most the lead time (300)")
	fs.IntVar(&c.Shards, "shards", 0, "ingest shards, each one queue consumer over its consistent-hash share of the tenants (with -fleet; 0 = library default, from GOMAXPROCS)")
	fs.BoolVar(&c.Profiling, "pprof", false, "expose /debug/pprof/ on the metrics address")
	fs.Func("log-format", "log output format: text|json (default text)", func(s string) error {
		opts := &slog.HandlerOptions{Level: level}
		switch s {
		case "text":
			c.Logger = slog.New(slog.NewTextHandler(stderr, opts))
		case "json":
			c.Logger = slog.New(slog.NewJSONHandler(stderr, opts))
		default:
			return fmt.Errorf("unknown log format %q (want text|json)", s)
		}
		return nil
	})
	fs.Func("log-level", "log level: info|debug (debug logs every MEA cycle; default info)", func(s string) error {
		switch s {
		case "info":
			level.Set(slog.LevelInfo)
		case "debug":
			level.Set(slog.LevelDebug)
		default:
			return fmt.Errorf("unknown log level %q (want info|debug)", s)
		}
		return nil
	})
	fs.IntVar(&c.TraceCap, "trace-cap", 256, "end-to-end trace ring capacity (0 disables tracing)")
	fs.IntVar(&c.TraceDump, "trace-dump", 0, "print the N slowest end-to-end traces at exit")
	fs.IntVar(&c.TraceSample, "trace-sample", obs.DefaultSampleInterval, "trace 1 in N ingested events (1 = every event)")
	fs.Float64Var(&c.LedgerWindow, "ledger-window", 0, "rolling quality window [sim s]; 0 = cumulative")
	fs.StringVar(&c.MetaWeights, "meta-weights", "", "comma-separated logistic combiner weight per layer (errors,memory,load,swap); empty = threshold voting")
	fs.BoolVar(&c.Hotswap, "hotswap", false, "enable the predictor lifecycle: drift-triggered recalibration with shadow validation and zero-downtime hot-swap")
	fs.BoolVar(&c.Fleet, "fleet", false, "run the multi-tenant fleet runtime instead of the single-instance pipeline")
	fs.IntVar(&c.Tenants, "tenants", 100, "fleet size (with -fleet)")
	fs.Float64Var(&c.Skew, "skew", 1, "Zipf exponent of the tenant load profile (with -fleet)")
	fs.StringVar(&c.FleetTrace, "fleet-trace", "", "replay a recorded trace file instead of simulating (loggen's .wire or .trace, told apart by magic)")
	fs.StringVar(&c.Listen, "listen", "", "accept tenant traces over TCP on this address instead of simulating (with -fleet; binary frames or text line protocol, see loggen -send)")
	fs.IntVar(&c.ActBudget, "act-budget", 0, "max tenants that may execute a countermeasure per cycle, criticality-prioritized (with -fleet; 0 = unlimited)")
	fs.Float64Var(&c.RateLimit, "rate-limit", 0, "per-tenant ingest admission cap [events per simulated second]; events over it are shed as ratelimited drops (with -fleet; 0 = unlimited)")
	fs.StringVar(&c.ReplayColumnar, "replay-columnar", "", "replay a one-tenant trace file (loggen's .wire or .trace, told apart by magic) at full speed instead of simulating")
	fs.StringVar(&c.IncidentDir, "incident-dir", "", "persist captured incident bundles as JSON files in this directory")
	fs.IntVar(&c.IncidentCap, "incident-cap", 32, "retained incident bundles (0 disables the flight recorder)")
	fs.Float64Var(&c.IncidentWarn, "incident-warn", 0.5, "combined-confidence gate for warn-triggered incident capture")
	return fs
}

// parseFlags parses the command line into the run's Config. A flag given on
// the command line that the selected mode never reads is refused, not
// ignored; defaults are not visited.
func parseFlags(args []string, stdout, stderr io.Writer) (service.Config, error) {
	c := service.Config{Stdout: stdout}
	fs := flagSet(&c, stderr)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	selected := modeOf(&c)
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if readBy, ok := flagModes[f.Name]; ok && readBy&selected == 0 {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		return c, fmt.Errorf("%s: not read in %s mode", strings.Join(unread, ", "), selected)
	}
	return c, nil
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

// modeOf is the mode c's flags select.
func modeOf(c *service.Config) mode {
	switch {
	case c.ReplayColumnar != "":
		return modeColumnar
	case c.Fleet:
		return modeFleet
	}
	return modeLive
}

// flagModes names, for each flag that not every mode reads, the modes that
// do. A flag absent from the table is read by all three.
var flagModes = map[string]mode{
	"seed": modeLive | modeFleet, "days": modeLive | modeFleet, "compress": modeLive | modeFleet,
	"meta-weights": modeLive | modeColumnar, "hotswap": modeLive, "replay-columnar": modeColumnar,
	"fleet": modeFleet, "tenants": modeFleet, "skew": modeFleet, "shards": modeFleet,
	"fleet-trace": modeFleet, "listen": modeFleet,
	"act-budget": modeFleet, "rate-limit": modeFleet,
}
