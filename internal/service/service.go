// Package service is the product pfmd runs: the PFM library assembled into
// a long-running service. RunSingle runs the streaming MEA runtime
// (internal/runtime) over the SCP simulator, paced by the wall clock, whose
// act stage it steers directly, or over a recorded one-tenant trace at full
// speed. RunFleet runs the multi-tenant fleet (internal/fleet) over the
// simulator, a recorded trace or a TCP listener.
//
// Both run one skeleton (serve): start the pipeline and its observability
// endpoints, pump the input through a fleet.Stepper that runs an MEA cycle at
// every Eval simulated seconds of the input's own time on the feeding
// goroutine, drain gracefully, log the exit summary. So a run without
// Hotswap (whose retrains land on background goroutines) is a deterministic
// function of its Config, RateLimit included: a tenant's token bucket
// decides at admission, on the input's own time.
//
// Both modes carry the flight recorder (incidents.go), which assembles a
// correlated incident bundle whenever a warning clears IncidentWarn, a
// countermeasure fires, a predictor drifts or rolls back, or ledger quality
// burns down. With Hotswap the single-tenant pipeline runs the predictor
// lifecycle: drift detection, a recalibrated candidate validated in shadow,
// and a swap without pausing the MEA loop.
package service

import (
	"context"
	"io"
	"log/slog"
	"math"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/scp"
)

// Config is one run of the product: the values pfmd's flags set, and where
// the run writes.
type Config struct {
	Addr     string         // -addr: the observability endpoints
	Seed     int64          // -seed: the simulator's
	Days     float64        // -days: the simulator's horizon
	Compress float64        // -compress: simulated seconds per wall second
	Eval     float64        // -eval: the MEA cadence [sim s]
	Runtime  runtime.Config // -queue, -overflow, -pprof; the fleet sizes its queues from it too
	Shards   int            // -shards

	TraceCap, TraceSample, TraceDump int               // -trace-cap, -trace-sample, -trace-dump
	Ledger                           obs.LedgerConfig  // -ledger-window, at pfmd's lead time and slack
	MetaWeights                      string            // -meta-weights
	Hotswap                          *lifecycle.Config // -hotswap's predictor lifecycle; nil runs without

	IncidentDir  string  // -incident-dir
	IncidentCap  int     // -incident-cap
	IncidentWarn float64 // -incident-warn

	ReplayColumnar string // -replay-columnar

	Tenants    int     // -tenants
	Skew       float64 // -skew
	FleetTrace string  // -fleet-trace
	Listen     string  // -listen
	ActBudget  int     // -act-budget
	RateLimit  float64 // -rate-limit

	Logger  *slog.Logger      // -log-format, -log-level: progress and decisions
	Stdout  io.Writer         // the result tables
	Serving func(addr string) // told the bound address once the endpoints are up
	Drained func()            // runs once the pipeline stopped, while the endpoints still serve
}

// FleetScopes is how many tenants get a dedicated ledger and recorder
// scope; the rest fold into one.
const FleetScopes = 64

// drainTimeout bounds a graceful stop, so Ctrl-C always wins within seconds.
const drainTimeout = 10 * time.Second

// A mode is what one run serves — the single-tenant pipeline or the fleet —
// and what it logs around the run.
type mode interface {
	Start(context.Context) error
	Serve(addr string) (*http.Server, string, error)
	Stop(context.Context) error
	started(addr string)                                     // the endpoints are up
	pump(ctx context.Context, src fleet.Source) (int, error) // the input, until it ends
	cycle(ctx context.Context, nows []float64) error         // the stepper's boundaries
	summary(records int, elapsed time.Duration) error        // after the drain
}

// serve runs m over src: start, endpoints, the input through a stepper on
// clock, a graceful stop bounded by drainTimeout, the exit summary. The
// pipeline does not inherit ctx's cancellation: a canceled ctx ends the feed,
// and Stop then drains gracefully instead of shedding the backlog.
func serve(ctx context.Context, cfg *Config, m mode, src fleet.Source, clock *fleet.Clock) error {
	if err := m.Start(context.WithoutCancel(ctx)); err != nil {
		return err
	}
	srv, bound, err := m.Serve(cfg.Addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	if cfg.Serving != nil {
		cfg.Serving(bound)
	}
	m.started(bound)
	began := time.Now()
	n, err := m.pump(ctx, fleet.NewStepper(src, cfg.Eval, clock, func(nows []float64) error {
		return m.cycle(ctx, nows)
	}))
	stopCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := m.Stop(stopCtx); err != nil {
		cfg.Logger.Warn("drain incomplete", "err", err)
	}
	if cfg.Drained != nil {
		cfg.Drained()
	}
	if err != nil && ctx.Err() == nil {
		return err
	}
	return m.summary(n, time.Since(began))
}

// engine is every mode's engine configuration: a cycle every Eval, warning
// at the lead time the ledger scores at, once the combined confidence
// reaches warn.
func (cfg *Config) engine(warn float64) core.Config {
	return core.Config{EvalInterval: cfg.Eval, LeadTime: cfg.Ledger.LeadTime, WarnThreshold: warn,
		OscillationWindow: 1800, MaxActionsPerWindow: 6}
}

// newTracer builds the span tracer (nil when tracing is off).
func (cfg *Config) newTracer() *obs.Tracer {
	if cfg.TraceCap <= 0 {
		return nil
	}
	tracer := obs.NewTracer(cfg.TraceCap)
	tracer.SetSampleInterval(cfg.TraceSample)
	return tracer
}

// simSource yields a MultiSystem's merged trace, running every tenant one
// slice of simulated time whenever the last slice's records are used up,
// until the horizon.
type simSource struct {
	m              *scp.MultiSystem
	horizon, slice float64 // simulated seconds
	ran            float64
	recs           []fleet.Record
	i              int
}

func (s *simSource) Next() (fleet.Record, error) {
	for s.i == len(s.recs) {
		if s.ran >= s.horizon {
			return fleet.Record{}, io.EOF
		}
		step := math.Min(s.slice, s.horizon-s.ran)
		if err := s.m.Run(step); err != nil {
			return fleet.Record{}, err
		}
		s.ran += step
		s.recs, s.i = fleet.SCPRecords(s.m.Drain()), 0
	}
	s.i++
	return s.recs[s.i-1], nil
}

// simulate is the simulator source, paced against the wall clock at
// Compress. It runs the simulator a cadence at a time, so a countermeasure
// lands at most a cadence or two after the cycle that chose it whatever the
// compression: a live run depends on Seed, Eval and Days, not on the pace.
func (cfg *Config) simulate(ctx context.Context, m *scp.MultiSystem) fleet.Source {
	sim := &simSource{m: m, horizon: cfg.Days * 86400, slice: cfg.Eval}
	return &pacedSource{ctx: ctx, src: sim, compress: cfg.Compress}
}

// pacedSource hands each record of src on once its domain time is due at
// compress simulated seconds per wall second, counted from the first
// record: that one is due when it arrives, whatever time base it carries.
type pacedSource struct {
	ctx      context.Context
	src      fleet.Source
	compress float64
	start    time.Time // when the first record arrived
	t0       float64   // its domain time
}

func (p *pacedSource) Next() (fleet.Record, error) {
	rec, err := p.src.Next()
	if err != nil {
		return rec, err
	}
	if p.start.IsZero() {
		p.start, p.t0 = time.Now(), rec.Event.Time
	}
	due := p.start.Add(time.Duration((rec.Event.Time - p.t0) / p.compress * float64(time.Second)))
	if wait := time.Until(due); wait > 0 {
		select {
		case <-p.ctx.Done():
			return fleet.Record{}, p.ctx.Err()
		case <-time.After(wait):
		}
	}
	return rec, nil
}
