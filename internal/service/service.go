// Package service is the product pfmd runs: the PFM library assembled into
// a long-running service. A Config is one run, as plain values: pfmd's flag
// values, and where the run writes. Run is the entry point: it checks the
// values, then runs either the streaming MEA runtime (internal/runtime) over
// the SCP simulator, paced by the wall clock, whose act stage it steers
// directly, or over a recorded one-tenant trace at full speed; or, with
// Fleet, the multi-tenant fleet (internal/fleet) over the simulator, a
// recorded trace or a TCP listener. The product's constants — the lead time,
// the ledger slack, the fleet's scopes, Hotswap's drift settings and the
// burn-rate floor — live here, beside the engines, ledgers and lifecycle
// they configure.
//
// Both modes run one skeleton (serve): start the pipeline and its
// observability endpoints, pump the input through a fleet.Stepper that runs
// an MEA cycle at every Eval simulated seconds of the input's own time on
// the feeding goroutine, drain gracefully, log the exit summary. So a run without
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
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/scp"
)

// Config is one run of the product: every pfmd flag's value, plain, and
// where the run writes. Run checks the values before anything starts.
type Config struct {
	Addr     string  // -addr: the observability endpoints
	Seed     int64   // -seed: the simulator's
	Days     float64 // -days: the simulator's horizon
	Compress float64 // -compress: simulated seconds per wall second
	Eval     float64 // -eval: the MEA cadence [sim s], at most the lead time

	QueueCapacity int                    // -queue: the ingest queue's, each shard's with Fleet
	Overflow      runtime.OverflowPolicy // -overflow
	Profiling     bool                   // -pprof: /debug/pprof/ on Addr
	Shards        int                    // -shards

	TraceCap, TraceSample, TraceDump int     // -trace-cap, -trace-sample, -trace-dump
	LedgerWindow                     float64 // -ledger-window: the rolling quality window [sim s]
	MetaWeights                      string  // -meta-weights
	Hotswap                          bool    // -hotswap: the predictor lifecycle

	IncidentDir  string  // -incident-dir
	IncidentCap  int     // -incident-cap
	IncidentWarn float64 // -incident-warn

	ReplayColumnar string // -replay-columnar

	Fleet      bool    // -fleet
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

// What every run predicts at: the engines warn at the lead time Δtl, and the
// ledger scores a warning a hit when a failure follows within Δtl plus the
// slack Δtp.
const (
	leadTime    = 300.0 // [sim s]
	ledgerSlack = 300.0 // [sim s]
)

// fleetScopes is how many tenants get a dedicated ledger and recorder scope;
// the rest fold into one.
const fleetScopes = 64

// Hotswap's drift detector and promotion rule.
const (
	driftWarmup    = 240 // score-drift detector self-calibration window [cycles]
	driftThreshold = 8   // score-drift CUSUM threshold [σ]
	driftShadowMin = 20  // resolved shadow predictions before a promotion decision
	driftCooldown  = 200 // cycles a layer is muted after a lifecycle episode
)

// drainTimeout bounds a graceful stop, so Ctrl-C always wins within seconds.
const drainTimeout = 10 * time.Second

// Run runs the product cfg describes until its input ends or ctx is
// canceled: with Fleet the multi-tenant fleet, otherwise the single-tenant
// runtime over ReplayColumnar's trace or the simulator. Values no run can
// use are refused, naming their flag, before anything starts.
func Run(ctx context.Context, cfg Config) error {
	if err := cfg.check(); err != nil {
		return err
	}
	if cfg.Fleet {
		return runFleet(ctx, &cfg)
	}
	return runSingle(ctx, &cfg)
}

// check refuses the values the selected mode cannot run with, and raises
// TraceCap to TraceDump so the dump has the traces it prints.
func (cfg *Config) check() error {
	if (cfg.Fleet || cfg.ReplayColumnar == "") && !(cfg.Days > 0 && cfg.Compress > 0) {
		return fmt.Errorf("days and compress must be positive")
	}
	// core.Config refuses the same: a cadence longer than the lead time
	// leaves failures no cycle could have warned of.
	if !(cfg.Eval > 0 && cfg.Eval <= leadTime) {
		return fmt.Errorf("-eval %g: the MEA cadence must be positive and at most the lead time, %g simulated seconds", cfg.Eval, leadTime)
	}
	if cfg.Fleet && cfg.Tenants < 1 {
		return fmt.Errorf("-tenants must be >= 1")
	}
	if cfg.TraceDump > cfg.TraceCap {
		cfg.TraceCap = cfg.TraceDump
	}
	return nil
}

// ledger is every mode's ledger configuration: Sect. 3.3 matching at the lead
// time and slack, gauges over LedgerWindow.
func (cfg *Config) ledger() obs.LedgerConfig {
	return obs.LedgerConfig{LeadTime: leadTime, Slack: ledgerSlack, Window: cfg.LedgerWindow}
}

// driftConfig is Hotswap's predictor lifecycle: the library's defaults but
// for the detector's warm-up and threshold, the shadow sample and the
// cooldown.
func driftConfig() lifecycle.Config {
	return lifecycle.Config{ScoreWarmup: driftWarmup, ScoreThresholdSigma: driftThreshold,
		ShadowMinResolved: driftShadowMin, CooldownCycles: driftCooldown}
}

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
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		return m.Stop(ctx)
	}
	srv, bound, err := m.Serve(cfg.Addr)
	if err != nil { // the address is taken: stop what Start started
		_ = stop()
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
	if err := stop(); err != nil {
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
	return core.Config{EvalInterval: cfg.Eval, LeadTime: leadTime, WarnThreshold: warn,
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
	recs           []ingest.Record
	i              int
}

func (s *simSource) Next() (ingest.Record, error) {
	for s.i == len(s.recs) {
		if s.ran >= s.horizon {
			return ingest.Record{}, io.EOF
		}
		step := math.Min(s.slice, s.horizon-s.ran)
		if err := s.m.Run(step); err != nil {
			return ingest.Record{}, err
		}
		s.ran += step
		s.recs, s.i = s.m.Drain(), 0
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

func (p *pacedSource) Next() (ingest.Record, error) {
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
			return ingest.Record{}, p.ctx.Err()
		case <-time.After(wait):
		}
	}
	return rec, nil
}
