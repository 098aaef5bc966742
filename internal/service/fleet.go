package service

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"time"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/scp"
)

// fleetState is one tenant's monitoring mirror: EWMA utilization over the
// load samples plus a decaying error-pressure signal — small enough to
// keep thousands of tenants resident.
type fleetState struct {
	capacity float64
	util     float64 // EWMA of load/capacity
	errs     float64 // decaying error pressure
}

func (s *fleetState) apply(ev ingest.Event) error {
	if ev.Kind == ingest.KindError {
		if ev.Error.Severity >= 2 {
			s.errs += 1
		} else {
			s.errs += 0.25
		}
		return nil
	}
	if ev.Variable == "load" {
		s.util = 0.8*s.util + 0.2*ev.Value/s.capacity
		s.errs *= 0.9 // samples arrive on a fixed grid: decay per tick
	}
	return nil
}

// fleetLayers builds the two shared layer templates: utilization (batched
// scorer, exercising the cross-tenant batch path) and error pressure.
func fleetLayers() []fleet.LayerTemplate {
	return []fleet.LayerTemplate{
		{
			Name: "load", Threshold: 0.85,
			ScoreBatch: func(states []fleet.TenantState, _ float64, out []float64) error {
				for i, st := range states {
					out[i] = st.(*fleetState).util
				}
				return nil
			},
		},
		{
			Name: "errors", Threshold: 0.6,
			Score: func(st fleet.TenantState, _ float64) (float64, error) {
				return 1 - math.Exp(-st.(*fleetState).errs/3), nil
			},
		},
	}
}

// fleetRun is the fleet as a mode: its ledger, clock and input, for the
// logs around the run.
type fleetRun struct {
	*fleet.Fleet
	cfg    *Config
	led    *obs.ScopedLedger
	clock  fleet.Clock
	ls     *fleet.ListenSource // nil unless the input is Listen
	source string
}

// newFleet assembles the fleet: cfg.Tenants simulated tenants' membership
// and load shape (a trace file or a listener names the same tenants: loggen
// uses the scheme), their states and layers, the scoped ledger and recorder.
func newFleet(cfg *Config) (*fleetRun, *scp.MultiSystem, error) {
	multi, err := scp.NewMulti(scp.MultiConfig{Tenants: cfg.Tenants, BaseSeed: cfg.Seed, Skew: cfg.Skew})
	if err != nil {
		return nil, nil, err
	}
	weights := multi.Weights()
	specs := make([]fleet.TenantSpec, len(weights))
	for i, id := range multi.IDs() {
		// Hot tenants are also the critical ones: criticality follows the
		// Zipf weight, so the availability rollup reflects service impact.
		specs[i] = fleet.TenantSpec{ID: id, Criticality: weights[i], RateLimit: cfg.RateLimit}
	}

	r := &fleetRun{cfg: cfg}
	scpCfg := scp.DefaultConfig()
	layers := fleetLayers()
	names := make([]string, len(layers))
	for i, l := range layers {
		names[i] = l.Name
	}
	if r.led, err = obs.NewScopedLedger(cfg.ledger(), fleetScopes, names...); err != nil {
		return nil, nil, err
	}
	tracer := cfg.newTracer()
	recorder, err := cfg.fleetRecorder(names, tracer)
	if err != nil {
		return nil, nil, err
	}
	r.Fleet, err = fleet.New(fleet.Config{
		Tenants:       specs,
		Layers:        layers,
		NewState:      func(fleet.TenantSpec) (fleet.TenantState, error) { return &fleetState{capacity: scpCfg.Capacity}, nil },
		Apply:         func(st fleet.TenantState, ev ingest.Event) error { return st.(*fleetState).apply(ev) },
		Engine:        cfg.engine(0.5),
		Shards:        cfg.Shards,
		QueueCapacity: cfg.QueueCapacity,
		Overflow:      cfg.Overflow,
		ActBudget:     cfg.ActBudget,
		Clock:         r.clock.Now,
		Tracer:        tracer,
		Ledger:        r.led,
		Recorder:      recorder,
		JournalLayers: true,
	})
	return r, multi, err
}

// runFleet runs the multi-tenant fleet over a TCP listener (Listen), a
// recorded trace (FleetTrace) paced at Compress, or the simulator.
func runFleet(ctx context.Context, cfg *Config) error {
	r, multi, err := newFleet(cfg)
	if err != nil {
		return err
	}

	// The input: a TCP listener (senders pace themselves against the fleet's
	// backpressure), a recorded trace paced at Compress, or the simulator.
	var src fleet.Source
	switch {
	case cfg.Listen != "":
		if r.ls, err = fleet.Listen(cfg.Listen); err != nil {
			return err
		}
		defer r.ls.Close()
		// The listen edge on the fleet's /metrics plane: records ÷ slabs says
		// whether full slabs or flush-on-idle drive the hand-offs.
		r.ls.RegisterMetrics(r.Metrics().Registry())
		defer context.AfterFunc(ctx, func() { _ = r.ls.Close() })()
		src, r.source = r.ls, "listen "+r.ls.Addr()
	case cfg.FleetTrace != "":
		trace, closer, err := fleet.OpenTrace(cfg.FleetTrace)
		if err != nil {
			return err
		}
		defer closer.Close()
		src = &pacedSource{ctx: ctx, src: trace, compress: cfg.Compress}
		r.source = cfg.FleetTrace
	default:
		src, r.source = cfg.simulate(ctx, multi), "simulator"
	}
	return serve(ctx, cfg, r, src, &r.clock)
}

func (r *fleetRun) started(addr string) {
	cfg := r.cfg
	cfg.Logger.Info("fleet started",
		"tenants", cfg.Tenants, "skew", cfg.Skew, "shards", r.Shards(),
		"addr", addr, "source", r.source, "cadence_sim_s", cfg.Eval)
}

// cycle moves the clock to each boundary, then applies what was admitted
// before it and runs the boundary's cycle. The stepper moves the clock to a
// record's time before the record is pushed, so with RateLimit a tenant's
// bucket refills on the input's own time.
func (r *fleetRun) cycle(ctx context.Context, nows []float64) error {
	for _, b := range nows {
		r.clock.Advance(b)
		if err := r.Barrier(ctx); err != nil {
			return err
		}
		r.EvaluateCycle()
	}
	return nil
}

func (r *fleetRun) pump(ctx context.Context, src fleet.Source) (int, error) {
	n, err := fleet.Pump(ctx, r.Fleet, src)
	attrs := []any{"records", n, "sim_now", r.clock.Now()}
	if r.ls != nil {
		attrs = append(attrs, "conns", r.ls.Conns(), "decodeErrors", r.ls.DecodeErrors())
	}
	r.cfg.Logger.Info("fleet ingest done", attrs...)
	return n, err
}

func (r *fleetRun) summary(int, time.Duration) error {
	preds, fails := r.led.Totals()
	logFleetSummary(r.cfg.Logger, r.Rollup(r.clock.Now()), preds, fails)
	return nil
}

// logFleetSummary prints the exit rollup: status histogram (by status name),
// availability, and aggregate quality.
func logFleetSummary(logger *slog.Logger, r fleet.RollupView, preds, fails int64) {
	attrs := []any{
		"tenants", r.Tenants,
		"cycles", r.Cycles,
		"weightedAvailability", fmt.Sprintf("%.4f", r.WeightedAvailability),
		"predictions", preds,
		"failures", fails,
		"foldedTenants", r.FoldedTenants,
		"incidents", r.Incidents,
		"incidentsSuppressed", r.IncidentsSuppressed,
	}
	if r.WeightedF1 != nil {
		attrs = append(attrs, "weightedF1", fmt.Sprintf("%.3f", *r.WeightedF1))
	}
	statuses := make([]string, 0, len(r.ByStatus))
	for status := range r.ByStatus {
		statuses = append(statuses, status)
	}
	sort.Strings(statuses)
	for _, status := range statuses {
		attrs = append(attrs, "status."+status, r.ByStatus[status])
	}
	logger.Info("fleet summary", attrs...)
}
