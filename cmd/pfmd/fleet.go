// pfmd -fleet: the multi-tenant fleet runtime. N simulated tenants (or a
// recorded trace from loggen -tenants) stream through internal/fleet's
// shared substrate — consistent-hash ingest shards, one evaluation pool,
// batched cross-tenant scoring — with the aggregate /fleet plane on the
// metrics address.
package main

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/runtime"
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

func (s *fleetState) apply(ev fleet.Event) error {
	if ev.Kind == runtime.KindError {
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

func runFleet(ctx context.Context, o *options) error {
	if o.tenants < 1 {
		return fmt.Errorf("-tenants must be >= 1")
	}
	logger := o.logger

	// Tenant membership and load shape come from the simulator config even
	// when replaying a file (loggen uses the same naming scheme).
	multi, err := scp.NewMulti(scp.MultiConfig{
		Tenants: o.tenants, BaseSeed: o.seed, Skew: o.skew,
	})
	if err != nil {
		return err
	}
	ids := multi.IDs()
	weights := multi.Weights()
	specs := make([]fleet.TenantSpec, len(ids))
	for i, id := range ids {
		// Hot tenants are also the critical ones: criticality follows the
		// Zipf weight, so the availability rollup reflects service impact.
		specs[i] = fleet.TenantSpec{ID: id, Criticality: weights[i], RateLimit: o.rateLimit}
	}

	var clock domainClock
	scpCfg := scp.DefaultConfig()
	layers := fleetLayers()
	names := make([]string, len(layers))
	for i, l := range layers {
		names[i] = l.Name
	}
	led, err := obs.NewScopedLedger(o.ledger, fleetScopes, names...)
	if err != nil {
		return err
	}
	tracer := o.newTracer()
	recorder, err := o.fleetRecorder(names, tracer)
	if err != nil {
		return err
	}
	f, err := fleet.New(fleet.Config{
		Tenants: specs,
		Layers:  layers,
		NewState: func(fleet.TenantSpec) (fleet.TenantState, error) {
			return &fleetState{capacity: scpCfg.Capacity}, nil
		},
		Apply: func(st fleet.TenantState, ev fleet.Event) error {
			return st.(*fleetState).apply(ev)
		},
		Engine: core.Config{
			EvalInterval:        o.eval,
			LeadTime:            leadTime,
			WarnThreshold:       0.5,
			OscillationWindow:   1800,
			MaxActionsPerWindow: 6,
		},
		Shards:        o.shards,
		QueueCapacity: o.rt.QueueCapacity,
		Overflow:      o.rt.Overflow,
		ActBudget:     o.actBudget,
		Clock:         clock.now,
		Tracer:        tracer,
		Ledger:        led,
		Recorder:      recorder,
		JournalLayers: true,
	})
	if err != nil {
		return err
	}

	// The input: a TCP listener (senders pace themselves against the fleet's
	// backpressure), a recorded trace paced at -compress, or the simulator.
	var src fleet.Source
	var ls *fleet.ListenSource
	source := "simulator"
	switch {
	case o.listen != "":
		if ls, err = fleet.Listen(o.listen); err != nil {
			return err
		}
		defer ls.Close()
		// The listen edge on the fleet's /metrics plane: records ÷ slabs says
		// whether full slabs or flush-on-idle drive the hand-offs.
		ls.RegisterMetrics(f.Metrics().Registry())
		defer context.AfterFunc(ctx, func() { _ = ls.Close() })()
		src, source = ls, "listen "+ls.Addr()
	case o.fleetTrace != "":
		trace, closer, err := fleet.OpenTrace(o.fleetTrace)
		if err != nil {
			return err
		}
		defer closer.Close()
		src = &pacedSource{ctx: ctx, src: trace, compress: o.compress, start: time.Now()}
		source = o.fleetTrace
	default:
		src = o.simulate(ctx, multi)
	}

	srv, bound, err := o.start(ctx, f.Start, f.Serve)
	if err != nil {
		return err
	}
	defer srv.Close()
	logger.Info("fleet started",
		"tenants", o.tenants, "skew", o.skew, "shards", f.Shards(),
		"addr", bound, "source", source, "cadence_sim_s", o.eval)

	// The clock reads each boundary before its cycle. The stepper moves it to
	// a record's time before the record is pushed, so with -rate-limit a
	// tenant's bucket refills on the input's own time.
	n, err := fleet.Pump(ctx, f, newStepper(src, o.eval, &clock, func(nows []float64) error {
		for _, b := range nows {
			clock.advance(b)
			if err := f.Barrier(ctx); err != nil {
				return err
			}
			f.EvaluateCycle()
		}
		return nil
	}))
	attrs := []any{"records", n, "sim_now", clock.now()}
	if ls != nil {
		attrs = append(attrs, "conns", ls.Conns(), "decodeErrors", ls.DecodeErrors())
	}
	logger.Info("fleet ingest done", attrs...)
	o.stop(f.Stop)
	if err != nil && ctx.Err() == nil {
		return err
	}
	logFleetSummary(logger, f, led, clock.now())
	return nil
}

// logFleetSummary prints the exit rollup: status histogram, availability,
// and aggregate quality.
func logFleetSummary(logger *slog.Logger, f *fleet.Fleet, led *obs.ScopedLedger, now float64) {
	r := f.Rollup(now)
	preds, fails := led.Totals()
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
	for status, n := range r.ByStatus {
		attrs = append(attrs, "status."+status, n)
	}
	logger.Info("fleet summary", attrs...)
}
