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
	"sync/atomic"
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

	var simNow atomic.Uint64 // Float64bits of the replay's domain time, from 0

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
			EvalInterval:        o.compress * o.rt.EvalInterval.Seconds(),
			LeadTime:            leadTime,
			WarnThreshold:       0.5,
			OscillationWindow:   1800,
			MaxActionsPerWindow: 6,
		},
		Shards:        o.shards,
		QueueCapacity: o.rt.QueueCapacity,
		Overflow:      o.rt.Overflow,
		Workers:       o.rt.Workers,
		ActBudget:     o.actBudget,
		EvalInterval:  o.rt.EvalInterval,
		Clock:         func() float64 { return math.Float64frombits(simNow.Load()) },
		Tracer:        tracer,
		Ledger:        led,
		Recorder:      recorder,
		JournalLayers: true,
	})
	if err != nil {
		return err
	}

	srv, bound, err := o.start(ctx, f.Start, f.Serve)
	if err != nil {
		return err
	}
	defer srv.Close()
	source := "simulator"
	switch {
	case o.listen != "":
		source = "listen " + o.listen
	case o.fleetTrace != "":
		source = o.fleetTrace
	}
	logger.Info("fleet started",
		"tenants", o.tenants, "skew", o.skew, "shards", f.Shards(),
		"addr", bound, "source", source)

	horizon := o.days * 86400
	switch {
	case o.listen != "":
		err = serveFleetListen(ctx, f, o.listen, &simNow, logger)
	case o.fleetTrace != "":
		err = replayFleetFile(ctx, f, o.fleetTrace, o.compress, &simNow)
	default:
		err = replayFleetSim(ctx, f, multi, horizon, o.compress, &simNow)
	}
	o.stop(f.Stop, 10*time.Second)
	if err != nil && ctx.Err() == nil {
		return err
	}
	logFleetSummary(logger, f, led, math.Float64frombits(simNow.Load()))
	return nil
}

// serveFleetListen ingests from a TCP trace listener until the context
// ends: senders (loggen -send, or any syslog-style shipper speaking the
// text protocol) pace themselves against the fleet's backpressure, and the
// domain clock follows the newest record time seen.
func serveFleetListen(ctx context.Context, f *fleet.Fleet, addr string, simNow *atomic.Uint64, logger *slog.Logger) error {
	ls, err := fleet.Listen(addr)
	if err != nil {
		return err
	}
	// The listen edge on the fleet's /metrics plane: records ÷ slabs says
	// whether full slabs or flush-on-idle drive the hand-offs.
	ls.RegisterMetrics(f.Metrics().Registry())
	logger.Info("fleet ingest listening", "addr", ls.Addr())
	go func() {
		<-ctx.Done()
		_ = ls.Close()
	}()
	defer ls.Close()
	n, err := fleet.Pump(ctx, f, &clockSource{src: ls, simNow: simNow})
	logger.Info("fleet ingest done",
		"records", n, "conns", ls.Conns(), "decodeErrors", ls.DecodeErrors())
	return err
}

// clockSource advances the fleet's domain clock to the newest record time
// as records pass. With compress > 0 it first sleeps until each record's
// domain time is due under that compression (file replay); with 0 it does
// not pace (a network sender sets the pace).
type clockSource struct {
	src      fleet.Source
	simNow   *atomic.Uint64
	compress float64
	start    time.Time
	ctx      context.Context
}

func (c *clockSource) Next() (fleet.Record, error) {
	rec, err := c.src.Next()
	if err != nil {
		return rec, err
	}
	if c.compress > 0 {
		due := c.start.Add(time.Duration(rec.Event.Time / c.compress * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-c.ctx.Done():
				return fleet.Record{}, c.ctx.Err()
			case <-time.After(wait):
			}
		}
	}
	for {
		old := c.simNow.Load()
		if math.Float64frombits(old) >= rec.Event.Time {
			break
		}
		if c.simNow.CompareAndSwap(old, math.Float64bits(rec.Event.Time)) {
			break
		}
	}
	return rec, nil
}

// replayFleetSim advances the multi-tenant simulator in wall-paced slices,
// pumping each slice's merged trace into the fleet.
func replayFleetSim(ctx context.Context, f *fleet.Fleet, m *scp.MultiSystem, horizon, compress float64, simNow *atomic.Uint64) error {
	return paced(ctx, horizon, compress, func(elapsed, step float64) error {
		if err := m.Run(step); err != nil {
			return err
		}
		simNow.Store(math.Float64bits(elapsed + step))
		recs := fleet.SCPRecords(m.Drain())
		_, err := fleet.Pump(ctx, f, fleet.NewSliceSource(recs))
		return err
	})
}

// replayFleetFile streams a recorded trace (text or wire format, by its
// magic), pacing domain time against the wall clock via compress.
func replayFleetFile(ctx context.Context, f *fleet.Fleet, path string, compress float64, simNow *atomic.Uint64) error {
	src, closer, err := fleet.OpenTrace(path)
	if err != nil {
		return err
	}
	defer closer.Close()
	_, err = fleet.Pump(ctx, f, &clockSource{src: src, simNow: simNow, compress: compress, start: time.Now(), ctx: ctx})
	return err
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
