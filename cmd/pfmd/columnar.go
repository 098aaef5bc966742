// Columnar replay mode (-replay-columnar): drive the single-tenant
// runtime from a recorded one-tenant trace (loggen's .wire or .trace, told
// apart by magic), held in memory as struct-of-arrays columns, instead of a
// live simulator. There is no wall-clock pacing — events
// stream through the batched ingest path as fast as the pipeline applies
// them, and MEA cycles that fall due between events are stacked and run
// through Runtime.CycleBatch, so a simulated year replays in seconds and
// the run reports its sustained events/sec.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/fleet"
	"repro/internal/runtime"
)

// runColumnar replays a columnar trace through the full online pipeline:
// mirror state, layered predictors, act stage, quality ledger and
// observability endpoints — the live service's wiring (newPipeline), minus
// the simulator (a recorded trace cannot be steered, so the
// countermeasure is a no-op and only its decision record matters). The
// runtime's own cycle ticker stays off — cycles are driven synchronously
// below, which is what lets them stack into batches.
func runColumnar(ctx context.Context, o *options) error {
	if o.replayEval <= 0 {
		return fmt.Errorf("replay-eval cadence must be positive, got %g", o.replayEval)
	}
	trace, err := loadColumnar(o.replayColumnar)
	if err != nil {
		return fmt.Errorf("%s: %w", o.replayColumnar, err)
	}
	p, err := newPipeline(o, func() error { return nil }, o.replayEval, false)
	if err != nil {
		return err
	}
	nErrors, nSamples := trace.CountKinds()
	p.mirror.log.Grow(nErrors)

	srv, bound, err := o.start(ctx, p.rt.Start, p.rt.Serve)
	if err != nil {
		return err
	}
	defer srv.Close()
	o.logger.Info("columnar replay starting",
		"trace", o.replayColumnar, "events", trace.Len(),
		"errors", nErrors, "samples", nSamples, "failures", len(trace.Failures),
		"cadence_sim_s", o.replayEval, "policy", o.rt.Overflow.String(), "addr", bound)

	start := time.Now()
	err = replayColumnar(ctx, p, trace, o.replayEval)
	o.stop(p.rt.Stop, 30*time.Second)
	if err != nil {
		return err
	}
	n := trace.Len()
	var span float64
	if n > 0 {
		span = trace.Times[n-1] - trace.Times[0]
	}
	elapsed := time.Since(start)
	o.logger.Info("columnar replay complete",
		"events", n, "wall_seconds", elapsed.Seconds(),
		"events_per_sec", int64(float64(n)/elapsed.Seconds()),
		"sim_days", span/86400, "cycles", p.rt.Cycles(),
		"speedup", span/elapsed.Seconds())
	return p.summary()
}

// loadColumnar reads a one-tenant trace file into columns: binary frames
// whole, as runtime.ReadColumnar decodes them; anything else record by
// record through fleet.OpenTrace — the text line protocol, or a retired
// binary format, which that refuses by name.
func loadColumnar(path string) (*runtime.ColumnarTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	magic := make([]byte, len(fleet.WireMagic))
	if _, err := io.ReadFull(f, magic); err == nil && string(magic) == fleet.WireMagic {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		return runtime.ReadColumnar(f)
	}
	src, closer, err := fleet.OpenTrace(path)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	b := runtime.NewColumnarBuilder()
	var tenant string
	for n := 0; ; n++ {
		rec, err := src.Next()
		if errors.Is(err, io.EOF) {
			return b.Trace(), nil
		}
		if err != nil {
			return nil, err
		}
		switch ev := rec.Event; {
		case n > 0 && ev.Tenant != tenant:
			err = fmt.Errorf("trace names tenants %q and %q, -replay-columnar takes one tenant's", tenant, ev.Tenant)
		case rec.Failure:
			err = b.AddFailure(ev.Time)
		case ev.Kind == runtime.KindError:
			err = b.AddError(ev.Error)
		default:
			err = b.AddSample(ev.Time, ev.Variable, ev.Value)
		}
		if err != nil {
			return nil, err
		}
		tenant = rec.Event.Tenant
	}
}

// replayColumnar streams the trace through the pipeline at full speed,
// running the MEA cycles that fall due at the given cadence [sim s].
func replayColumnar(ctx context.Context, p *pipeline, trace *runtime.ColumnarTrace, cadence float64) error {
	n := trace.Len()
	// Cycle times are stacked while no event falls between them, then run
	// as one CycleBatch once an event (or ground-truth failure) intervenes
	// — serial-equivalent because the mirror state a stacked cycle reads
	// cannot have changed since the previous one.
	cycles := make([]float64, 0, 1024)
	fi := 0
	flush := func() error {
		if len(cycles) == 0 {
			return nil
		}
		if err := p.rt.Barrier(ctx); err != nil {
			return err
		}
		p.setNow(cycles[len(cycles)-1])
		p.rt.CycleBatch(cycles)
		cycles = cycles[:0]
		return nil
	}
	next := math.Inf(1)
	if n > 0 {
		next = trace.Times[0] + cadence
	}
	for i := 0; i < n; i++ {
		t := trace.Times[i]
		for next <= t {
			for fi < len(trace.Failures) && trace.Failures[fi] <= next {
				if err := flush(); err != nil {
					return err
				}
				p.recordFailure(trace.Failures[fi])
				fi++
			}
			cycles = append(cycles, next)
			next += cadence
		}
		if err := flush(); err != nil {
			return err
		}
		for fi < len(trace.Failures) && trace.Failures[fi] <= t {
			p.recordFailure(trace.Failures[fi])
			fi++
		}
		p.setNow(t)
		if err := p.rt.Ingest(ctx, trace.Event(i)); err != nil {
			return err
		}
	}
	for fi < len(trace.Failures) {
		p.recordFailure(trace.Failures[fi])
		fi++
	}
	return flush()
}
