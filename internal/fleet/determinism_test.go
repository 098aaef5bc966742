package fleet

import (
	"context"
	"fmt"
	"math"
	stdruntime "runtime"
	"strings"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/ingest"
	"repro/internal/obs"
)

// deterministicTrace builds a fixed multi-tenant workload: every tenant's
// sub-stream is a pure function of its index, with a few failures mixed in.
func deterministicTrace(ids []string, perTenant int) []ingest.Record {
	var recs []ingest.Record
	for seq := 0; seq < perTenant; seq++ {
		for i, id := range ids {
			t := float64(seq)
			v := 0.5 + 0.5*math.Sin(float64(i+1)*t/7)
			recs = append(recs, ingest.Record{Event: sample(id, t, v)})
			if seq%17 == i {
				recs = append(recs, ingest.Record{Event: ingest.Event{
					Tenant: id, Kind: ingest.KindError, Time: t,
					Error: eventlogEvent(t, i, seq),
				}})
			}
			if seq == perTenant/2 && i%3 == 0 {
				recs = append(recs, ingest.Record{Failure: true, Event: ingest.Event{Tenant: id, Time: t + 30}})
			}
		}
	}
	return recs
}

// fleetFingerprint replays the trace through a fleet built with the given
// concurrency shape and returns a digest of every observable outcome:
// per-tenant counters, decision confidences (exact bits), and per-scope
// ledger tables.
func fleetFingerprint(t *testing.T, shards, workers, batchSize int, useBatch bool) string {
	t.Helper()
	ids := make([]string, 12)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%02d", i)
	}
	clock := newTestClock(0)
	led, err := obs.NewScopedLedger(obs.LedgerConfig{LeadTime: 300, Slack: 60}, 8, "load")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testFleetConfig(specs(ids...), clock)
	cfg.Shards = shards
	cfg.Workers = workers
	cfg.BatchSize = batchSize
	cfg.Ledger = led
	cfg.JournalLayers = true
	if useBatch {
		cfg.Layers = []LayerTemplate{{
			Name: "load", Threshold: 0.5,
			ScoreBatch: func(states []TenantState, now float64, out []float64) error {
				for i, st := range states {
					s, err := meanScore(st, now)
					if err != nil {
						return err
					}
					out[i] = s
				}
				return nil
			},
		}}
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	trace := deterministicTrace(ids, 60)
	// Two rounds: half the trace, a cycle, the rest, two more cycles.
	half := len(trace) / 2
	for _, stage := range []struct {
		recs []ingest.Record
		now  float64
	}{
		{trace[:half], 30}, {trace[half:], 60},
	} {
		if _, err := Pump(ctx, f, NewSliceSource(stage.recs)); err != nil {
			t.Fatal(err)
		}
		if err := f.Barrier(ctx); err != nil {
			t.Fatal(err)
		}
		clock.Set(stage.now)
		f.EvaluateCycle()
	}
	clock.Set(500)
	f.EvaluateCycle()
	if err := f.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	return digestFleet(t, f, led, ids)
}

// digestFleet renders every observable outcome of a finished fleet — the
// byte-identical comparison unit of the determinism and churn-parity tests.
func digestFleet(t *testing.T, f *Fleet, led *obs.ScopedLedger, ids []string) string {
	t.Helper()
	var b strings.Builder
	for _, id := range ids {
		v, ok := f.TenantStatus(id)
		if !ok {
			t.Fatalf("tenant %s missing", id)
		}
		conf := float64(0)
		if v.Confidence != nil {
			conf = *v.Confidence
		}
		fmt.Fprintf(&b, "%s ev=%d warn=%d act=%d fail=%d st=%s conf=%016x\n",
			id, v.Events, v.Warnings, v.Actions, v.Failures, v.Status, math.Float64bits(conf))
	}
	for _, scope := range led.Scopes() {
		snap := led.Scope(scope).Snapshot()
		fmt.Fprintf(&b, "scope %s preds=%d fails=%d", scope, snap.Predictions, snap.Failures)
		for _, lq := range snap.Layers {
			fmt.Fprintf(&b, " %s=[%d %d %d %d|%d]",
				lq.Layer, lq.Cumulative.TP, lq.Cumulative.FP, lq.Cumulative.TN, lq.Cumulative.FN, lq.Pending)
		}
		b.WriteString("\n")
	}
	preds, fails := led.Totals()
	fmt.Fprintf(&b, "totals %d %d folded %d\n", preds, fails, led.Folded())
	return b.String()
}

// clockedSource moves the domain clock to each event's time before Pump
// takes it, as pfmd's stepper does, so a token bucket refills on the trace's
// own time.
type clockedSource struct {
	src   Source
	clock *testClock
}

func (s *clockedSource) Next() (ingest.Record, error) {
	rec, err := s.src.Next()
	if err == nil && !rec.Failure {
		s.clock.Set(rec.Event.Time)
	}
	return rec, err
}

// TestFleetRateLimitDeterministic: what the token buckets shed is a function
// of the trace and its clock alone, decided at admission. One trace in which
// a third of the tenants push at twice their rate and a third just over it
// gives byte-identical fingerprints and equal ratelimited counts at 1, 3 and
// 7 shards.
func TestFleetRateLimitDeterministic(t *testing.T) {
	ids := make([]string, 12)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%02d", i)
	}
	trace := deterministicTrace(ids, 60)
	run := func(shards int) (string, int64) {
		clock := newTestClock(0)
		led, err := obs.NewScopedLedger(obs.LedgerConfig{LeadTime: 300, Slack: 60}, 8, "load")
		if err != nil {
			t.Fatal(err)
		}
		sp := specs(ids...)
		for i := range sp {
			sp[i].RateLimit = []float64{0.5, 1.05, 0}[i%3]
		}
		cfg := testFleetConfig(sp, clock)
		cfg.Shards = shards
		cfg.Ledger = led
		cfg.JournalLayers = true
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := f.Start(ctx); err != nil {
			t.Fatal(err)
		}
		// A cycle every 10 s of trace time, after the records before it.
		at := 0
		for b := 10.0; b <= 60; b += 10 {
			end := at
			for end < len(trace) && (trace[end].Failure || trace[end].Event.Time < b) {
				end++
			}
			if _, err := Pump(ctx, f, &clockedSource{NewSliceSource(trace[at:end]), clock}); err != nil {
				t.Fatal(err)
			}
			at = end
			clock.Set(b)
			if err := f.Barrier(ctx); err != nil {
				t.Fatal(err)
			}
			f.EvaluateCycle()
		}
		if err := f.Stop(ctx); err != nil {
			t.Fatal(err)
		}
		m := f.Metrics()
		if in, ap, dr := m.Ingested.Value(), m.Applied.Value(), m.Dropped(); in != ap+dr || dr != m.DroppedRateLimited.Value() {
			t.Errorf("shards %d: ingested %d, applied %d, dropped %d (ratelimited %d): want every drop ratelimited and the sum to close",
				shards, in, ap, dr, m.DroppedRateLimited.Value())
		}
		return digestFleet(t, f, led, ids), m.DroppedRateLimited.Value()
	}
	ref, refShed := run(1)
	if refShed == 0 {
		t.Fatal("no event was shed: the limits did not bind")
	}
	for _, shards := range []int{3, 7} {
		got, shed := run(shards)
		if got != ref || shed != refShed {
			t.Errorf("shards %d diverged (ratelimited %d, want %d):\n--- 1 shard ---\n%s--- got ---\n%s",
				shards, shed, refShed, ref, got)
		}
	}
}

func eventlogEvent(t float64, i, seq int) eventlog.Event {
	return eventlog.Event{
		Time:      t,
		Component: fmt.Sprintf("comp-%d", i%4),
		Type:      seq % 5,
		Severity:  eventlog.Severity(seq % 3),
		Message:   fmt.Sprintf("fault %d/%d", i, seq),
	}
}

// TestFleetDeterministicAcrossShapes: the fingerprint is byte-identical
// across shard counts, worker counts, batch sizes, batched-vs-scalar
// scoring, and GOMAXPROCS — the internal/par contract extended to the
// fleet runtime. Consistent-hash routing guarantees the same tenant →
// shard placement; index-addressed scoring and disjoint per-tenant act
// state guarantee the same cycle outcomes.
func TestFleetDeterministicAcrossShapes(t *testing.T) {
	ref := fleetFingerprint(t, 1, 1, 1, false)
	shapes := []struct {
		shards, workers, batch int
		useBatch               bool
	}{
		{1, 4, 8, false},
		{4, 1, 64, false},
		{4, 4, 8, true},
		{7, 3, 1, true},
		{3, 8, 64, true},
	}
	for _, s := range shapes {
		got := fleetFingerprint(t, s.shards, s.workers, s.batch, s.useBatch)
		if got != ref {
			t.Errorf("shape %+v diverged:\n--- ref ---\n%s--- got ---\n%s", s, ref, got)
		}
	}
	// And under a different GOMAXPROCS.
	old := stdruntime.GOMAXPROCS(2)
	defer stdruntime.GOMAXPROCS(old)
	if got := fleetFingerprint(t, 4, 4, 8, true); got != ref {
		t.Errorf("GOMAXPROCS=2 diverged:\n--- ref ---\n%s--- got ---\n%s", ref, got)
	}
}
