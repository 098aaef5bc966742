package fleet

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/eventlog"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// extremeEvents are events of both kinds at the edges of every field the
// queues pack (ingest.Packed), plus one of a kind outside the two, all for
// tenant: full-width Type and Severity, NaN payloads, ±Inf, −0, an Error.Time
// apart from Time, and empty and 1 MiB strings.
func extremeEvents(tenant string) []ingest.Event {
	big := strings.Repeat("x", 1<<20)
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	snan := math.Float64frombits(0xfff0_0000_0000_0001)
	return []ingest.Event{
		{Tenant: tenant, Kind: ingest.KindError, Time: 1.5, Error: eventlog.Event{
			Time: 2.5, Type: math.MinInt, Severity: eventlog.Severity(math.MaxInt)}},
		{Tenant: tenant, Kind: ingest.KindError, Time: nan, Error: eventlog.Event{
			Time: math.Inf(1), Component: big, Type: math.MaxInt,
			Severity: eventlog.Severity(math.MinInt), Message: "m|\x00"}},
		{Tenant: tenant, Kind: ingest.KindError, Time: math.Inf(-1), Error: eventlog.Event{
			Time: snan, Component: "c", Type: -1, Severity: -1, Message: big}},
		{Tenant: tenant, Kind: ingest.KindSample, Time: math.Inf(-1), Value: snan},
		{Tenant: tenant, Kind: ingest.KindSample, Time: math.MaxFloat64, Variable: big, Value: math.Inf(-1)},
		{Tenant: tenant, Kind: ingest.KindSample, Time: math.Copysign(0, -1), Variable: "load", Value: math.Inf(1)},
		{Tenant: tenant, Kind: ingest.KindSample, Time: 3, Variable: "mem_free", Value: nan},
		{Tenant: tenant, Kind: ingest.Kind(math.MinInt), Time: 4, Variable: "load", Value: 5},
	}
}

// sameEvent reports whether a and b are equal, their floats compared bit for
// bit (so a NaN equals the NaN with its payload and −0 differs from 0).
func sameEvent(a, b ingest.Event) bool {
	bits := func(ev *ingest.Event) [3]uint64 {
		out := [3]uint64{math.Float64bits(ev.Time), math.Float64bits(ev.Error.Time), math.Float64bits(ev.Value)}
		ev.Time, ev.Error.Time, ev.Value = 0, 0, 0
		return out
	}
	return bits(&a) == bits(&b) && a == b
}

// applyLog collects the events an Apply hook receives.
type applyLog struct {
	mu  sync.Mutex
	got []ingest.Event
}

func (l *applyLog) apply(ev ingest.Event) error {
	l.mu.Lock()
	l.got = append(l.got, ev)
	l.mu.Unlock()
	return nil
}

func (l *applyLog) check(t *testing.T, path string, want []ingest.Event) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.got) != len(want) {
		t.Fatalf("%s: Apply received %d events, want %d", path, len(l.got), len(want))
	}
	for i := range want {
		if !sameEvent(l.got[i], want[i]) {
			t.Errorf("%s: event %d (kind %d) changed in its queue: Apply got Tenant %.8q Kind %d Time %v Error %.40v Variable %.8q Value %v",
				path, i, want[i].Kind, l.got[i].Tenant, l.got[i].Kind, l.got[i].Time, l.got[i].Error, l.got[i].Variable, l.got[i].Value)
		}
	}
}

// TestPackedRoundTrip: an event reaches Apply as it was ingested, bit for
// bit, through each queue that packs it — Runtime.Ingest, Fleet.Ingest and
// Pump over a SliceSource — and in the fleet its Tenant, read back from the
// routed tenant, is the tenant's ID. A kind outside the two still arrives as
// itself, for the consumer to refuse.
func TestPackedRoundTrip(t *testing.T) {
	ctx := context.Background()

	t.Run("runtime", func(t *testing.T) {
		var log applyLog
		rt := quietRuntime(t, runtime.Config{Apply: log.apply})
		if err := rt.Start(ctx); err != nil {
			t.Fatal(err)
		}
		var want []ingest.Event
		for _, tenant := range []string{"", "rt", strings.Repeat("t", 1<<20)} {
			want = append(want, extremeEvents(tenant)...)
		}
		for _, ev := range want {
			if err := rt.Ingest(ctx, ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Barrier(ctx); err != nil {
			t.Fatal(err)
		}
		log.check(t, "Runtime.Ingest", want)
	})

	for _, path := range []string{"Fleet.Ingest", "Pump"} {
		t.Run(path, func(t *testing.T) {
			var log applyLog
			cfg := testFleetConfig(specs("a", "b"), newTestClock(0))
			cfg.Shards = 2
			cfg.Apply = func(_ TenantState, ev ingest.Event) error { return log.apply(ev) }
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Start(ctx); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = f.Stop(ctx) })
			// The events name the tenant through strings of their own, so
			// the ID Apply sees must come from the fleet's tenant.
			want := extremeEvents(strings.Clone("b"))
			if path == "Pump" {
				recs := make([]ingest.Record, len(want))
				for i, ev := range want {
					recs[i].Event = ev
				}
				if n, err := Pump(ctx, f, NewSliceSource(recs)); err != nil || n != len(recs) {
					t.Fatalf("Pump = %d, %v; want %d, nil", n, err, len(recs))
				}
			} else {
				for _, ev := range want {
					if err := f.Ingest(ctx, ev); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := f.Barrier(ctx); err != nil {
				t.Fatal(err)
			}
			log.check(t, path, want)
			id := f.mem.Load().byID["b"].spec.ID
			for i, ev := range log.got {
				if unsafe.StringData(ev.Tenant) != unsafe.StringData(id) {
					t.Errorf("event %d: Tenant %q is not the tenant's ID %q", i, ev.Tenant, id)
				}
			}
		})
	}
}

// TestPackedEvictionTrace: a DropOldest eviction publishes the evicted slot's
// trace, read back from the slot — its kind and key (the runtime's stream
// label, the fleet's tenant), not the pushing event's — and the event that
// took its place reaches Apply whole.
func TestPackedEvictionTrace(t *testing.T) {
	ctx := context.Background()
	errEv := ingest.Event{Tenant: "x", Kind: ingest.KindError, Time: 1, Error: eventlog.Event{Time: 0.5, Component: "disk", Type: 7, Severity: 2, Message: "m"}}
	sampleEv := func(tenant, v string) ingest.Event {
		return ingest.Event{Tenant: tenant, Kind: ingest.KindSample, Time: 2, Variable: v, Value: 3}
	}
	type dropped struct {
		kind uint8
		key  string
	}
	drops := func(tr *obs.Tracer) []dropped {
		var out []dropped
		for _, v := range tr.Snapshot() {
			if v.Dropped {
				out = append(out, dropped{v.Kind, v.Key})
			}
		}
		return out
	}

	t.Run("runtime", func(t *testing.T) {
		var log applyLog
		tr := obs.NewTracer(8)
		tr.SetSampleInterval(1)
		rt := quietRuntime(t, runtime.Config{Apply: log.apply, Tracer: tr, QueueCapacity: 1, Overflow: runtime.DropOldest})
		last := sampleEv("y", "mem_free")
		// Not started: each push evicts the one before it.
		for _, ev := range []ingest.Event{errEv, sampleEv("x", "load"), last} {
			if err := rt.Ingest(ctx, ev); err != nil {
				t.Fatal(err)
			}
		}
		want := []dropped{{uint8(ingest.KindError), "errors"}, {uint8(ingest.KindSample), "load"}}
		if got := drops(tr); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("dropped traces %v, want %v", got, want)
		}
		if err := rt.Start(ctx); err != nil {
			t.Fatal(err)
		}
		if err := rt.Barrier(ctx); err != nil {
			t.Fatal(err)
		}
		log.check(t, "Runtime.Ingest", []ingest.Event{last})
	})

	t.Run("fleet", func(t *testing.T) {
		var log applyLog
		cfg := testFleetConfig(specs("a", "b"), newTestClock(0))
		cfg.Shards, cfg.QueueCapacity, cfg.Overflow = 1, 1, runtime.DropOldest
		cfg.Tracer = obs.NewTracer(8)
		cfg.Tracer.SetSampleInterval(1)
		cfg.Apply = func(_ TenantState, ev ingest.Event) error { return log.apply(ev) }
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = f.Stop(ctx) })
		a := errEv
		a.Tenant = "a"
		last := sampleEv("b", "load")
		// Not started, one shard with room for one: b's push evicts a's
		// event, the head of the other tenant's queue.
		for _, ev := range []ingest.Event{a, last} {
			if err := f.Ingest(ctx, ev); err != nil {
				t.Fatal(err)
			}
		}
		want := dropped{uint8(ingest.KindError), "a"}
		if got := drops(cfg.Tracer); len(got) != 1 || got[0] != want {
			t.Errorf("dropped traces %v, want [%v]", got, want)
		}
		if err := f.Start(ctx); err != nil {
			t.Fatal(err)
		}
		if err := f.Barrier(ctx); err != nil {
			t.Fatal(err)
		}
		log.check(t, "Fleet.Ingest", []ingest.Event{last})
	})
}
