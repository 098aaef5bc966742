package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventlog"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// BenchmarkFleetThroughput measures sustained multi-tenant ingest through
// the shared substrate — consistent-hash routing, chunked shard draining,
// one Apply per event — with end-to-end span tracing ON (matching the
// tracing-on arm of BenchmarkRuntimeThroughput). The acceptance target:
// per-event cost with 1000 tenants < 2× the single-tenant runtime's.
func BenchmarkFleetThroughput(b *testing.B) {
	for _, tenants := range []int{1, 1000} {
		b.Run(fmt.Sprintf("tenants-%d", tenants), func(b *testing.B) {
			clock := newTestClock(0)
			sp := make([]TenantSpec, tenants)
			ids := make([]string, tenants)
			for i := range sp {
				ids[i] = fmt.Sprintf("t%04d", i)
				sp[i] = TenantSpec{ID: ids[i]}
			}
			var applied atomic.Int64
			cfg := testFleetConfig(sp, clock)
			cfg.Apply = func(TenantState, Event) error {
				applied.Add(1)
				return nil
			}
			cfg.QueueCapacity = 4096
			cfg.Overflow = runtime.Block
			cfg.Tracer = obs.NewTracer(256)
			f, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if err := f.Start(ctx); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				ev := Event{
					Tenant: ids[i%tenants], Kind: runtime.KindSample,
					Time: float64(i), Variable: "x", Value: 1,
				}
				if err := f.Ingest(ctx, ev); err != nil {
					b.Fatal(err)
				}
			}
			if err := f.Stop(ctx); err != nil {
				b.Fatal(err)
			}
			elapsed := time.Since(start).Seconds()
			b.StopTimer()
			if applied.Load() != int64(b.N) {
				b.Fatalf("applied %d of %d", applied.Load(), b.N)
			}
			b.ReportMetric(float64(b.N)/elapsed, "events/sec")
			b.ReportMetric(float64(tenants), "tenants")
		})
	}
}

// BenchmarkFleetCycle measures one full batched evaluation cycle across
// 1000 tenants (layer scoring + lifecycle + act fan-out).
func BenchmarkFleetCycle(b *testing.B) {
	const tenants = 1000
	clock := newTestClock(0)
	sp := make([]TenantSpec, tenants)
	for i := range sp {
		sp[i] = TenantSpec{ID: fmt.Sprintf("t%04d", i)}
	}
	cfg := testFleetConfig(sp, clock)
	cfg.Layers = []LayerTemplate{{
		Name: "load", Threshold: 2, // never warns; measures the machinery
		ScoreBatch: func(states []TenantState, now float64, out []float64) error {
			for i := range states {
				out[i] = 0.1
			}
			return nil
		},
	}}
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Start(ctx); err != nil {
		b.Fatal(err)
	}
	defer func() { _ = f.Stop(context.Background()) }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Set(float64(i))
		f.EvaluateCycle()
	}
}

// BenchmarkFleetChurn measures the membership-churn control plane on a
// live fleet of 500 tenants: one AddTenant+RemoveTenant round trip per op
// (tenant/), and one shard-count flip with its queue handoff per op
// (resize/). Both install a full membership generation — the cost scales
// with fleet size, not backlog, since queues move by pointer.
func BenchmarkFleetChurn(b *testing.B) {
	base := func(b *testing.B) *Fleet {
		b.Helper()
		const tenants = 500
		clock := newTestClock(0)
		sp := make([]TenantSpec, tenants)
		for i := range sp {
			sp[i] = TenantSpec{ID: fmt.Sprintf("t%04d", i)}
		}
		cfg := testFleetConfig(sp, clock)
		cfg.Shards = 4
		f, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		return f
	}
	b.Run("tenant", func(b *testing.B) {
		f := base(b)
		defer func() { _ = f.Stop(context.Background()) }()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.AddTenant(TenantSpec{ID: "xchurn"}); err != nil {
				b.Fatal(err)
			}
			if err := f.RemoveTenant("xchurn"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("resize", func(b *testing.B) {
		f := base(b)
		defer func() { _ = f.Stop(context.Background()) }()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.Resize(4 + i%2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFleetListenIngest measures network ingest end to end: PFW1
// frames over loopback TCP, per-connection decode, consistent-hash routing,
// one Apply per event — the TCP analogue of BenchmarkFleetThroughput.
func BenchmarkFleetListenIngest(b *testing.B) {
	const tenants = 8
	clock := newTestClock(0)
	sp := make([]TenantSpec, tenants)
	ids := make([]string, tenants)
	for i := range sp {
		ids[i] = fmt.Sprintf("t%04d", i)
		sp[i] = TenantSpec{ID: ids[i]}
	}
	var applied atomic.Int64
	cfg := testFleetConfig(sp, clock)
	cfg.Apply = func(TenantState, Event) error {
		applied.Add(1)
		return nil
	}
	cfg.QueueCapacity = 4096
	cfg.Overflow = runtime.Block
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Start(ctx); err != nil {
		b.Fatal(err)
	}
	ls, err := Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]Record, b.N)
	for i := range recs {
		recs[i] = Record{Event: Event{
			Tenant: ids[i%tenants], Kind: runtime.KindSample,
			Time: float64(i), Variable: "x", Value: 1,
		}}
	}
	errc := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", ls.Addr())
		if err != nil {
			errc <- err
			return
		}
		defer conn.Close()
		errc <- WriteWire(conn, recs)
	}()
	b.ResetTimer()
	start := time.Now()
	n, err := Pump(ctx, f, &limitSource{src: ls, n: b.N})
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Stop(ctx); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	b.StopTimer()
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
	_ = ls.Close()
	if n != b.N || applied.Load() != int64(b.N) {
		b.Fatalf("pumped %d applied %d of %d", n, applied.Load(), b.N)
	}
	b.ReportMetric(float64(b.N)/elapsed, "events/sec")
}

// BenchmarkWireDecode measures the PFW1 decoder alone — no socket, no slab
// hand-off — over the shape a fleet trace has: 1000 tenants, seven sample
// variables, an error frame every 16 records. One op is one record; the
// sample and failure frames must stay at 0 allocs/op.
func BenchmarkWireDecode(b *testing.B) {
	const tenants, span = 1000, 1 << 16
	recs := make([]Record, span)
	for i := range recs {
		tenant := fmt.Sprintf("t%04d", i%tenants)
		if i%16 == 15 {
			recs[i] = Record{Event: Event{Tenant: tenant, Kind: runtime.KindError, Time: float64(i),
				Error: eventlog.Event{Time: float64(i), Component: "db", Type: i % 40, Severity: 1, Message: "timeout"}}}
			continue
		}
		recs[i] = Record{Event: Event{
			Tenant: tenant, Kind: runtime.KindSample,
			Time: float64(i), Variable: fmt.Sprintf("var%d", i%7), Value: float64(i),
		}}
	}
	var wire bytes.Buffer
	if err := WriteWire(&wire, recs); err != nil {
		b.Fatal(err)
	}
	src := bytes.NewReader(wire.Bytes())
	r := NewReader(src)
	b.SetBytes(int64(wire.Len() / span))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := r.Next()
		if err == io.EOF { // replay the span; the dictionaries are re-sent
			src.Reset(wire.Bytes())
			r = NewReader(src)
			rec, err = r.Next()
		}
		if err != nil {
			b.Fatal(err)
		}
		benchRecordSink = rec
	}
}

var benchRecordSink Record
