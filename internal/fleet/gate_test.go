package fleet

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// The gate tests hold both pipelines to their one producer side
// (runtime.Gate): the same samplers over the same count of Ingest calls,
// and the same stamp at Ingest entry.

// gatePipeline is one started pipeline of either kind, fed by ingest and
// served by plane.
type gatePipeline struct {
	ingest  func(ctx context.Context, i int) error
	barrier func(ctx context.Context) error
	plane   func() map[string]float64
	metrics *runtime.Metrics
	tracer  *obs.Tracer
}

// gatePipelines starts a single-tenant runtime and a four-tenant fleet over
// tracer (nil: untraced); ingest i goes to the fleet's tenant i mod 4. Both
// stop when the test ends.
func gatePipelines(t *testing.T, tracer func() *obs.Tracer) map[string]gatePipeline {
	t.Helper()
	ctx := context.Background()
	rt := quietRuntime(t, runtime.Config{Apply: func(ingest.Event) error { return nil },
		Tracer: tracer(), QueueCapacity: 4096})
	if err := rt.Start(ctx); err != nil {
		t.Fatal(err)
	}
	ids := []string{"a", "b", "c", "d"}
	cfg := testFleetConfig(specs(ids...), newTestClock(0))
	cfg.Tracer = tracer()
	cfg.QueueCapacity = 4096
	cfg.Shards = 2
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Stop(ctx) })
	return map[string]gatePipeline{
		"runtime": {
			ingest: func(ctx context.Context, i int) error {
				return rt.Ingest(ctx, ingest.Event{Kind: ingest.KindSample, Time: float64(i), Variable: "load", Value: 1})
			},
			barrier: rt.Barrier,
			plane:   func() map[string]float64 { return scrapeSeries(t, rt.Handler()) },
			metrics: rt.Metrics(),
			tracer:  rt.Tracer(),
		},
		"fleet": {
			ingest:  func(ctx context.Context, i int) error { return f.Ingest(ctx, sample(ids[i%len(ids)], float64(i), 1)) },
			barrier: f.Barrier,
			plane:   func() map[string]float64 { return scrapeSeries(t, f.Handler()) },
			metrics: f.Metrics(),
			tracer:  cfg.Tracer,
		},
	}
}

// TestGateIngestLatencyPlanes: after the same 64 Ingest calls both planes
// have observed the ingest stage 4 times, one call in 16, traced or not.
func TestGateIngestLatencyPlanes(t *testing.T) {
	const series = `pfm_stage_latency_seconds_count{stage="ingest"}`
	for _, traced := range []bool{false, true} {
		tracer := func() *obs.Tracer { return nil }
		if traced {
			tracer = func() *obs.Tracer { return obs.NewTracer(64) }
		}
		for name, p := range gatePipelines(t, tracer) {
			ctx := context.Background()
			for i := 0; i < 64; i++ {
				if err := p.ingest(ctx, i); err != nil {
					t.Fatal(err)
				}
			}
			if got := p.plane()[series]; got != 4 {
				t.Errorf("%s (traced %v): %s = %g after 64 Ingest calls, want 4", name, traced, series, got)
			}
		}
	}
}

// TestGateShardLockWait: a traced fleet push stamps at Ingest entry, so the
// time it waits for its shard's lock is queue residency — at least the 5 ms
// the test holds that lock — and its ingest stage reads 0.
func TestGateShardLockWait(t *testing.T) {
	const wait = 5 * time.Millisecond
	ctx := context.Background()
	tr := obs.NewTracer(8)
	tr.SetSampleInterval(1)
	// A rate-limited tenant's push reads the domain clock after its stamp and
	// before the shard lock: the clock tells the test the stamp is taken.
	stamped := make(chan struct{}, 1)
	cfg := testFleetConfig([]TenantSpec{{ID: "a", RateLimit: 1e9}}, newTestClock(0))
	cfg.Clock = func() float64 {
		select {
		case stamped <- struct{}{}:
		default:
		}
		return 0
	}
	cfg.Tracer = tr
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Stop(ctx) })
	select {
	case <-stamped:
	default:
	}
	q := f.mem.Load().byID["a"].q.owner.Load()
	q.mu.Lock()
	done := make(chan error, 1)
	go func() { done <- f.Ingest(ctx, sample("a", 0, 1)) }()
	<-stamped
	time.Sleep(wait)
	q.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := f.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	if got := traces[0].Stages[obs.StageQueue]; got < wait {
		t.Errorf("queue stage %v, want at least the %v the push waited for its shard lock", got, wait)
	}
	if got := traces[0].Stages[obs.StageIngest]; got != 0 {
		t.Errorf("ingest stage %v, want 0 (one stamp is start and offer)", got)
	}
}

// TestGateConcurrentProducers: producers on several goroutines share the
// gate's one count, so over a traced runtime and a traced fleet alike
// exactly one call in 4 is traced and one in 16 timed, however the calls
// interleave.
func TestGateConcurrentProducers(t *testing.T) {
	const producers, calls = 4, 256 // 1024 calls a pipeline
	pipes := gatePipelines(t, func() *obs.Tracer {
		tr := obs.NewTracer(1024)
		tr.SetSampleInterval(4)
		return tr
	})
	ctx := context.Background()
	for name, p := range pipes {
		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					if err := p.ingest(ctx, w*calls+i); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := p.barrier(ctx); err != nil {
			t.Fatal(err)
		}
		if got, want := p.metrics.IngestLatency.Count(), int64(producers*calls/16); got != want {
			t.Errorf("%s: ingest latency observed %d times, want %d", name, got, want)
		}
		if got, want := len(p.tracer.Snapshot()), producers*calls/4; got != want {
			t.Errorf("%s: %d traces, want %d", name, got, want)
		}
	}
}
