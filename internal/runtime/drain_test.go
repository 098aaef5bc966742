package runtime

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
)

// TestBarrierAppliesInOrder: Barrier applies the backlog on its caller's
// goroutine while the consumer drains too, and a second goroutine barriers
// beside the producer. Every event is applied exactly once and in ingest
// order, a Barrier returns only once every event ingested before it has been
// applied, and ingested = applied at the end.
func TestBarrierAppliesInOrder(t *testing.T) {
	const n, every = 20000, 7
	var next int // the next event number due; Apply-side, under the state lock
	var applied atomic.Int64
	var misordered atomic.Int64
	rt, err := New(Config{
		Engine: testEngine(t, defaultCoreCfg(), quietLayer()),
		Apply: func(ev ingest.Event) error {
			if int(ev.Time) != next {
				misordered.Add(1)
			}
			next = int(ev.Time) + 1
			applied.Add(1)
			return nil
		},
		QueueCapacity: 64,
		BatchSize:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := rt.Start(ctx); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := rt.Barrier(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		if err := rt.Ingest(ctx, ingest.Event{Kind: ingest.KindSample, Variable: "seq", Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
		if i%every == every-1 {
			if err := rt.Barrier(ctx); err != nil {
				t.Fatal(err)
			}
			if got := applied.Load(); got != int64(i+1) {
				t.Fatalf("Barrier returned after event %d with %d applied", i, got)
			}
		}
	}
	close(done)
	wg.Wait()
	if err := rt.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if k := misordered.Load(); k != 0 {
		t.Errorf("%d events applied out of ingest order", k)
	}
	m := rt.Metrics()
	if got := applied.Load(); got != n || m.Applied.Value() != n || m.Ingested.Value() != n {
		t.Errorf("applied %d (counter %d), ingested %d, want %d each",
			got, m.Applied.Value(), m.Ingested.Value(), n)
	}
}

// slowLocker delays every acquisition of the state lock, so a drain that has
// taken a chunk holds it, unapplied, for a while before it applies it.
type slowLocker struct {
	sync.Locker
	delay time.Duration
}

func (l slowLocker) Lock() {
	time.Sleep(l.delay)
	l.Locker.Lock()
}

// TestStopWaitsForHelpedChunk: a Barrier takes the queue's last chunk and is
// slow to apply it while Stop closes the queue. The consumer, finding the
// queue closed and empty, must still wait for that chunk before it reports
// dry, so the final cycle's layer sees every ingested event applied.
func TestStopWaitsForHelpedChunk(t *testing.T) {
	for round := 0; round < 5; round++ {
		var rt *Runtime
		var final atomic.Int64 // applied - ingested at the latest evaluation
		final.Store(-1)
		layer := &core.Layer{
			Name: "watch",
			Predictor: core.PredictorFunc(func(float64) (float64, error) {
				m := rt.Metrics()
				final.Store(m.Applied.Value() - m.Ingested.Value())
				return 0, nil
			}),
			Threshold: 0.5,
		}
		rt, err := New(Config{
			Engine: testEngine(t, defaultCoreCfg(), layer),
			Apply:  func(ingest.Event) error { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.drain.State = slowLocker{Locker: rt.drain.State, delay: 20 * time.Millisecond}
		ctx := context.Background()
		if err := rt.Start(ctx); err != nil {
			t.Fatal(err)
		}
		// Let the consumer park on the empty ring, so the Barrier below takes
		// the event before the consumer wakes for it.
		time.Sleep(time.Millisecond)
		stopped := make(chan error, 1)
		go func() {
			time.Sleep(2 * time.Millisecond) // the chunk is taken, not yet applied
			stopped <- rt.Stop(ctx)
		}()
		if err := rt.Ingest(ctx, ingest.Event{Kind: ingest.KindSample, Variable: "x", Time: 1}); err != nil {
			t.Fatal(err)
		}
		if err := rt.Barrier(ctx); err != nil {
			t.Fatal(err)
		}
		if err := <-stopped; err != nil {
			t.Fatal(err)
		}
		if got := rt.Metrics().Evaluations.Value(); got != 1 {
			t.Fatalf("round %d: %d evaluations, want Stop's one final cycle", round, got)
		}
		if d := final.Load(); d != 0 {
			t.Fatalf("round %d: the final cycle saw applied - ingested = %d, want 0", round, d)
		}
	}
}
