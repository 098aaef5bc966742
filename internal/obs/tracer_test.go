package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestTracerCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultTraceCapacity}, {-5, DefaultTraceCapacity},
		{1, 1}, {2, 2}, {3, 4}, {100, 128}, {256, 256},
	} {
		if got := NewTracer(tc.in).Capacity(); got != tc.want {
			t.Errorf("NewTracer(%d).Capacity() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestTracerPublishAndComplete(t *testing.T) {
	tr := NewTracer(8)
	id := tr.PublishApplied(1, "load", 2, 100, 150, 300, 450)
	if id == 0 {
		t.Fatalf("PublishApplied returned id 0")
	}
	drop := tr.PublishDropped(2, "mem", 1, 10, 20, 90)
	if drop == id {
		t.Fatalf("drop reused trace id %d", id)
	}

	if done := tr.CompleteCycle(500, 700, 700, 720); done != 1 {
		t.Fatalf("CompleteCycle completed %d traces, want 1", done)
	}
	// A second cycle must not re-complete the same trace.
	if done := tr.CompleteCycle(900, 950, 950, 960); done != 0 {
		t.Fatalf("second CompleteCycle completed %d traces, want 0", done)
	}

	snap := tr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot has %d traces, want 2", len(snap))
	}
	var appliedView, dropView TraceView
	for _, v := range snap {
		if v.ID == id {
			appliedView = v
		} else {
			dropView = v
		}
	}

	if !appliedView.Complete || appliedView.Dropped {
		t.Fatalf("applied trace state = %+v, want complete", appliedView)
	}
	wantStages := [NumStages]time.Duration{50, 150, 150, 50, 200, 20}
	if appliedView.Stages != wantStages {
		t.Errorf("stages = %v, want %v", appliedView.Stages, wantStages)
	}
	if appliedView.Total != 620 {
		t.Errorf("total = %v, want 620ns", appliedView.Total)
	}
	if appliedView.Key != "load" || appliedView.Shard != 2 || appliedView.Kind != 1 {
		t.Errorf("trace identity = %+v", appliedView)
	}

	if !dropView.Dropped || dropView.Complete {
		t.Fatalf("dropped trace state = %+v, want dropped", dropView)
	}
	if dropView.Total != 80 || dropView.Stages[StageQueue] != 70 || dropView.Stages[StageIngest] != 10 {
		t.Errorf("dropped spans = %+v", dropView)
	}
}

func TestTracerCycleSkipsLaterApply(t *testing.T) {
	tr := NewTracer(8)
	tr.PublishApplied(0, "a", 0, 0, 1, 2, 3)
	tr.PublishApplied(0, "b", 0, 0, 1, 2, 600) // applied after the cycle's eval start
	if done := tr.CompleteCycle(500, 550, 550, 560); done != 1 {
		t.Fatalf("completed %d traces, want 1 (later apply must wait)", done)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.PublishApplied(0, "k", 0, int64(i), int64(i)+1, int64(i)+2, int64(i)+3)
	}
	snap := tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring retained %d traces, want 4", len(snap))
	}
	for i, v := range snap {
		if want := uint64(7 + i); v.ID != want {
			t.Errorf("snapshot[%d].ID = %d, want %d (newest four, ordered)", i, v.ID, want)
		}
	}
}

func TestTracerKeyTruncation(t *testing.T) {
	tr := NewTracer(1)
	long := strings.Repeat("x", 3*keyBytes)
	tr.PublishApplied(0, long, 0, 0, 1, 2, 3)
	v := tr.Snapshot()[0]
	if v.Key != long[:keyBytes] {
		t.Fatalf("key = %q, want %d-byte prefix", v.Key, keyBytes)
	}
}

func TestTracerSlowest(t *testing.T) {
	tr := NewTracer(8)
	tr.PublishApplied(0, "fast", 0, 0, 1, 2, 10)
	tr.PublishApplied(0, "slow", 0, 0, 1, 2, 500)
	tr.PublishApplied(0, "mid", 0, 0, 1, 2, 100)
	got := tr.Slowest(2)
	if len(got) != 2 || got[0].Key != "slow" || got[1].Key != "mid" {
		t.Fatalf("Slowest(2) = %+v", got)
	}
	if tr.Slowest(0) != nil {
		t.Fatalf("Slowest(0) should be nil")
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.Now() != 0 || tr.Capacity() != 0 {
		t.Fatalf("nil tracer clock/capacity not zero")
	}
	if tr.PublishApplied(0, "k", 0, 0, 0, 0, 0) != 0 || tr.PublishDropped(0, "k", 0, 0, 0, 0) != 0 {
		t.Fatalf("nil tracer publish returned nonzero id")
	}
	if tr.CompleteCycle(0, 0, 0, 0) != 0 || tr.Snapshot() != nil || tr.Slowest(3) != nil {
		t.Fatalf("nil tracer reads not empty")
	}
}

// TestSpanHotPathZeroAllocs pins the acceptance criterion: the span hot
// path — clock reads plus a whole-trace publish — performs no heap
// allocations.
func TestSpanHotPathZeroAllocs(t *testing.T) {
	tr := NewTracer(64)
	key := "cpu_user"
	allocs := testing.AllocsPerRun(1000, func() {
		start := tr.Now()
		offered := tr.Now()
		dequeued := tr.Now()
		tr.PublishApplied(1, key, 3, start, offered, dequeued, tr.Now())
	})
	if allocs != 0 {
		t.Fatalf("span hot path allocates %.1f objects/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		start := tr.Now()
		tr.PublishDropped(1, key, 3, start, start, tr.Now())
	})
	if allocs != 0 {
		t.Fatalf("drop publish allocates %.1f objects/op, want 0", allocs)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(32)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := tr.Now()
				if i%7 == 0 {
					tr.PublishDropped(uint8(g), "key", g, s, s, tr.Now())
				} else {
					tr.PublishApplied(uint8(g), "key", g, s, s, s, tr.Now())
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			n := tr.Now()
			tr.CompleteCycle(n, n+1, n+1, n+2)
			tr.Snapshot()
		}
	}()
	wg.Wait()
	if got := len(tr.Snapshot()); got != 32 {
		t.Fatalf("ring holds %d traces after churn, want full 32", got)
	}
}

func TestWriteText(t *testing.T) {
	tr := NewTracer(4)
	tr.PublishApplied(1, "load", 0, 0, 1000, 2000, 3000)
	tr.PublishDropped(0, "err", 1, 0, 500, 800)
	tr.CompleteCycle(4000, 5000, 5000, 6000)

	var sb strings.Builder
	names := func(k uint8) string {
		if k == 1 {
			return "sample"
		}
		return "error"
	}
	if err := WriteText(&sb, tr.Slowest(10), names); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"TRACE", "sample", "error", "done", "dropped", "queue=", "evaluate="} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(8)
	tr.SetSampleInterval(4)
	if got := tr.Interval(); got != 4 {
		t.Fatalf("Interval() = %d after SetSampleInterval(4)", got)
	}
	tr.SetSampleInterval(0) // clamps to 1: every event
	if got := tr.Interval(); got != 1 {
		t.Fatalf("Interval() = %d after SetSampleInterval(0), want 1", got)
	}
	var nilTr *Tracer
	if got := nilTr.Interval(); got != 0 {
		t.Fatalf("nil tracer Interval() = %d, want 0 (tracing off)", got)
	}
	nilTr.SetSampleInterval(3) // must not panic
}

func TestTracerDefaultSampleInterval(t *testing.T) {
	if got := NewTracer(8).Interval(); got != DefaultSampleInterval {
		t.Fatalf("fresh tracer Interval() = %d, want %d", got, DefaultSampleInterval)
	}
}

// TestCompleteCycleZeroAllocs holds one cycle's trace completion to zero
// allocations however many traces were published since the previous cycle:
// none, one (the `pfmd -replay-columnar` shape: 8.7 events a cycle at 1-in-16
// sampling), and more than a ring lap (a fleet cycle after a burst).
func TestCompleteCycleZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pending int
	}{{"idle", 0}, {"one-pending", 1}, {"lapped", DefaultTraceCapacity + 44}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTracer(DefaultTraceCapacity)
			for i := 0; i < 2*DefaultTraceCapacity; i++ { // a full ring of settled traces
				tr.PublishApplied(1, "mem_free", 0, 0, 1, 2, 3)
			}
			tr.CompleteCycle(4, 5, 5, 6)
			var swept int
			allocs := testing.AllocsPerRun(100, func() {
				for p := 0; p < tc.pending; p++ {
					tr.PublishApplied(1, "mem_free", 0, 0, 1, 2, 3)
				}
				swept = tr.CompleteCycle(4, 5, 5, 6)
			})
			if allocs != 0 {
				t.Fatalf("CompleteCycle allocates %.1f objects/op, want 0", allocs)
			}
			// A lapped claimer's cell is gone: at most a ring's worth completes.
			want := tc.pending
			if want > DefaultTraceCapacity {
				want = DefaultTraceCapacity
			}
			if swept != want {
				t.Fatalf("completed %d traces, want %d", swept, want)
			}
		})
	}
}

// TestTracerLockLayout: the ring lock is written by every publish, while
// base, mask and every are read on every clock stamp by the producers and
// the shard consumers. At least a cache line lies between the end of those
// fields and the lock, so however the tracer is placed in memory, a publish
// does not invalidate the line Now reads.
func TestTracerLockLayout(t *testing.T) {
	const cacheLine = 64
	var tr Tracer
	clockEnd := max(
		unsafe.Offsetof(tr.base)+unsafe.Sizeof(tr.base),
		unsafe.Offsetof(tr.mask)+unsafe.Sizeof(tr.mask),
		unsafe.Offsetof(tr.every)+unsafe.Sizeof(tr.every),
	)
	if lock := unsafe.Offsetof(tr.mu); lock < clockEnd+cacheLine {
		t.Fatalf("ring lock at offset %d, clock fields end at %d: they can share a %d-byte line", lock, clockEnd, cacheLine)
	}
}
