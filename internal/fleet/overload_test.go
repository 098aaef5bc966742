package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/runtime"
)

// The overload tests pin what a full queue does under each overflow policy,
// once on a bare shardQueue (the test is the consumer, so every interleaving
// is chosen here) and once through Fleet.Ingest. A fleet that has not been
// started has queues but no consumers: Ingest fills them deterministically,
// and Start is "the next drain". After every case the conservation law is
// read from the counters alone.

const overloadCap = 4 // shard budget and per-tenant cap of every case below

// overloadQueue is a bare shard with a small budget and a handle on its
// counters.
type overloadQueue struct {
	q       *shardQueue
	m       *runtime.Metrics
	drops   runtime.Counter
	acct    settlement
	drained int // events the test took out and settled
}

func newOverloadQueue(policy runtime.OverflowPolicy) *overloadQueue {
	h := &overloadQueue{m: runtime.NewMetrics()}
	h.q = h.shard(policy, 0)
	return h
}

// shard builds one more shard over the same counters (a handoff target).
func (h *overloadQueue) shard(policy runtime.OverflowPolicy, index int) *shardQueue {
	return newShardQueue(policy, overloadCap, h.m, &h.drops,
		nil, &h.acct, func() float64 { return 0 }, index)
}

func (h *overloadQueue) tenant(id string, capacity int) *tenantQueue {
	return h.limitedTenant(id, capacity, 0)
}

// limitedTenant attaches a tenant admitted at most rate events per domain
// second; the harness clock stands still, so its bucket never refills.
func (h *overloadQueue) limitedTenant(id string, capacity int, rate float64) *tenantQueue {
	tn := &tenant{spec: TenantSpec{ID: id, RateLimit: rate}}
	tn.q = newTenantQueue(tn, capacity)
	h.q.attach(tn.q)
	return tn.q
}

func qitem(tq *tenantQueue, seq int) *ingest.Event {
	return &ingest.Event{Tenant: tq.tn.spec.ID, Time: float64(seq)}
}

// fill pushes seq from..to-1; none of them may block.
func (h *overloadQueue) fill(t *testing.T, tq *tenantQueue, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := tq.push(context.Background(), qitem(tq, i)); err != nil {
			t.Fatalf("push %s[%d]: %v", tq.tn.spec.ID, i, err)
		}
	}
}

func (h *overloadQueue) pushAsync(ctx context.Context, tq *tenantQueue, seq int) <-chan error {
	done := make(chan error, 1)
	go func() { done <- tq.push(ctx, qitem(tq, seq)) }()
	return done
}

// drain takes one chunk off q, settles it and returns it as "tenant:seq"
// labels.
func (h *overloadQueue) drain(t *testing.T, q *shardQueue, chunk int) []string {
	t.Helper()
	buf := make([]item, chunk)
	got := make(chan int, 1)
	go func() { got <- q.drainInto(buf) }()
	select {
	case n := <-got:
		q.settled(buf, n)
		h.drained += n
		out := make([]string, n)
		for i, it := range buf[:n] {
			out[i] = fmt.Sprintf("%s:%d", it.ev.Tenant, int(it.ev.Time))
		}
		return out
	case <-time.After(5 * time.Second):
		t.Fatal("drainInto blocked with events due")
		return nil
	}
}

// conserved checks ingested = drained + Σ dropped with nothing pending.
func (h *overloadQueue) conserved(t *testing.T) {
	t.Helper()
	if in, want := h.m.Ingested.Value(), int64(h.drained)+h.m.Dropped(); in != want {
		t.Errorf("ingested %d != drained %d + dropped %d", in, h.drained, h.m.Dropped())
	}
	if got := h.drops.Value(); got != h.m.Dropped() {
		t.Errorf("per-shard drops %d != Σ dropped by reason %d", got, h.m.Dropped())
	}
	if p := pending(&h.acct); p != 0 {
		t.Errorf("pending %d, want 0", p)
	}
}

func returned(t *testing.T, what string, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: push never returned", what)
		return nil
	}
}

func staysParked(t *testing.T, what string, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s: push returned %v with no room", what, err)
	case <-time.After(10 * time.Millisecond):
	}
}

func sameLabels(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: got %v, want %v", what, got, want)
		}
	}
}

// TestShardQueueOverload runs the policy table on a bare shardQueue.
func TestShardQueueOverload(t *testing.T) {
	bg := context.Background()
	// overRate: a tenant pushing above its rate on a frozen clock is admitted
	// its burst and the rest is shed at admission, under every policy: no push
	// parks, evicts or meets the budget. A peer on the same shard is admitted
	// as if it were alone.
	overRate := func(t *testing.T, h *overloadQueue) {
		slow, peer := h.limitedTenant("slow", overloadCap, 2), h.tenant("peer", overloadCap)
		for i := 0; i < overloadCap+2; i++ {
			if err := returned(t, "push over the rate", h.pushAsync(bg, slow, i)); err != nil {
				t.Fatalf("slow push %d: %v", i, err)
			}
		}
		h.fill(t, peer, 0, 2)
		if in, r, d := h.m.Ingested.Value(), h.m.DroppedRateLimited.Value(), h.m.Dropped(); in != 8 || r != 4 || d != r {
			t.Errorf("ingested %d, ratelimited %d of %d dropped; want 8, 4 and only those", in, r, d)
		}
		sameLabels(t, "the burst, then the peer", h.drain(t, h.q, 8), "slow:0", "slow:1", "peer:0", "peer:1")
	}
	cases := []struct {
		name   string
		policy runtime.OverflowPolicy
		run    func(t *testing.T, h *overloadQueue)
	}{
		{"block/parks-until-next-drain", runtime.Block, func(t *testing.T, h *overloadQueue) {
			a := h.tenant("a", overloadCap)
			h.fill(t, a, 0, 4)
			done := h.pushAsync(bg, a, 4)
			staysParked(t, "budget full", done)
			if got := h.m.Ingested.Value(); got != 4 {
				t.Errorf("ingested %d while the fifth push is parked, want 4", got)
			}
			sameLabels(t, "first chunk", h.drain(t, h.q, 8), "a:0", "a:1", "a:2", "a:3")
			if err := returned(t, "after drain", done); err != nil {
				t.Fatalf("parked push: %v", err)
			}
			sameLabels(t, "second chunk", h.drain(t, h.q, 8), "a:4")
		}},
		{"block/full-tenant-does-not-block-peer", runtime.Block, func(t *testing.T, h *overloadQueue) {
			a, b := h.tenant("a", 2), h.tenant("b", overloadCap)
			h.fill(t, a, 0, 2)
			done := h.pushAsync(bg, a, 2) // a is at its own cap; the budget has room
			staysParked(t, "tenant cap", done)
			h.fill(t, b, 0, 2)
			got := h.drain(t, h.q, 8)
			if len(got) != 4 {
				t.Fatalf("chunk %v, want a's and b's two each", got)
			}
			if err := returned(t, "after drain", done); err != nil {
				t.Fatalf("parked push: %v", err)
			}
			sameLabels(t, "second chunk", h.drain(t, h.q, 8), "a:2")
		}},
		{"block/full-rate-limited-tenant-does-not-starve-peer", runtime.Block, func(t *testing.T, h *overloadQueue) {
			slow, peer := h.limitedTenant("slow", 2, 2), h.tenant("peer", 1)
			h.fill(t, slow, 0, 2) // at its cap, and its bucket is empty
			// Over the rate: shed at admission, not parked at the cap, where
			// it would wait on a clock that stands still.
			if err := returned(t, "push over the rate at its cap", h.pushAsync(bg, slow, 2)); err != nil {
				t.Fatalf("throttled push: %v", err)
			}
			h.fill(t, peer, 0, 1)
			p := h.pushAsync(bg, peer, 1) // the peer at its own cap parks
			staysParked(t, "tenant cap", p)
			sameLabels(t, "chunk", h.drain(t, h.q, 8), "slow:0", "slow:1", "peer:0")
			if err := returned(t, "peer after the drain", p); err != nil {
				t.Fatalf("peer push: %v", err)
			}
			sameLabels(t, "peer", h.drain(t, h.q, 8), "peer:1")
			if r := h.m.DroppedRateLimited.Value(); r != 1 || h.m.Dropped() != r {
				t.Errorf("ratelimited %d of %d dropped, want the one push over the rate", r, h.m.Dropped())
			}
		}},
		{"block/cancel-while-parked", runtime.Block, func(t *testing.T, h *overloadQueue) {
			a := h.tenant("a", overloadCap)
			h.fill(t, a, 0, 4)
			ctx, cancel := context.WithCancel(bg)
			done := h.pushAsync(ctx, a, 4)
			staysParked(t, "budget full", done)
			cancel()
			if err := returned(t, "after cancel", done); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled push: %v, want context.Canceled", err)
			}
			if in, c := h.m.Ingested.Value(), h.m.DroppedCanceled.Value(); in != 5 || c != 1 {
				t.Errorf("ingested %d canceled %d, want 5 1", in, c)
			}
			sameLabels(t, "backlog", h.drain(t, h.q, 8), "a:0", "a:1", "a:2", "a:3")
		}},
		{"block/tenant-removed-while-parked", runtime.Block, func(t *testing.T, h *overloadQueue) {
			a, b := h.tenant("a", overloadCap), h.tenant("b", overloadCap)
			h.fill(t, a, 0, 4)
			own := h.pushAsync(bg, a, 4)  // parked for the tenant about to go
			peer := h.pushAsync(bg, b, 0) // parked on the budget a holds
			staysParked(t, "budget full", own)
			staysParked(t, "budget full", peer)
			a.closeAndDrain()
			if err := returned(t, "removed tenant", own); !errors.Is(err, errTenantRemoved) {
				t.Fatalf("push parked for a removed tenant: %v, want errTenantRemoved", err)
			}
			// The shed backlog freed the budget: no drain is needed.
			if err := returned(t, "peer", peer); err != nil {
				t.Fatalf("peer push after the budget was freed: %v", err)
			}
			if in, s := h.m.Ingested.Value(), h.m.DroppedRemoved.Value(); in != 5 || s != 4 || h.m.Dropped() != s {
				t.Errorf("ingested %d shed %d of %d dropped, want 5 (a's four and b's one) and 4 removed",
					in, s, h.m.Dropped())
			}
			if err := a.push(bg, qitem(a, 5)); !errors.Is(err, errTenantRemoved) {
				t.Errorf("push after removal: %v, want errTenantRemoved", err)
			}
			sameLabels(t, "what is left", h.drain(t, h.q, 8), "b:0")
		}},
		{"block/rehomed-while-parked", runtime.Block, func(t *testing.T, h *overloadQueue) {
			a, b := h.tenant("a", overloadCap), h.tenant("b", overloadCap)
			dst := h.shard(runtime.Block, 1)
			h.fill(t, a, 0, 4)
			mover := h.pushAsync(bg, a, 4)
			staysParked(t, "budget full", mover)
			peer := h.pushAsync(bg, b, 0)
			staysParked(t, "budget full", peer)
			if moved := moveQueue(a, dst); moved != 4 {
				t.Fatalf("moveQueue = %d, want 4", moved)
			}
			// a's backlog left with it: the source has room for b at once,
			// the destination is as full as the source was.
			if err := returned(t, "peer on the source", peer); err != nil {
				t.Fatalf("peer push: %v", err)
			}
			staysParked(t, "destination budget full", mover)
			sameLabels(t, "destination", h.drain(t, dst, 8), "a:0", "a:1", "a:2", "a:3")
			if err := returned(t, "mover", mover); err != nil {
				t.Fatalf("re-homed push: %v", err)
			}
			sameLabels(t, "destination, after", h.drain(t, dst, 8), "a:4")
			sameLabels(t, "source", h.drain(t, h.q, 8), "b:0")
		}},
		{"block/parked-at-close-still-lands", runtime.Block, func(t *testing.T, h *overloadQueue) {
			a, b := h.tenant("a", overloadCap), h.tenant("b", overloadCap)
			h.fill(t, a, 0, 4)
			pa, pb := h.pushAsync(bg, a, 4), h.pushAsync(bg, b, 0)
			staysParked(t, "budget full", pa)
			staysParked(t, "budget full", pb)
			h.q.close()
			if err := a.push(bg, qitem(a, 9)); !errors.Is(err, runtime.ErrClosed) {
				t.Fatalf("fresh push after close: %v, want ErrClosed", err)
			}
			// The consumer loop: until closed ∧ empty ∧ nobody parked.
			seen := map[string]bool{}
			exit := make(chan struct{})
			go func() {
				defer close(exit)
				buf := make([]item, 2)
				for {
					n := h.q.drainInto(buf)
					if n == 0 {
						return
					}
					for _, it := range buf[:n] {
						seen[fmt.Sprintf("%s:%d", it.ev.Tenant, int(it.ev.Time))] = true
					}
					h.q.settled(buf, n)
					h.drained += n
				}
			}()
			if err := returned(t, "a parked at close", pa); err != nil {
				t.Errorf("a's parked push: %v", err)
			}
			if err := returned(t, "b parked at close", pb); err != nil {
				t.Errorf("b's parked push: %v", err)
			}
			select {
			case <-exit:
			case <-time.After(5 * time.Second):
				t.Fatal("consumer never exited")
			}
			if len(seen) != 6 || !seen["a:4"] || !seen["b:0"] {
				t.Errorf("consumer saw %v, want a:0..a:4 and b:0", seen)
			}
		}},
		{"drop-oldest/evicts-own-oldest", runtime.DropOldest, func(t *testing.T, h *overloadQueue) {
			a := h.tenant("a", overloadCap)
			h.fill(t, a, 0, 6)
			if in, o := h.m.Ingested.Value(), h.m.DroppedOldest.Value(); in != 6 || o != 2 {
				t.Errorf("ingested %d evicted %d, want 6 2", in, o)
			}
			sameLabels(t, "survivors", h.drain(t, h.q, 8), "a:2", "a:3", "a:4", "a:5")
		}},
		{"drop-oldest/evicts-cursor-head-when-others-hold-budget", runtime.DropOldest, func(t *testing.T, h *overloadQueue) {
			a, b := h.tenant("a", overloadCap), h.tenant("b", overloadCap)
			h.fill(t, a, 0, 4)
			h.fill(t, b, 0, 1) // b has nothing of its own to give up
			if in, o := h.m.Ingested.Value(), h.m.DroppedOldest.Value(); in != 5 || o != 1 {
				t.Errorf("ingested %d evicted %d, want 5 1", in, o)
			}
			got := h.drain(t, h.q, 8)
			if len(got) != 4 {
				t.Fatalf("drained %v, want four events", got)
			}
			for _, l := range got {
				if l == "a:0" {
					t.Errorf("drained %v: a's oldest should have been evicted", got)
				}
			}
		}},
		{"drop-newest/counted-not-surfaced", runtime.DropNewest, func(t *testing.T, h *overloadQueue) {
			a := h.tenant("a", overloadCap)
			h.fill(t, a, 0, 6) // fill fails the test on any error
			if in, n := h.m.Ingested.Value(), h.m.DroppedNewest.Value(); in != 6 || n != 2 {
				t.Errorf("ingested %d rejected %d, want 6 2", in, n)
			}
			sameLabels(t, "backlog", h.drain(t, h.q, 8), "a:0", "a:1", "a:2", "a:3")
		}},
		{"block/over-rate-shed-at-admission", runtime.Block, overRate},
		{"drop-oldest/over-rate-shed-at-admission", runtime.DropOldest, overRate},
		{"drop-newest/over-rate-shed-at-admission", runtime.DropNewest, overRate},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newOverloadQueue(tc.policy)
			tc.run(t, h)
			h.conserved(t)
		})
	}
}

// overloadFleet is a one-shard fleet with overloadCap of queue whose Apply
// records per-tenant order and can be held shut.
type overloadFleet struct {
	f       *Fleet
	mu      sync.Mutex
	applied map[string][]int
	hold    chan struct{} // non-nil: Apply blocks on it
	entered chan struct{} // one token per Apply that reached the hold
}

func newOverloadFleet(t *testing.T, policy runtime.OverflowPolicy, hold bool, ids ...string) *overloadFleet {
	t.Helper()
	o := &overloadFleet{applied: map[string][]int{}}
	if hold {
		o.hold = make(chan struct{})
		o.entered = make(chan struct{}, 64)
	}
	cfg := testFleetConfig(specs(ids...), newTestClock(0))
	cfg.Shards = 1
	cfg.Workers = 1
	cfg.BatchSize = 2
	cfg.QueueCapacity = overloadCap
	cfg.Overflow = policy
	cfg.Apply = func(_ TenantState, ev ingest.Event) error {
		if o.hold != nil {
			o.entered <- struct{}{}
			<-o.hold
		}
		o.mu.Lock()
		o.applied[ev.Tenant] = append(o.applied[ev.Tenant], int(ev.Time))
		o.mu.Unlock()
		return nil
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o.f = f
	return o
}

func (o *overloadFleet) ingest(t *testing.T, tenant string, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := o.f.Ingest(context.Background(), sample(tenant, float64(i), 0)); err != nil {
			t.Fatalf("ingest %s[%d]: %v", tenant, i, err)
		}
	}
}

func (o *overloadFleet) ingestAsync(ctx context.Context, tenant string, seq int) <-chan error {
	done := make(chan error, 1)
	go func() { done <- o.f.Ingest(ctx, sample(tenant, float64(seq), 0)) }()
	return done
}

func (o *overloadFleet) start(t *testing.T) {
	t.Helper()
	if err := o.f.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// settle is what every case ends with: Barrier returns, the counters close,
// and a graceful Stop finds nothing left.
func (o *overloadFleet) settle(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := o.f.Barrier(ctx); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	o.conserved(t)
	if err := o.f.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	o.conserved(t)
}

func (o *overloadFleet) conserved(t *testing.T) {
	t.Helper()
	conservedFleet(t, o.f)
}

// conservedFleet checks ingested = applied + Σ dropped with nothing pending.
func conservedFleet(t *testing.T, f *Fleet) {
	t.Helper()
	m := f.Metrics()
	if in, ap, dr := m.Ingested.Value(), m.Applied.Value(), m.Dropped(); in != ap+dr {
		t.Errorf("ingested %d != applied %d + dropped %d", in, ap, dr)
	}
	if p := pending(&f.acct); p != 0 {
		t.Errorf("pending %d, want 0", p)
	}
}

func (o *overloadFleet) order(t *testing.T, tenant string, want ...int) {
	t.Helper()
	o.mu.Lock()
	got := append([]int(nil), o.applied[tenant]...)
	o.mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("tenant %s applied %v, want %v", tenant, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tenant %s applied %v, want %v", tenant, got, want)
		}
	}
}

// counts checks ingested, applied and one drop reason (the others zero).
func (o *overloadFleet) counts(t *testing.T, ingested, applied int64, reason string, dropped int64) {
	t.Helper()
	m := o.f.Metrics()
	by := map[string]int64{
		"oldest": m.DroppedOldest.Value(), "newest": m.DroppedNewest.Value(),
		"canceled": m.DroppedCanceled.Value(), "shutdown": m.DroppedShutdown.Value(),
		"removed": m.DroppedRemoved.Value(), "ratelimited": m.DroppedRateLimited.Value(),
	}
	if got := m.Ingested.Value(); got != ingested {
		t.Errorf("ingested %d, want %d", got, ingested)
	}
	if got := m.Applied.Value(); got != applied {
		t.Errorf("applied %d, want %d", got, applied)
	}
	for r, got := range by {
		want := int64(0)
		if r == reason {
			want = dropped
		}
		if got != want {
			t.Errorf("dropped{%s} %d, want %d", r, got, want)
		}
	}
}

// TestFleetIngestOverload runs the policy table through Fleet.Ingest.
func TestFleetIngestOverload(t *testing.T) {
	bg := context.Background()

	t.Run("block/parks-until-started", func(t *testing.T) {
		o := newOverloadFleet(t, runtime.Block, false, "a")
		o.ingest(t, "a", 0, 4)
		done := o.ingestAsync(bg, "a", 4)
		staysParked(t, "budget full", done)
		o.counts(t, 4, 0, "", 0) // a parked push is not ingested yet
		o.start(t)
		if err := returned(t, "after Start", done); err != nil {
			t.Fatalf("parked Ingest: %v", err)
		}
		o.settle(t)
		o.counts(t, 5, 5, "", 0)
		o.order(t, "a", 0, 1, 2, 3, 4)
	})

	t.Run("block/cancel-while-parked", func(t *testing.T) {
		o := newOverloadFleet(t, runtime.Block, false, "a")
		o.ingest(t, "a", 0, 4)
		ctx, cancel := context.WithCancel(bg)
		done := o.ingestAsync(ctx, "a", 4)
		staysParked(t, "budget full", done)
		cancel()
		if err := returned(t, "after cancel", done); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled Ingest: %v, want context.Canceled", err)
		}
		o.counts(t, 5, 0, "canceled", 1)
		o.start(t)
		o.settle(t)
		o.counts(t, 5, 4, "canceled", 1)
		o.order(t, "a", 0, 1, 2, 3)
	})

	t.Run("block/remove-tenant-while-parked", func(t *testing.T) {
		o := newOverloadFleet(t, runtime.Block, false, "a", "b")
		o.ingest(t, "a", 0, 4)
		done := o.ingestAsync(bg, "b", 0)
		staysParked(t, "budget full", done)
		if err := o.f.RemoveTenant("b"); err != nil {
			t.Fatal(err)
		}
		if err := returned(t, "after RemoveTenant", done); !errors.Is(err, ErrUnknownTenant) {
			t.Fatalf("Ingest parked for a removed tenant: %v, want ErrUnknownTenant", err)
		}
		o.counts(t, 4, 0, "", 0) // refused, not counted
		o.start(t)
		o.settle(t)
		o.counts(t, 4, 4, "", 0)
		o.order(t, "a", 0, 1, 2, 3)
		o.order(t, "b")
	})

	t.Run("block/resize-while-parked", func(t *testing.T) {
		// A tenant the two-shard ring places on the new shard.
		mover := ""
		probe := newRing(2, defaultVnodes)
		for i := 0; mover == ""; i++ {
			if id := fmt.Sprintf("m%d", i); probe.shardOf(id) == 1 {
				mover = id
			}
		}
		o := newOverloadFleet(t, runtime.Block, false, mover)
		o.ingest(t, mover, 0, 4)
		done := o.ingestAsync(bg, mover, 4)
		staysParked(t, "budget full", done)
		if err := o.f.Resize(2); err != nil {
			t.Fatal(err)
		}
		if s, _ := o.f.ShardOf(mover); s != 1 {
			t.Fatalf("tenant on shard %d after Resize, want 1", s)
		}
		// The backlog moved with the tenant, so its new shard is as full.
		staysParked(t, "new shard's budget full", done)
		o.start(t)
		if err := returned(t, "after Start", done); err != nil {
			t.Fatalf("re-homed Ingest: %v", err)
		}
		o.settle(t)
		o.counts(t, 5, 5, "", 0)
		o.order(t, mover, 0, 1, 2, 3, 4)
	})

	// parkBehindHeldApply leaves a started fleet with one event held inside
	// Apply, overloadCap queued behind it and one Ingest parked.
	parkBehindHeldApply := func(t *testing.T) (*overloadFleet, context.CancelFunc, <-chan error) {
		o := newOverloadFleet(t, runtime.Block, true, "a")
		ctx, cancel := context.WithCancel(bg)
		if err := o.f.Start(ctx); err != nil {
			t.Fatal(err)
		}
		o.ingest(t, "a", 0, 1)
		select {
		case <-o.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("consumer never reached Apply")
		}
		o.ingest(t, "a", 1, 5)
		done := o.ingestAsync(bg, "a", 5)
		staysParked(t, "budget full", done)
		return o, cancel, done
	}

	t.Run("block/parked-at-graceful-stop-still-applies", func(t *testing.T) {
		o, cancel, done := parkBehindHeldApply(t)
		defer cancel()
		stopped := make(chan error, 1)
		go func() { stopped <- o.f.Stop(bg) }()
		for !o.f.shell.Stopping() {
			time.Sleep(100 * time.Microsecond)
		}
		close(o.hold)
		if err := returned(t, "parked at Stop", done); err != nil {
			t.Fatalf("Ingest parked at Stop: %v, want admitted", err)
		}
		if err := returned(t, "Stop", stopped); err != nil {
			t.Fatalf("Stop: %v", err)
		}
		if err := o.f.Ingest(bg, sample("a", 9, 0)); !errors.Is(err, runtime.ErrClosed) {
			t.Errorf("Ingest after Stop: %v, want ErrClosed", err)
		}
		o.conserved(t)
		o.counts(t, 6, 6, "", 0)
		o.order(t, "a", 0, 1, 2, 3, 4, 5)
	})

	t.Run("block/parked-at-hard-stop-is-shed", func(t *testing.T) {
		o, cancel, done := parkBehindHeldApply(t)
		cancel() // Start's ctx: the stop is hard from the outset
		for !o.f.shell.HardStopped() {
			time.Sleep(100 * time.Microsecond)
		}
		close(o.hold)
		if err := returned(t, "parked at hard stop", done); err != nil {
			t.Fatalf("Ingest parked at a hard stop: %v, want admitted then shed", err)
		}
		if err := o.f.Stop(bg); err != nil {
			t.Fatalf("Stop: %v", err)
		}
		o.conserved(t)
		// The chunk in Apply when the stop hit completes; the rest is shed.
		o.counts(t, 6, 1, "shutdown", 5)
		o.order(t, "a", 0)
	})

	t.Run("drop-oldest/own-oldest-then-cursor-head", func(t *testing.T) {
		o := newOverloadFleet(t, runtime.DropOldest, false, "a", "b")
		o.ingest(t, "a", 0, 4)
		o.ingest(t, "b", 0, 1) // b holds nothing: the DRR cursor's head (a:0) goes
		o.ingest(t, "a", 4, 5) // a holds three: its own oldest (a:1) goes
		o.counts(t, 6, 0, "oldest", 2)
		o.start(t)
		o.settle(t)
		o.counts(t, 6, 4, "oldest", 2)
		o.order(t, "a", 2, 3, 4)
		o.order(t, "b", 0)
	})

	t.Run("drop-newest/counted-not-surfaced", func(t *testing.T) {
		o := newOverloadFleet(t, runtime.DropNewest, false, "a")
		o.ingest(t, "a", 0, 6) // ingest fails the test on any error
		o.counts(t, 6, 0, "newest", 2)
		o.start(t)
		o.settle(t)
		o.counts(t, 6, 4, "newest", 2)
		o.order(t, "a", 0, 1, 2, 3)
	})
}
