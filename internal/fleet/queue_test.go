package fleet

import (
	"context"
	"testing"
	"unsafe"

	"repro/internal/ingest"
	"repro/internal/runtime"
)

// TestItemSize pins the queued item — the packed event with its trace stamp,
// and its tenant pointer — at 80 bytes: tenant rings grow by doubling, so
// every byte here is paid 8, 16, 32… times per tenant.
func TestItemSize(t *testing.T) {
	if got := unsafe.Sizeof(item{}); got != 80 {
		t.Errorf("sizeof(item) = %d, want 80", got)
	}
}

// drainInto is the consumer's side of the queue in one call, wait and take
// composed: it fills buf with a chunk, blocking while nothing is queued, and
// returns 0 only once wait reports the queue run dry.
func (q *shardQueue) drainInto(buf []item) int {
	for {
		if n := q.take(buf); n > 0 {
			return n
		}
		if !q.wait() {
			return 0
		}
	}
}

// queueHarness wires a bare shardQueue for direct scheduler tests.
type queueHarness struct {
	q     *shardQueue
	m     *runtime.Metrics
	acct  settlement
	clock float64
}

// pending reads Barrier's two counts as the one they replaced: events
// admitted and not yet settled.
func pending(a *settlement) int64 { return a.admitted.Value() - a.settled.Value() }

func newQueueHarness(policy runtime.OverflowPolicy) *queueHarness {
	h := &queueHarness{m: runtime.NewMetrics()}
	h.q = newShardQueue(policy, 1<<16, h.m, &runtime.Counter{},
		runtime.NewGate(nil, h.m, nil), &h.acct, func() float64 { return h.clock }, 0)
	return h
}

func (h *queueHarness) tenant(id string, capacity int, rate float64) *tenantQueue {
	tn := &tenant{spec: TenantSpec{ID: id, RateLimit: rate}}
	tq := newTenantQueue(tn, capacity)
	tn.q = tq
	h.q.attach(tq)
	return tq
}

// queued reads a sub-queue's depth (the one place these tests touch the
// buffer's representation).
func queued(tq *tenantQueue) int { return tq.buf.Len() }

func (h *queueHarness) fill(t *testing.T, tq *tenantQueue, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := tq.push(context.Background(), &ingest.Event{Tenant: tq.tn.spec.ID, Time: float64(i)}, 0); err != nil {
			t.Fatalf("push %s[%d]: %v", tq.tn.spec.ID, i, err)
		}
	}
}

// TestDRRFairness: one tenant with a 1000-event backlog must not starve
// small tenants — every small tenant's entire backlog fits in the first
// drained chunk because DRR credits each active tenant one quantum per
// pass before revisiting the hot one.
func TestDRRFairness(t *testing.T) {
	h := newQueueHarness(runtime.Block)
	hot := h.tenant("hot", 2000, 0)
	h.fill(t, hot, 1000)
	smalls := []*tenantQueue{
		h.tenant("s1", 100, 0), h.tenant("s2", 100, 0), h.tenant("s3", 100, 0),
	}
	for _, tq := range smalls {
		h.fill(t, tq, 5)
	}

	buf := make([]item, 64)
	n := h.q.drainInto(buf)
	if n != 64 {
		t.Fatalf("drainInto = %d, want 64", n)
	}
	for _, tq := range smalls {
		if queued(tq) != 0 {
			t.Errorf("small tenant %s still has %d queued after first chunk; DRR starved it",
				tq.tn.spec.ID, queued(tq))
		}
	}
	counts := map[string]int{}
	for _, it := range buf[:n] {
		counts[it.tn.spec.ID]++
	}
	if counts["s1"] != 5 || counts["s2"] != 5 || counts["s3"] != 5 {
		t.Errorf("small-tenant take = %v, want 5 each", counts)
	}
	if counts["hot"] != 64-15 {
		t.Errorf("hot take = %d, want %d", counts["hot"], 64-15)
	}
	h.q.settled(buf, n)

	// Per-tenant FIFO survives the interleave: each tenant's events come
	// out in push order across the whole drain.
	last := map[string]float64{"hot": -1, "s1": -1, "s2": -1, "s3": -1}
	check := func(buf []item, n int) {
		for _, it := range buf[:n] {
			ev := it.event()
			if ev.Time <= last[ev.Tenant] {
				t.Fatalf("tenant %s reordered: %v after %v",
					ev.Tenant, ev.Time, last[ev.Tenant])
			}
			last[ev.Tenant] = ev.Time
		}
	}
	check(buf, n)
	total := n
	h.q.close()
	for {
		n := h.q.drainInto(buf)
		if n == 0 {
			break
		}
		check(buf, n)
		h.q.settled(buf, n)
		total += n
	}
	if total != 1015 {
		t.Errorf("drained %d events total, want 1015", total)
	}
	if got := pending(&h.acct); got != 0 {
		t.Errorf("pending = %d after full settle, want 0", got)
	}
}

// TestQueueRateLimit: a rate-limited tenant's pushes draw on its token bucket
// at the clock's reading — full at its burst on the first push, refilled as
// the domain clock advances and capped at the burst — and a push that finds
// it empty is shed at admission, counted as a ratelimited drop. What was
// admitted drains at once, whether the clock moves or not.
func TestQueueRateLimit(t *testing.T) {
	h := newQueueHarness(runtime.Block)
	tq := h.tenant("rl", 100, 2) // 2 events/s, burst 2
	buf := make([]item, 64)
	for _, step := range []struct {
		clock          float64
		admitted, shed int
	}{
		{0, 2, 8},   // the bucket starts full at its burst
		{0, 0, 10},  // clock frozen: nothing refills
		{3, 2, 8},   // 3 s × 2/s = 6 tokens, capped at the burst
		{3.5, 1, 9}, // half a second: one token
	} {
		h.clock = step.clock
		shedBefore := h.m.DroppedRateLimited.Value()
		h.fill(t, tq, 10)
		if got := queued(tq); got != step.admitted {
			t.Fatalf("clock %g: %d queued, want %d admitted", step.clock, got, step.admitted)
		}
		if got := h.m.DroppedRateLimited.Value() - shedBefore; got != int64(step.shed) {
			t.Fatalf("clock %g: %d shed as ratelimited, want %d", step.clock, got, step.shed)
		}
		if step.admitted > 0 {
			n := h.q.drainInto(buf)
			if n != step.admitted {
				t.Fatalf("clock %g: drained %d, want %d", step.clock, n, step.admitted)
			}
			h.q.settled(buf, n)
		}
	}
	if in, d := h.m.Ingested.Value(), h.m.Dropped(); in != 40 || d != 35 {
		t.Errorf("ingested %d dropped %d, want 40 and 35", in, d)
	}
	if got := pending(&h.acct); got != 0 {
		t.Errorf("pending = %d, want 0", got)
	}
}

// TestQueueRateLimitUnlimitedPeer: one tenant's empty token bucket sheds
// only that tenant's pushes; an unlimited peer on the same shard is admitted
// and drained in full.
func TestQueueRateLimitUnlimitedPeer(t *testing.T) {
	h := newQueueHarness(runtime.Block)
	limited := h.tenant("lim", 100, 1)
	free := h.tenant("free", 100, 0)
	h.fill(t, limited, 8)
	h.fill(t, free, 8)
	if got := h.m.DroppedRateLimited.Value(); got != 7 {
		t.Errorf("%d shed as ratelimited, want the limited tenant's 7 over its burst of 1", got)
	}

	buf := make([]item, 64)
	n := h.q.drainInto(buf)
	counts := map[string]int{}
	for _, it := range buf[:n] {
		counts[it.tn.spec.ID]++
	}
	if counts["free"] != 8 {
		t.Errorf("unlimited tenant drained %d, want all 8", counts["free"])
	}
	if counts["lim"] != 1 {
		t.Errorf("limited tenant drained %d, want 1 (burst floor)", counts["lim"])
	}
	h.q.settled(buf, n)
}

// TestMoveQueuePreservesBacklog: a handoff relocates the sub-queue object
// — every queued item, in order, with pending accounting intact.
func TestMoveQueuePreservesBacklog(t *testing.T) {
	h := newQueueHarness(runtime.Block)
	tq := h.tenant("mv", 100, 0)
	h.fill(t, tq, 9)

	dst := newShardQueue(runtime.Block, 1<<16, runtime.NewMetrics(), &runtime.Counter{},
		nil, &h.acct, func() float64 { return 0 }, 1)
	if got := moveQueue(tq, dst); got != 9 {
		t.Fatalf("moveQueue = %d, want 9", got)
	}
	if moveQueue(tq, dst) != 0 {
		t.Error("same-shard move should be a no-op")
	}
	if tq.owner.Load() != dst {
		t.Fatal("owner not re-homed")
	}
	// New pushes land on the destination.
	h.fill(t, tq, 1)
	buf := make([]item, 16)
	n := dst.drainInto(buf)
	if n != 10 {
		t.Fatalf("destination drained %d, want 10", n)
	}
	for i, it := range buf[:9] {
		if tm := it.event().Time; tm != float64(i) {
			t.Fatalf("item %d out of order after handoff: time %v", i, tm)
		}
	}
	dst.settled(buf, n)
	if got := pending(&h.acct); got != 0 {
		t.Errorf("pending = %d after settle, want 0", got)
	}
	// The source no longer schedules the tenant.
	h.q.close()
	if n := h.q.drainInto(buf); n != 0 {
		t.Errorf("source drained %d items after handoff, want 0", n)
	}
}

// TestQueueDeficitCap: an idle-then-bursty tenant cannot bank unbounded
// deficit — credit is clamped to quantum + chunk size, so one visit can
// never exceed a chunk.
func TestQueueDeficitCap(t *testing.T) {
	h := newQueueHarness(runtime.Block)
	tq := h.tenant("cap", 4000, 0)
	h.fill(t, tq, 3000)
	buf := make([]item, 32)
	for i := 0; i < 3; i++ {
		n := h.q.drainInto(buf)
		if n == 0 {
			t.Fatal("unexpected empty drain")
		}
		h.q.settled(buf, n)
		if tq.deficit > drrQuantum+len(buf) {
			t.Fatalf("deficit %d exceeds cap %d", tq.deficit, drrQuantum+len(buf))
		}
	}
}
