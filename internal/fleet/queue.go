package fleet

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// errTenantRemoved is returned by a sub-queue push after RemoveTenant closed
// the tenant's queue; Fleet.Ingest maps it to ErrUnknownTenant so a shared
// trace keeps pumping past a retired tenant.
var errTenantRemoved = errors.New("fleet: tenant removed")

// item is one queued event with its routing target resolved (so the
// consumer never repeats the tenant lookup) and its trace stamp. 128 bytes:
// every tenant ring is a power-of-two multiple of it. An item is only ever
// built in its queue slot (admitLocked): the event is copied once, from the
// producer's record.
type item struct {
	ev ingest.Event
	tn *tenant
	// traceStart is the tracer time at which the push first held its shard's
	// lock, which is also the queue offer; 0 means not sampled.
	traceStart int64
}

// settlement is Barrier's accounting, fleet-wide because a handoff moves
// queued events between shards: how many events have entered a queue and how
// many have left one — applied, shed or evicted. The two counts sit on lines
// of their own (runtime.Counter pads itself): producers write admitted (under
// a shard lock, once an event), consumers write settled (once a chunk), and
// neither line bounces between them the way one shared pending count did.
type settlement struct {
	_        [64]byte // whatever precedes the struct stays off admitted's line
	admitted runtime.Counter
	settled  runtime.Counter
}

// drrQuantum is the deficit-round-robin quantum: how many queued events one
// tenant may contribute per scheduler visit before the drain moves on to the
// next active tenant. Small enough that a chunk interleaves every backlogged
// tenant on the shard, large enough to keep per-tenant copy runs amortized.
const drrQuantum = 16

// tenantQueue is one tenant's FIFO sub-queue. The queue object belongs to
// the tenant and survives shard handoffs: membership changes re-home it onto
// another shardQueue without copying items, so per-tenant FIFO order is
// structural. All fields except owner/inflight are guarded by the owning
// shard's mutex; owner itself is the pointer producers resolve (and
// re-resolve, under lock, to close the load/lock race) before touching the
// rest.
type tenantQueue struct {
	tn    *tenant
	owner atomic.Pointer[shardQueue]

	buf     runtime.FIFO[item] // starts empty, grows to the per-tenant cap
	deficit int                // DRR credit, reset on deactivation

	// The token bucket a push of a rate-limited tenant draws on, at
	// TenantSpec.RateLimit [events/domain-second]; tokenAt is the clock
	// reading it was last refilled at, -Inf before the first push, which the
	// refill then fills to its burst.
	tokens, tokenAt float64

	active bool // linked into the owner's active list
	ready  bool // attached to the owner (false mid-handoff: not schedulable)
	closed bool // tenant removed: pushes rejected, backlog dropped

	// inflight counts items drained into a consumer chunk but not yet
	// settled; a handoff waits for it to reach 0 so the new shard's
	// consumer cannot reorder against the old one's in-flight chunk.
	inflight atomic.Int64
}

func newTenantQueue(tn *tenant, capacity int) *tenantQueue {
	return &tenantQueue{tn: tn, buf: runtime.NewFIFO[item](0, capacity), tokenAt: math.Inf(-1)}
}

// token refills the bucket to domain time now — one second's credit of burst,
// at least 1 — and takes a token from it, reporting whether there was one.
// The caller holds the owning shard's lock.
func (tq *tenantQueue) token(now float64) bool {
	if now > tq.tokenAt {
		rate := tq.tn.spec.RateLimit
		tq.tokens = min(max(rate, 1), tq.tokens+(now-tq.tokenAt)*rate)
		tq.tokenAt = now
	}
	if tq.tokens < 1 {
		return false
	}
	tq.tokens--
	return true
}

// lockOwner locks the shard that owns tq and returns it. owner is the pointer
// producers resolve without a lock, so it is resolved again under the lock: a
// handoff may have re-homed the tenant in between.
func (tq *tenantQueue) lockOwner() *shardQueue {
	for {
		q := tq.owner.Load()
		q.mu.Lock()
		if tq.owner.Load() == q {
			return q
		}
		q.mu.Unlock()
	}
}

// push offers *ev to the tenant's sub-queue under the overflow policy:
// ErrClosed after fleet shutdown (event not counted), ctx.Err() when a blocked
// push is canceled (counted ingested + dropped), DropNewest rejections and
// pushes over the tenant's rate limit counted but not surfaced,
// errTenantRemoved after RemoveTenant (not counted). *ev is read under the
// lock and not kept.
//
// The rate limit decides first, once, at the clock's reading: a push that
// finds its tenant's bucket empty is shed on the spot and never parks, so no
// queue holds events that wait on the domain clock.
//
// Block follows runtime.Waiters: a push that finds no room — its tenant at
// its cap, or the shard over its budget — parks on the owning shard and, woken,
// checks everything again under the lock. A tenant removed or re-homed while
// the push slept is therefore nothing special, just what the re-check finds.
func (tq *tenantQueue) push(ctx context.Context, ev *ingest.Event) error {
	// The clock is the caller's code: read it before taking the lock. Every
	// shard holds the same one. The rate is read off the tenant, whose line
	// the caller has just read, not off the sub-queue's second line, which
	// the consumer writes.
	limited := tq.tn.spec.RateLimit > 0
	var now float64
	if limited {
		now = tq.owner.Load().clock()
	}
	q := tq.lockOwner()
	// A push about to be refused takes no sampling tick and no token: it
	// leaves no trace, and a trace that keeps naming a retired tenant must not
	// thin out the sampling of the shard's live ones.
	var traceStart int64
	if !tq.closed && !q.closed {
		traceStart = q.sampleLocked()
		if limited && !tq.token(now) {
			q.metrics.Ingested.Inc()
			q.metrics.DroppedRateLimited.Inc()
			q.drops.Inc()
			q.mu.Unlock()
			q.traceDrop(ev, traceStart)
			return nil
		}
	}
	var parkedOn *shardQueue // where this push last slept
	for {
		switch {
		case tq.closed:
			q.leaveLocked(parkedOn)
			return errTenantRemoved
		case q.closed && q != parkedOn:
			// A push that parked here before close still lands (the consumer
			// waits for it); one that arrives after is refused.
			q.mu.Unlock()
			return runtime.ErrClosed
		case !tq.buf.Full() && q.total < q.capTotal:
			q.admitLocked(tq, ev, traceStart)
			q.mu.Unlock()
			return nil
		case q.policy == runtime.DropOldest:
			// Evict the pushing tenant's own oldest when it has backlog;
			// when the shard budget is exhausted by OTHER tenants, evict
			// the head of the longest-waiting active tenant (the DRR
			// cursor) — the closest analogue of a single ring's global
			// oldest.
			victim := tq
			if victim.buf.Len() == 0 && len(q.active) > 0 {
				i := q.cursor
				if i >= len(q.active) {
					i = 0
				}
				victim = q.active[i]
			}
			q.metrics.DroppedOldest.Inc()
			q.drops.Inc()
			if victim.buf.Len() == 0 {
				// No evictable backlog on this shard (pathological:
				// everything mid-handoff); shed the incoming event.
				q.metrics.Ingested.Inc()
				q.mu.Unlock()
				q.traceDrop(ev, traceStart)
				return nil
			}
			old := victim.buf.Pop()
			q.total--
			q.acct.settled.Inc()
			if victim.buf.Len() == 0 && victim.active {
				q.removeActiveLocked(victim)
			}
			q.admitLocked(tq, ev, traceStart)
			q.mu.Unlock()
			q.traceDrop(&old.ev, old.traceStart)
			return nil
		case q.policy == runtime.DropNewest:
			q.metrics.Ingested.Inc()
			q.metrics.DroppedNewest.Inc()
			q.drops.Inc()
			q.mu.Unlock()
			q.traceDrop(ev, traceStart)
			return nil
		default: // Block
			parkedOn = q
			if err := q.waiters.Park(ctx, &q.mu); err != nil {
				q.metrics.Ingested.Inc()
				q.metrics.DroppedCanceled.Inc()
				q.drops.Inc()
				q.leaveLocked(q)
				q.traceDrop(ev, traceStart)
				return err
			}
			if tq.owner.Load() != q {
				// Re-homed while parked here: start over on the new shard.
				q.leaveLocked(q)
				q = tq.lockOwner()
			}
		}
	}
}

// admitLocked enqueues one event that fits — the item is built in its slot —
// and accounts it ingested.
func (q *shardQueue) admitLocked(tq *tenantQueue, ev *ingest.Event, traceStart int64) {
	it := tq.buf.PushSlot()
	it.ev = *ev
	it.tn = tq.tn
	it.traceStart = traceStart
	q.total++
	q.metrics.Ingested.Inc()
	q.acct.admitted.Inc()
	q.activateLocked(tq)
}

// sampleLocked decides whether the push that just took q's lock is traced and
// returns its stamp (0: not sampled). One push in every sampleEvery is, the
// shard's first among them, counted on a tick the lock already guards rather
// than on an atomic every producer shares.
func (q *shardQueue) sampleLocked() int64 {
	if q.sampleEvery == 0 {
		return 0
	}
	tick := q.sampleTick
	if q.sampleTick++; q.sampleTick == q.sampleEvery {
		q.sampleTick = 0
	}
	if tick != 0 {
		return 0
	}
	// A sampled item is one with a stamp, so a reading of exactly 0 (the
	// tracer's first nanosecond) is nudged to 1.
	return max(q.tracer.Now(), 1)
}

// leaveLocked unlocks q on behalf of a push that is going away without
// enqueueing. If it had been parked here, the consumer of a closed q may be
// waiting for precisely this push to resolve.
func (q *shardQueue) leaveLocked(parkedOn *shardQueue) {
	if parkedOn == q {
		q.notEmpty.Signal()
	}
	q.mu.Unlock()
}

// shardQueue is one shard's ingest scheduler: a deficit-round-robin pass
// over the member tenant sub-queues, so that however much of the shard a hot
// tenant's backlog holds, the drain keeps interleaving every backlogged
// tenant. The chunk discipline is runtime.Ring's: one lock acquisition fills
// one consumer chunk.
type shardQueue struct {
	mu       sync.Mutex
	notEmpty sync.Cond

	active []*tenantQueue // attached sub-queues with queued items, schedulable
	cursor int            // DRR position in active

	// total tracks queued events across owned sub-queues against capTotal,
	// the shard-wide budget (Config.QueueCapacity). The shared budget is
	// what makes Block/DropOldest apply backpressure at one aggregate depth
	// however the backlog is spread over tenants. The fleet gives every
	// tenant queue the same number as its cap, so the budget always binds
	// first and one tenant can hold all of it; a cap below the budget (the
	// queue tests build them) is what would bound a tenant's share.
	// Block-policy producers wait on the shard, not the tenant, because that
	// budget is the scarce resource.
	total    int
	capTotal int
	waiters  runtime.Waiters

	policy runtime.OverflowPolicy
	clock  func() float64 // the domain clock the token buckets refill on

	metrics     *runtime.Metrics
	drops       *runtime.Counter // per-shard, all reasons
	tracer      *obs.Tracer
	sampleEvery int         // tracer.Interval(); 0 = tracing off
	sampleTick  int         // pushes since the last sampled one
	acct        *settlement // fleet-wide (Barrier)

	closed bool
	shard  int
}

func newShardQueue(policy runtime.OverflowPolicy, capacity int, m *runtime.Metrics, drops *runtime.Counter, tracer *obs.Tracer, acct *settlement, clock func() float64, shard int) *shardQueue {
	q := &shardQueue{
		capTotal:    capacity,
		policy:      policy,
		clock:       clock,
		metrics:     m,
		drops:       drops,
		tracer:      tracer,
		sampleEvery: tracer.Interval(),
		acct:        acct,
		shard:       shard,
	}
	q.notEmpty.L = &q.mu
	return q
}

// attach makes q the owner of tq, counts its backlog against the shard
// budget, and schedules it. Used at construction and AddTenant; a
// handoff goes through moveQueue, which does its own budget transfer.
func (q *shardQueue) attach(tq *tenantQueue) {
	q.mu.Lock()
	tq.owner.Store(q)
	tq.ready = true
	q.total += tq.buf.Len()
	q.activateLocked(tq)
	q.mu.Unlock()
}

// activateLocked links a non-empty, attached sub-queue into the DRR list.
// The consumer only ever waits while the active list is empty (it re-checks
// under this mutex before sleeping), so only the empty→non-empty transition
// signals — per-tenant queues empty and refill constantly under steady
// load, and signaling each refill would wake-storm the condvar.
func (q *shardQueue) activateLocked(tq *tenantQueue) {
	if !tq.active && tq.ready && tq.buf.Len() > 0 {
		q.active = append(q.active, tq)
		tq.active = true
		if len(q.active) == 1 {
			q.notEmpty.Signal()
		}
	}
}

// deactivateAt unlinks active[i] (drained empty); swap-remove keeps the
// visit O(1) and the cursor valid.
func (q *shardQueue) deactivateAt(i int) {
	tq := q.active[i]
	last := len(q.active) - 1
	q.active[i] = q.active[last]
	q.active[last] = nil
	q.active = q.active[:last]
	tq.active = false
	tq.deficit = 0
}

// removeActiveLocked unlinks tq wherever it sits in the active list.
func (q *shardQueue) removeActiveLocked(tq *tenantQueue) {
	for i, a := range q.active {
		if a == tq {
			q.deactivateAt(i)
			if q.cursor > i {
				q.cursor--
			}
			return
		}
	}
}

// depth reports queued events across owned sub-queues.
func (q *shardQueue) depth() int {
	q.mu.Lock()
	d := q.total
	q.mu.Unlock()
	return d
}

// settled marks the chunk's n drained events fully processed: Barrier
// accounting plus the per-tenant in-flight counts a handoff waits on.
// Consecutive same-tenant runs (the shape DRR produces) coalesce into one
// atomic each.
func (q *shardQueue) settled(buf []item, n int) {
	if n == 0 {
		return
	}
	q.acct.settled.Add(int64(n))
	i := 0
	for i < n {
		tq := buf[i].tn.q
		j := i + 1
		for j < n && buf[j].tn.q == tq {
			j++
		}
		tq.inflight.Add(int64(i - j))
		i = j
	}
}

// traceDrop publishes the shed event's partial trace.
func (q *shardQueue) traceDrop(ev *ingest.Event, traceStart int64) {
	if traceStart != 0 {
		q.tracer.PublishDropped(uint8(ev.Kind), ev.Tenant, q.shard,
			traceStart, traceStart, q.tracer.Now())
	}
}

// span is a queued item's trace fields, as the drain body reads them.
func (q *shardQueue) span(it *item) (int64, uint8, string, int) {
	return it.traceStart, uint8(it.ev.Kind), it.ev.Tenant, q.shard
}

// wait blocks while nothing is queued and reports false once the queue is
// closed, empty and no push is parked: the consumer's signal to exit.
func (q *shardQueue) wait() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.active) == 0 {
		if q.closed && q.waiters.Parked() == 0 {
			return false
		}
		q.notEmpty.Wait()
	}
	return true
}

// take fills buf with a deficit-round-robin chunk without blocking (0:
// nothing queued): each pass credits every active tenant one quantum and
// takes up to its deficit, so a chunk interleaves all backlogged tenants
// instead of replaying one hot tenant's FIFO prefix. Every visit takes at
// least one event (an active tenant has a backlog and a quantum of credit).
func (q *shardQueue) take(buf []item) int {
	q.mu.Lock()
	if len(q.active) == 0 {
		q.mu.Unlock()
		return 0
	}
	n := 0
	for n < len(buf) && len(q.active) > 0 {
		if q.cursor >= len(q.active) {
			q.cursor = 0
		}
		tq := q.active[q.cursor]
		tq.deficit = min(tq.deficit+drrQuantum, drrQuantum+len(buf))
		take := min(tq.buf.Len(), tq.deficit, len(buf)-n)
		tq.buf.PopInto(buf[n : n+take])
		n += take
		q.total -= take
		tq.deficit -= take
		tq.inflight.Add(int64(take))
		if tq.buf.Len() == 0 {
			q.deactivateAt(q.cursor)
		} else {
			q.cursor++
		}
	}
	// Not Wake(n): the n longest parked may all be waiting on a tenant that
	// is still at its cap while a later one now fits.
	q.waiters.WakeAll()
	q.mu.Unlock()
	return n
}

// close begins shutdown: new pushes are rejected, parked pushes complete as
// the consumer drains, then wait reports false.
func (q *shardQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.mu.Unlock()
}

// closeAndDrain retires a removed tenant's sub-queue: future pushes are
// rejected, parked ones find out when they re-check, the backlog is shed as
// removed drops. The sub-queue may still have in-flight chunk items; they
// apply normally.
func (tq *tenantQueue) closeAndDrain() {
	q := tq.lockOwner()
	tq.closed = true
	if tq.active {
		q.removeActiveLocked(tq)
	}
	shed := tq.buf.Len()
	q.metrics.DroppedRemoved.Add(int64(shed))
	q.drops.Add(int64(shed))
	for i := 0; i < shed; i++ {
		old := tq.buf.Pop()
		q.traceDrop(&old.ev, old.traceStart)
	}
	q.total -= shed
	q.acct.settled.Add(int64(shed))
	q.waiters.WakeAll() // budget freed, and the tenant's own pushes must leave
	q.mu.Unlock()
}

// moveQueue re-homes tq onto dst — the handoff pass of a membership change.
// Items are not copied: the sub-queue detaches from its current shard (no
// new drains pick it), waits out the old consumer's in-flight chunk so
// per-tenant apply order is preserved, then attaches to dst. Returns how
// many queued events moved shards.
func moveQueue(tq *tenantQueue, dst *shardQueue) int {
	src := tq.lockOwner()
	if src == dst || tq.closed {
		src.mu.Unlock()
		return 0
	}
	if tq.active {
		src.removeActiveLocked(tq)
	}
	tq.ready = false
	moved := tq.buf.Len()
	src.total -= moved
	tq.owner.Store(dst) // producers now push under dst's lock
	// The tenant's parked pushes re-offer on dst (a push is only ever parked
	// under the lock of the shard it will push to); the others may fit now.
	src.waiters.WakeAll()
	src.mu.Unlock()
	// The chunk is a few events from settling: yield, do not sleep a timer
	// tick per moved tenant (AwaitSettled). No ctx: the consumer always settles.
	_ = runtime.AwaitSettled(context.Background(), func() bool { return tq.inflight.Load() == 0 })
	dst.mu.Lock()
	// The detach snapshot, not the live length: pushes that landed between
	// detach and attach were already counted in dst.total when admitted.
	dst.total += moved
	tq.ready = true
	dst.activateLocked(tq)
	dst.mu.Unlock()
	return moved
}
