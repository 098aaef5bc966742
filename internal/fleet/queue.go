package fleet

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// errTenantRemoved is returned by a sub-queue push after RemoveTenant closed
// the tenant's queue; Fleet.Ingest maps it to ErrUnknownTenant so a shared
// trace keeps pumping past a retired tenant.
var errTenantRemoved = errors.New("fleet: tenant removed")

// item is one queued event with its routing target resolved (so the
// consumer never repeats the tenant lookup) and its trace stamp. 128 bytes:
// every tenant ring is a power-of-two multiple of it.
type item struct {
	ev Event
	tn *tenant
	// traceStart is the tracer time at Ingest entry, which is also the queue
	// offer (the push follows within nanoseconds); 0 means not sampled.
	traceStart int64
}

// parkedPush is one producer waiting (Block policy) for room in the shard's
// budget. The consumer admits the item itself when space frees and closes
// ch; the close is the release that makes admitted/removed visible. Parked
// pushes queue FIFO on the shard (not the tenant) because the scarce
// resource is the shard-wide budget: admission order is arrival order
// across tenants, and a handoff migrates a tenant's parked entries to the
// destination shard along with its sub-queue.
type parkedPush struct {
	it       item
	tq       *tenantQueue
	ch       chan struct{}
	admitted bool // consumer enqueued the item before closing ch
	removed  bool // tenant was removed before the item fit
	retry    bool // a handoff re-homed the tenant: re-offer on the new shard
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

	buf     []item // circular; grows geometrically up to cap
	head    int
	n       int
	cap     int
	deficit int // DRR credit, reset on deactivation

	rate      float64 // TenantSpec.RateLimit [events/domain-second]; 0 = unlimited
	burst     float64
	tokens    float64
	tokenAt   float64
	tokenInit bool

	active bool // linked into the owner's active list
	ready  bool // attached to the owner (false mid-handoff: not schedulable)
	closed bool // tenant removed: pushes rejected, backlog dropped

	// inflight counts items drained into a consumer chunk but not yet
	// settled; a handoff waits for it to reach 0 so the new shard's
	// consumer cannot reorder against the old one's in-flight chunk.
	inflight atomic.Int64
}

func newTenantQueue(tn *tenant, capacity int, rate float64) *tenantQueue {
	tq := &tenantQueue{tn: tn, cap: capacity, rate: rate}
	if rate > 0 {
		tq.burst = rate
		if tq.burst < 1 {
			tq.burst = 1
		}
	}
	return tq
}

// enqueue appends one item (caller holds the owner lock and checked n < cap).
func (tq *tenantQueue) enqueue(it item) {
	if tq.n == len(tq.buf) {
		tq.grow()
	}
	i := tq.head + tq.n
	if i >= len(tq.buf) {
		i -= len(tq.buf)
	}
	tq.buf[i] = it
	tq.n++
}

func (tq *tenantQueue) grow() {
	newCap := len(tq.buf) * 2
	if newCap < 8 {
		newCap = 8
	}
	if newCap > tq.cap {
		newCap = tq.cap
	}
	nb := make([]item, newCap)
	for i := 0; i < tq.n; i++ {
		j := tq.head + i
		if j >= len(tq.buf) {
			j -= len(tq.buf)
		}
		nb[i] = tq.buf[j]
	}
	tq.buf = nb
	tq.head = 0
}

// dequeueOne pops the oldest item (caller holds the owner lock, n > 0).
func (tq *tenantQueue) dequeueOne() item {
	it := tq.buf[tq.head]
	tq.buf[tq.head] = item{}
	tq.head++
	if tq.head == len(tq.buf) {
		tq.head = 0
	}
	tq.n--
	return it
}

// dequeueInto pops k items into out (caller holds the owner lock, k <= n).
func (tq *tenantQueue) dequeueInto(out []item, k int) {
	for i := 0; i < k; i++ {
		j := tq.head + i
		if j >= len(tq.buf) {
			j -= len(tq.buf)
		}
		out[i] = tq.buf[j]
		tq.buf[j] = item{}
	}
	tq.head += k
	if tq.head >= len(tq.buf) {
		tq.head -= len(tq.buf)
	}
	tq.n -= k
}

// refill advances the token bucket to domain time now.
func (tq *tenantQueue) refill(now float64) {
	if !tq.tokenInit {
		tq.tokens = tq.burst
		tq.tokenAt = now
		tq.tokenInit = true
		return
	}
	if now > tq.tokenAt {
		tq.tokens += (now - tq.tokenAt) * tq.rate
		if tq.tokens > tq.burst {
			tq.tokens = tq.burst
		}
		tq.tokenAt = now
	}
}

// admitParkedLocked admits waiting parked pushes in shard-FIFO order while
// the budget has room (caller holds q.mu). Each admission is the deferred
// completion of a Block-policy push: counted ingested/pending here. Entries
// whose tenant sub-queue is individually full are skipped, not head-blocked.
func (q *shardQueue) admitParkedLocked() {
	if len(q.parked) == 0 {
		return
	}
	kept := q.parked[:0]
	for i, pp := range q.parked {
		if q.total >= q.capTotal {
			kept = append(kept, q.parked[i:]...)
			break
		}
		if pp.tq.n >= pp.tq.cap {
			kept = append(kept, pp)
			continue
		}
		pp.tq.enqueue(pp.it)
		q.total++
		q.metrics.Ingested.Inc()
		q.pending.Add(1)
		q.activateLocked(pp.tq)
		pp.admitted = true
		close(pp.ch)
	}
	for i := len(kept); i < len(q.parked); i++ {
		q.parked[i] = nil
	}
	q.parked = kept
}

// push offers one event to the tenant's sub-queue under the overflow policy.
// The semantics mirror the previous shared-ring queue: ErrClosed after fleet
// shutdown (event not counted), ctx.Err() when a blocked push is canceled
// (counted ingested + dropped), DropNewest rejections counted but not
// surfaced, errTenantRemoved after RemoveTenant (not counted).
func (tq *tenantQueue) push(ctx context.Context, it item) error {
	for {
		q := tq.owner.Load()
		q.mu.Lock()
		if tq.owner.Load() != q {
			q.mu.Unlock()
			continue // re-homed between load and lock
		}
		switch {
		case tq.closed:
			q.mu.Unlock()
			return errTenantRemoved
		case q.closed:
			q.mu.Unlock()
			return runtime.ErrClosed
		}
		if tq.n < tq.cap && q.total < q.capTotal {
			tq.enqueue(it)
			q.total++
			q.metrics.Ingested.Inc()
			q.pending.Add(1)
			q.activateLocked(tq)
			q.mu.Unlock()
			return nil
		}
		switch q.policy {
		case runtime.DropOldest:
			// Evict the pushing tenant's own oldest when it has backlog;
			// when the shard budget is exhausted by OTHER tenants, evict
			// the head of the longest-waiting active tenant (the DRR
			// cursor) — the closest analogue of the shared ring's global
			// oldest.
			victim := tq
			if victim.n == 0 && len(q.active) > 0 {
				i := q.cursor
				if i >= len(q.active) {
					i = 0
				}
				victim = q.active[i]
			}
			if victim.n == 0 {
				// No evictable backlog on this shard (pathological:
				// everything mid-handoff); shed the incoming event.
				q.metrics.Ingested.Inc()
				q.metrics.DroppedOldest.Inc()
				q.dropCount()
				q.mu.Unlock()
				q.traceDrop(it)
				return nil
			}
			old := victim.dequeueOne()
			q.total--
			q.pending.Add(-1)
			q.metrics.DroppedOldest.Inc()
			q.dropCount()
			if victim.n == 0 && victim.active {
				q.removeActiveLocked(victim)
			}
			tq.enqueue(it)
			q.total++
			q.metrics.Ingested.Inc()
			q.pending.Add(1)
			q.activateLocked(tq)
			q.mu.Unlock()
			q.traceDrop(old)
			return nil
		case runtime.DropNewest:
			q.metrics.Ingested.Inc()
			q.metrics.DroppedNewest.Inc()
			q.dropCount()
			q.mu.Unlock()
			q.traceDrop(it)
			return nil
		default: // Block
			pp := &parkedPush{it: it, tq: tq, ch: make(chan struct{})}
			q.parked = append(q.parked, pp)
			q.mu.Unlock()
			select {
			case <-pp.ch:
				if pp.removed {
					return errTenantRemoved
				}
				if pp.retry {
					continue
				}
				return nil // admitted by the consumer
			case <-ctx.Done():
				if tq.cancelParked(pp) {
					q.metrics.Ingested.Inc()
					q.metrics.DroppedCanceled.Inc()
					q.dropCount()
					q.traceDrop(it)
					return ctx.Err()
				}
				// Lost the race: the consumer already resolved the park.
				<-pp.ch
				if pp.removed {
					return errTenantRemoved
				}
				if pp.retry {
					continue
				}
				return nil
			}
		}
	}
}

// cancelParked withdraws pp if it is still parked; false means the consumer
// resolved it first (admitted or removed).
func (tq *tenantQueue) cancelParked(pp *parkedPush) bool {
	for {
		q := tq.owner.Load()
		q.mu.Lock()
		if tq.owner.Load() != q {
			q.mu.Unlock()
			continue
		}
		for i, p := range q.parked {
			if p == pp {
				copy(q.parked[i:], q.parked[i+1:])
				q.parked[len(q.parked)-1] = nil
				q.parked = q.parked[:len(q.parked)-1]
				q.mu.Unlock()
				return true
			}
		}
		q.mu.Unlock()
		return false
	}
}

// shardQueue is one shard's ingest scheduler: a deficit-round-robin pass
// over the member tenant sub-queues replaces the old shared FIFO ring, so a
// hot tenant can saturate only its own sub-queue while the drain keeps
// interleaving every backlogged tenant. The chunk discipline is unchanged:
// one lock acquisition fills one consumer chunk.
type shardQueue struct {
	mu       sync.Mutex
	notEmpty sync.Cond

	members map[*tenantQueue]struct{}
	active  []*tenantQueue // members with queued items, schedulable
	cursor  int            // DRR position in active

	// total tracks queued events across owned sub-queues against capTotal,
	// the shard-wide budget (Config.QueueCapacity). Per-tenant caps bound
	// how much of that budget one tenant can hold; the shared budget is
	// what makes Block/DropOldest apply backpressure at the same aggregate
	// depth as the shared ring this scheduler replaced.
	total    int
	capTotal int
	parked   []*parkedPush // Block-policy producers waiting for budget, FIFO

	policy  runtime.OverflowPolicy
	quantum int
	clock   func() float64 // domain clock for token buckets

	metrics     *runtime.Metrics
	drops       *runtime.Counter // per-shard, all reasons
	ratelimited *runtime.Counter // fleet-wide: scheduler skips for empty buckets
	tracer      *obs.Tracer
	pending     *atomic.Int64 // fleet-wide admitted-not-settled (Barrier)

	closed bool
	shard  int
}

func newShardQueue(policy runtime.OverflowPolicy, capacity int, m *runtime.Metrics, drops, ratelimited *runtime.Counter, tracer *obs.Tracer, pending *atomic.Int64, clock func() float64, shard int) *shardQueue {
	q := &shardQueue{
		members:     make(map[*tenantQueue]struct{}),
		capTotal:    capacity,
		policy:      policy,
		quantum:     drrQuantum,
		clock:       clock,
		metrics:     m,
		drops:       drops,
		ratelimited: ratelimited,
		tracer:      tracer,
		pending:     pending,
		shard:       shard,
	}
	q.notEmpty.L = &q.mu
	return q
}

// attach adds tq to the shard's membership, counts its backlog against the
// shard budget, and schedules it. Used at construction and AddTenant; a
// handoff goes through moveQueue, which does its own budget transfer.
func (q *shardQueue) attach(tq *tenantQueue) {
	q.mu.Lock()
	q.members[tq] = struct{}{}
	tq.owner.Store(q)
	tq.ready = true
	q.total += tq.n
	q.activateLocked(tq)
	q.mu.Unlock()
}

// activateLocked links a non-empty, attached sub-queue into the DRR list.
// The consumer only ever waits while the active list is empty (it re-checks
// under this mutex before sleeping), so only the empty→non-empty transition
// signals — per-tenant queues empty and refill constantly under steady
// load, and signaling each refill would wake-storm the condvar.
func (q *shardQueue) activateLocked(tq *tenantQueue) {
	if !tq.active && tq.ready && tq.n > 0 {
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
	q.pending.Add(-int64(n))
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

// dropCount counts one shed event on this shard.
func (q *shardQueue) dropCount() {
	if q.drops != nil {
		q.drops.Inc()
	}
}

// traceDrop publishes the shed event's partial trace.
func (q *shardQueue) traceDrop(it item) {
	if it.traceStart != 0 && q.tracer != nil {
		q.tracer.PublishDropped(uint8(it.ev.Kind), it.ev.Tenant, q.shard,
			it.traceStart, it.traceStart, q.tracer.Now())
	}
}

// drainInto fills buf with a deficit-round-robin chunk: each pass credits
// every active tenant one quantum and takes up to its deficit (and token
// balance), so a chunk interleaves all backlogged tenants instead of
// replaying one hot tenant's FIFO prefix. It blocks while nothing is
// schedulable and returns (0, false) only once the queue is closed and
// empty. (0, true) means queued items exist but every active tenant is over
// its rate limit — the consumer should back off briefly and retry.
func (q *shardQueue) drainInto(buf []item) (int, bool) {
	q.mu.Lock()
	for len(q.active) == 0 {
		if q.closed {
			q.mu.Unlock()
			return 0, false
		}
		q.notEmpty.Wait()
	}
	n := 0
	clock := math.NaN() // domain clock, read at most once per chunk
	for n < len(buf) && len(q.active) > 0 {
		progress := false
		visits := len(q.active)
		for v := 0; v < visits && n < len(buf) && len(q.active) > 0; v++ {
			if q.cursor >= len(q.active) {
				q.cursor = 0
			}
			tq := q.active[q.cursor]
			tq.deficit += q.quantum
			if lim := q.quantum + len(buf); tq.deficit > lim {
				tq.deficit = lim
			}
			take := tq.n
			if take > tq.deficit {
				take = tq.deficit
			}
			if take > len(buf)-n {
				take = len(buf) - n
			}
			// Rate limits stop applying once the queue is closing: shutdown
			// must drain the backlog even if the domain clock never advances
			// again to refill a bucket.
			if tq.rate > 0 && !q.closed {
				if math.IsNaN(clock) {
					clock = q.clock()
				}
				tq.refill(clock)
				if allowed := int(tq.tokens); take > allowed {
					take = allowed
					if q.ratelimited != nil {
						q.ratelimited.Inc()
					}
				}
			}
			if take > 0 {
				tq.dequeueInto(buf[n:], take)
				n += take
				q.total -= take
				tq.deficit -= take
				if tq.rate > 0 {
					tq.tokens -= float64(take)
				}
				tq.inflight.Add(int64(take))
				progress = true
			}
			if tq.n == 0 {
				q.deactivateAt(q.cursor)
			} else {
				q.cursor++
			}
		}
		if !progress {
			break
		}
	}
	q.admitParkedLocked()
	q.mu.Unlock()
	if n == 0 {
		return 0, true // backlog exists but is rate-limited; retry shortly
	}
	return n, false
}

// close begins shutdown: new pushes are rejected, parked pushes complete as
// the consumer drains (same contract as the shared ring it replaces), then
// drainInto returns (0, false).
func (q *shardQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.mu.Unlock()
}

// closeAndDrain retires a removed tenant's sub-queue: reject future pushes,
// shed the backlog (the caller accounts the drops), cancel parked pushes.
// Returns the shed items for drop accounting/tracing. The sub-queue may
// still have in-flight chunk items; they apply normally.
func (tq *tenantQueue) closeAndDrain() []item {
	for {
		q := tq.owner.Load()
		q.mu.Lock()
		if tq.owner.Load() != q {
			q.mu.Unlock()
			continue
		}
		tq.closed = true
		if tq.active {
			q.removeActiveLocked(tq)
		}
		delete(q.members, tq)
		shed := make([]item, tq.n)
		tq.dequeueInto(shed, tq.n)
		q.total -= len(shed)
		q.pending.Add(-int64(len(shed)))
		if len(q.parked) > 0 {
			kept := q.parked[:0]
			for _, pp := range q.parked {
				if pp.tq == tq {
					pp.removed = true
					close(pp.ch)
					continue
				}
				kept = append(kept, pp)
			}
			for i := len(kept); i < len(q.parked); i++ {
				q.parked[i] = nil
			}
			q.parked = kept
		}
		q.admitParkedLocked() // shed backlog freed shard budget
		q.mu.Unlock()
		for range shed {
			q.metrics.DroppedShutdown.Inc()
			q.dropCount()
		}
		for _, it := range shed {
			q.traceDrop(it)
		}
		return shed
	}
}

// moveQueue re-homes tq onto dst — the handoff pass of a membership change.
// Items are not copied: the sub-queue detaches from its current shard (no
// new drains pick it), waits out the old consumer's in-flight chunk so
// per-tenant apply order is preserved, then attaches to dst. Returns how
// many queued events moved shards.
func moveQueue(tq *tenantQueue, dst *shardQueue) int {
	src := tq.owner.Load()
	if src == dst {
		return 0
	}
	src.mu.Lock()
	if tq.owner.Load() != src {
		src.mu.Unlock()
		return moveQueue(tq, dst) // re-homed concurrently; retry
	}
	if tq.closed {
		src.mu.Unlock()
		return 0
	}
	if tq.active {
		src.removeActiveLocked(tq)
	}
	delete(src.members, tq)
	tq.ready = false
	moved := tq.n
	src.total -= moved
	if len(src.parked) > 0 {
		// Parked producers for the moving tenant re-offer on the new
		// shard instead of migrating: the retry keeps every parked entry
		// under exactly one shard's lock and lets cancelParked stay a
		// single-owner scan.
		kept := src.parked[:0]
		for _, pp := range src.parked {
			if pp.tq == tq {
				pp.retry = true
				close(pp.ch)
				continue
			}
			kept = append(kept, pp)
		}
		for i := len(kept); i < len(src.parked); i++ {
			src.parked[i] = nil
		}
		src.parked = kept
	}
	tq.owner.Store(dst) // producers now push under dst's lock
	src.admitParkedLocked()
	src.mu.Unlock()
	for tq.inflight.Load() != 0 {
		time.Sleep(20 * time.Microsecond)
	}
	dst.mu.Lock()
	dst.members[tq] = struct{}{}
	// The detach snapshot, not tq.n: pushes that landed between detach and
	// attach were already counted in dst.total by the fast path.
	dst.total += moved
	tq.ready = true
	dst.activateLocked(tq)
	dst.mu.Unlock()
	return moved
}
