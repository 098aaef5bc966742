package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// The Pump tests pin the producer fast path from the outside: what Pump's
// tenant table may never change (who an ID resolves to, at whatever address
// its bytes sit, across membership generations), what a record of nobody's
// costs, and what the ingest gate samples.

// scriptSource replays recs and runs before[i] ahead of handing out record i
// — on Pump's goroutine, between two of its records.
type scriptSource struct {
	recs   []ingest.Record
	i      int
	before map[int]func()
}

func (s *scriptSource) Next() (ingest.Record, error) {
	if s.i >= len(s.recs) {
		return ingest.Record{}, io.EOF
	}
	if fn := s.before[s.i]; fn != nil {
		fn()
	}
	s.i++
	return s.recs[s.i-1], nil
}

// stateLog records every state the fleet builds, in order, by tenant ID.
type stateLog struct {
	mu     sync.Mutex
	states map[string][]*tstate
}

func (l *stateLog) newState(t TenantSpec) (TenantState, error) {
	st := &tstate{id: t.ID}
	l.mu.Lock()
	l.states[t.ID] = append(l.states[t.ID], st)
	l.mu.Unlock()
	return st, nil
}

// applied reads how many samples each incarnation of id has seen.
func (l *stateLog) applied(id string) []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int64, len(l.states[id]))
	for i, st := range l.states[id] {
		out[i] = st.n
	}
	return out
}

// TestPumpTenantTableChurn: a trace names tenant "a" through one string from
// start to end while the fleet retires "a" and later admits a new "a". The
// table's entry for that address must die with the generation it was resolved
// in: the gap counts as unknown, event for event, and what follows the
// re-admission reaches the new tenant — an entry that outlived its generation
// would keep offering the retired tenant's closed queue.
func TestPumpTenantTableChurn(t *testing.T) {
	log := &stateLog{states: map[string][]*tstate{}}
	cfg := testFleetConfig(specs("a", "b"), newTestClock(0))
	cfg.NewState = log.newState
	cfg.Shards = 2
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer f.Stop(ctx)

	const before, gap, after = 10, 5, 7
	a, b := "a", "b" // one string each: every record shares its bytes
	var recs []ingest.Record
	add := func(n int, failure bool) {
		for i := 0; i < n; i++ {
			recs = append(recs,
				ingest.Record{Event: sample(a, float64(len(recs)), 1)},
				ingest.Record{Event: sample(b, float64(len(recs)), 1)})
		}
		if failure {
			recs = append(recs, ingest.Record{Failure: true, Event: ingest.Event{Tenant: a, Time: float64(len(recs))}})
		}
	}
	add(before, true)
	removeAt := len(recs)
	add(gap, true) // the mark names nobody: skipped, and not an unknown event
	addAt := len(recs)
	add(after, true)

	src := &scriptSource{recs: recs, before: map[int]func(){
		removeAt: func() {
			// Settle first, so that the retired tenant's backlog is empty and
			// every count below is exact.
			if err := f.Barrier(ctx); err != nil {
				t.Error(err)
			}
			if err := f.RemoveTenant(a); err != nil {
				t.Error(err)
			}
		},
		addAt: func() {
			if err := f.AddTenant(TenantSpec{ID: a}); err != nil {
				t.Error(err)
			}
		},
	}}
	n, err := Pump(ctx, f, src)
	if err != nil || n != len(recs) {
		t.Fatalf("Pump = (%d, %v), want (%d, nil)", n, err, len(recs))
	}
	if err := f.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	if got := f.metrics.DroppedUnknown.Value(); got != gap {
		t.Errorf("unknown-tenant events = %d, want the gap's %d", got, gap)
	}
	if got := log.applied(a); len(got) != 2 || got[0] != before || got[1] != after {
		t.Errorf("tenant a applied %v by incarnation, want [%d %d]", got, before, after)
	}
	if got := log.applied(b); len(got) != 1 || got[0] != before+gap+after {
		t.Errorf("tenant b applied %v, want [%d]", got, before+gap+after)
	}
	if v, ok := f.TenantStatus(a); !ok || v.Events != after || v.Failures != 1 {
		t.Errorf("new tenant a: events %d failures %d (registered %v), want %d and 1", v.Events, v.Failures, ok, after)
	}
	if in, want := f.Metrics().Ingested.Value(), int64(2*(before+gap+after)); in != want {
		t.Errorf("ingested %d, want %d (an unknown tenant's events are counted ingested, then dropped)", in, want)
	}
	conservedFleet(t, f)
}

// TestPumpTenantTableAliases: the table is keyed by address, the fleet by
// content. An ID resolves to the same tenant wherever its bytes sit — a fresh
// copy per record, enough of them to evict every slot several times over —
// and two IDs that start at one address (a dictionary cut from one buffer)
// resolve apart.
func TestPumpTenantTableAliases(t *testing.T) {
	long := string([]byte("t10")) // on the heap, so that short shares its bytes
	short := long[:2]
	f, err := New(testFleetConfig(specs(short, long, "t2"), newTestClock(0)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer f.Stop(ctx)

	const rounds = 3 * tableSlots
	recs := make([]ingest.Record, 0, 4*rounds)
	for i := 0; i < rounds; i++ {
		at := float64(i)
		recs = append(recs,
			ingest.Record{Event: sample(short, at, 1)},
			ingest.Record{Event: sample(long, at, 1)},
			ingest.Record{Event: sample("t2", at, 1)},
			ingest.Record{Event: sample(strings.Clone("t2"), at, 1)})
	}
	if n, err := Pump(ctx, f, NewSliceSource(recs)); err != nil || n != len(recs) {
		t.Fatalf("Pump = (%d, %v), want (%d, nil)", n, err, len(recs))
	}
	if err := f.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]int64{"t1": rounds, "t10": rounds, "t2": 2 * rounds} {
		if v, _ := f.TenantStatus(id); v.Events != want {
			t.Errorf("tenant %s applied %d events, want %d", id, v.Events, want)
		}
	}
	if got := f.metrics.DroppedUnknown.Value(); got != 0 {
		t.Errorf("unknown-tenant events = %d, want 0", got)
	}
	conservedFleet(t, f)
}

// TestPumpConcurrent: two Pumps feed one fleet from one record slice — the
// same ID strings behind both tables — while the membership turns over under
// them (a tenant leaves and returns, the shard count moves). Each Pump's table
// is its own, so nothing here needs a lock the race detector could miss; every
// record is consumed, and every event of a tenant that never left is applied
// twice.
func TestPumpConcurrent(t *testing.T) {
	ids := make([]string, 16)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%02d", i)
	}
	cfg := testFleetConfig(specs(ids...), newTestClock(0))
	cfg.Shards = 2
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer f.Stop(ctx)

	const perTenant = 400
	recs := make([]ingest.Record, 0, perTenant*len(ids))
	for i := 0; i < perTenant; i++ {
		for _, id := range ids {
			recs = append(recs, ingest.Record{Event: sample(id, float64(i), 1)})
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n, err := Pump(ctx, f, NewSliceSource(recs)); err != nil || n != len(recs) {
				t.Errorf("Pump = (%d, %v), want (%d, nil)", n, err, len(recs))
			}
		}()
	}
	leaver := ids[len(ids)-1]
	for i := 0; i < 20; i++ {
		if err := f.RemoveTenant(leaver); err != nil {
			t.Error(err)
		}
		if err := f.Resize(2 + i%3); err != nil {
			t.Error(err)
		}
		if err := f.AddTenant(TenantSpec{ID: leaver}); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	if err := f.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[:len(ids)-1] {
		if v, _ := f.TenantStatus(id); v.Events != 2*perTenant {
			t.Errorf("tenant %s applied %d events, want %d", id, v.Events, 2*perTenant)
		}
	}
	conservedFleet(t, f)
}

// TestPumpUnknownTenantZeroAllocs: a trace that keeps naming a retired tenant
// — events and failure marks, between a live tenant's — pumps without
// building an error value a record, and
// pfm_events_dropped_total{reason="unknown"} counts its events one for one (its failure marks are skipped uncounted, as
// RecordFailure's refusals always were).
func TestPumpUnknownTenantZeroAllocs(t *testing.T) {
	f, ids, applied := countingFleet(t, 2, obs.NewTracer(256))
	ctx := context.Background()
	if err := f.RemoveTenant(ids[1]); err != nil {
		t.Fatal(err)
	}
	const burst = 1024
	recs := make([]ingest.Record, 0, 3*burst)
	for i := 0; i < burst; i++ {
		recs = append(recs,
			ingest.Record{Event: sample(ids[0], float64(i), 1)},
			ingest.Record{Event: sample(ids[1], float64(i), 1)},
			ingest.Record{Failure: true, Event: ingest.Event{Tenant: ids[1], Time: float64(i)}})
	}
	src := NewSliceSource(recs)
	runs := 0
	run := func() {
		src.i = 0
		if n, err := Pump(ctx, f, src); err != nil || n != len(recs) {
			t.Fatalf("Pump = (%d, %v), want (%d, nil)", n, err, len(recs))
		}
		if err := f.Barrier(ctx); err != nil {
			t.Fatal(err)
		}
		runs++
	}
	for i := 0; i < 4; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("pumping past a retired tenant allocates %.1f objects per %d records, want 0", allocs, len(recs))
	}
	if got, want := f.metrics.DroppedUnknown.Value(), int64(runs*burst); got != want {
		t.Errorf("unknown-tenant events = %d, want %d", got, want)
	}
	if got, want := applied.Load(), int64(runs*burst); got != want {
		t.Errorf("applied %d, want %d", got, want)
	}
	// The exported form still says which tenant.
	if err := f.Ingest(ctx, sample(ids[1], 0, 1)); err == nil || !strings.Contains(err.Error(), ids[1]) {
		t.Errorf("Ingest for a retired tenant: %v, want ErrUnknownTenant naming %q", err, ids[1])
	}
}

// TestShardSampleTick: the fleet stamps its first push and then one in every
// tracer interval, counted on the one ingest gate (runtime.Gate) through
// Ingest and Pump alike — shed pushes included, so that a shed event is as
// likely to leave a trace as an admitted one; a retired tenant's records not,
// so that they cannot thin the sampling out.
func TestShardSampleTick(t *testing.T) {
	tr := obs.NewTracer(64)
	tr.SetSampleInterval(4)
	cfg := testFleetConfig(specs("s", "gone"), newTestClock(0))
	cfg.Tracer = tr
	cfg.QueueCapacity = 8
	cfg.Overflow = runtime.DropNewest
	cfg.Shards = 1
	f, err := New(cfg) // never started: the shard holds what it admits
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveTenant("gone"); err != nil {
		t.Fatal(err)
	}
	// 13 pushes for s, 8 admitted and 5 shed at the door, each followed by a
	// record of the retired tenant's: the first six pairs through Ingest, the
	// rest through Pump.
	ctx := context.Background()
	var recs []ingest.Record
	for i := 0; i < 13; i++ {
		live, gone := sample("s", float64(i), 1), sample("gone", float64(i), 1)
		if i >= 6 {
			recs = append(recs, ingest.Record{Event: live}, ingest.Record{Event: gone})
			continue
		}
		if err := f.Ingest(ctx, live); err != nil {
			t.Fatal(err)
		}
		if err := f.Ingest(ctx, gone); !errors.Is(err, ErrUnknownTenant) {
			t.Fatalf("Ingest for a retired tenant: %v, want ErrUnknownTenant", err)
		}
	}
	if n, err := Pump(ctx, f, NewSliceSource(recs)); err != nil || n != len(recs) {
		t.Fatalf("Pump = (%d, %v), want (%d, nil)", n, err, len(recs))
	}
	q := f.mem.Load().shards[0]
	buf := make([]item, 16)
	n := q.drainInto(buf)
	if n != 8 {
		t.Fatalf("drained %d, want 8", n)
	}
	for i, it := range buf[:n] {
		if sampled := it.p.Stamp() != 0; sampled != (i%4 == 0) {
			t.Errorf("push %d sampled = %v, want one in 4 from the first", i, sampled)
		}
	}
	q.settled(buf, n)
	// Pushes 8 and 12 were sampled and shed: each left a dropped trace.
	dropped := 0
	for _, s := range tr.Snapshot() {
		if s.Dropped {
			dropped++
		}
	}
	if dropped != 2 {
		t.Errorf("%d dropped traces, want 2 (pushes 8 and 12)", dropped)
	}
	if got := f.metrics.DroppedNewest.Value(); got != 5 {
		t.Errorf("DropNewest sheds = %d, want 5", got)
	}
	if got := f.metrics.DroppedUnknown.Value(); got != 13 {
		t.Errorf("unknown-tenant records = %d, want 13", got)
	}
	if p := pending(&f.acct); p != 0 {
		t.Errorf("pending %d, want 0", p)
	}
}
