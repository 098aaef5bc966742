package obs

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// The three functions below are the tracer this package shipped before
// CompleteCycle swept only new claims and Slowest selected in one pass: a
// scan of every slot per cycle, a scan for the newest complete id, and
// snapshot + stable sort for the ranking. Each takes the ring lock once. They stay here, like fleet's
// oracleReader, as the oracle the product must agree with on every
// interleaving.

func oracleCompleteCycle(t *Tracer, evalStart, evalEnd, actStart, actEnd int64) int {
	done := 0
	t.mu.Lock()
	for i := range t.slots {
		s := &t.slots[i]
		if s.state == stateApplied && s.stamps[3] <= evalStart {
			s.stamps[4], s.stamps[5], s.stamps[6], s.stamps[7] = evalStart, evalEnd, actStart, actEnd
			s.state = stateDone
			done++
		}
	}
	t.mu.Unlock()
	return done
}

func oracleNewestCompleteID(t *Tracer) uint64 {
	var newest uint64
	t.mu.Lock()
	for i := range t.slots {
		s := &t.slots[i]
		if s.state == stateDone && s.id > newest {
			newest = s.id
		}
	}
	t.mu.Unlock()
	return newest
}

func oracleSlowest(t *Tracer, n int) []TraceView {
	if n <= 0 {
		return nil
	}
	all := t.Snapshot()
	sort.SliceStable(all, func(i, j int) bool { return all[i].Total > all[j].Total })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// tracerPair drives the product and an oracle-completed twin through the
// same publishes and cycles and compares everything a reader can see.
type tracerPair struct {
	t          *testing.T
	prod, twin *Tracer
}

func newTracerPair(t *testing.T, capacity int) *tracerPair {
	return &tracerPair{t: t, prod: NewTracer(capacity), twin: NewTracer(capacity)}
}

func (p *tracerPair) applied(key string, start, applied int64) {
	a := p.prod.PublishApplied(1, key, 0, start, start, start, applied)
	b := p.twin.PublishApplied(1, key, 0, start, start, start, applied)
	if a != b {
		p.t.Fatalf("trace ids diverged: product %d, oracle %d", a, b)
	}
}

func (p *tracerPair) dropped(key string, start, end int64) {
	p.prod.PublishDropped(0, key, 1, start, start, end)
	p.twin.PublishDropped(0, key, 1, start, start, end)
}

func (p *tracerPair) cycle(evalStart int64) int {
	p.t.Helper()
	got := p.prod.CompleteCycle(evalStart, evalStart+5, evalStart+5, evalStart+7)
	want := oracleCompleteCycle(p.twin, evalStart, evalStart+5, evalStart+5, evalStart+7)
	if got != want {
		p.t.Fatalf("CompleteCycle(%d) completed %d traces, oracle %d", evalStart, got, want)
	}
	p.check()
	return got
}

func (p *tracerPair) check() {
	p.t.Helper()
	if got, want := p.prod.Snapshot(), p.twin.Snapshot(); !reflect.DeepEqual(got, want) {
		p.t.Fatalf("ring diverged from oracle:\n got %+v\nwant %+v", got, want)
	}
	if got, want := p.prod.NewestCompleteID(), oracleNewestCompleteID(p.twin); got != want {
		p.t.Fatalf("NewestCompleteID = %d, oracle %d", got, want)
	}
	c := p.prod.Capacity()
	for _, n := range []int{1, 5, c, 1 << 30} {
		got, want := p.prod.Slowest(n), oracleSlowest(p.twin, n)
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			p.t.Fatalf("Slowest(%d) diverged from oracle:\n got %+v\nwant %+v", n, got, want)
		}
		if cap(got) > c {
			p.t.Fatalf("Slowest(%d) sized its result %d for a ring of %d", n, cap(got), c)
		}
	}
}

// TestTracerOracleRandom runs seeded random interleavings: bursts longer
// than a ring lap between cycles, cycles whose evalStart lies before the
// newest applies (those traces belong to the next cycle), apply stamps that
// run backwards between neighbours (two shards publishing out of stamp
// order), and totals drawn from a handful of values so ties are common.
func TestTracerOracleRandom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 << rng.Intn(6) // 1 … 32
		p := newTracerPair(t, capacity)
		clock := int64(100)
		for op := 0; op < 250; op++ {
			switch r := rng.Intn(10); {
			case r < 6:
				burst := 1
				if rng.Intn(8) == 0 {
					burst = capacity + rng.Intn(2*capacity+1) // more than a lap
				}
				for i := 0; i < burst; i++ {
					clock += int64(rng.Intn(3))
					at := clock - int64(rng.Intn(4)) // may precede its neighbour's stamp
					if rng.Intn(5) == 0 {
						p.dropped("drop", at-int64(rng.Intn(4)), at)
					} else {
						p.applied("app", at-int64(rng.Intn(4)), at)
					}
				}
				p.check()
			default:
				p.cycle(clock - int64(rng.Intn(6)))
			}
		}
		p.cycle(clock) // everything published is covered now
		for i := range p.prod.slots {
			if s := &p.prod.slots[i]; s.state == stateApplied {
				t.Fatalf("seed %d: trace %d still waiting after a covering cycle", seed, s.id)
			}
		}
	}
}

// TestTracerSweepCases pins the sweep's edge cases one at a time.
func TestTracerSweepCases(t *testing.T) {
	t.Run("lapped", func(t *testing.T) {
		p := newTracerPair(t, 4)
		for i := int64(0); i < 11; i++ { // 2¾ laps, no cycle in between
			p.applied("k", i, i+1)
		}
		if done := p.cycle(100); done != 4 {
			t.Fatalf("completed %d traces of a lapped ring of 4, want 4", done)
		}
		if done := p.cycle(200); done != 0 {
			t.Fatalf("second cycle re-completed %d traces", done)
		}
	})
	t.Run("applied-after-evalstart", func(t *testing.T) {
		p := newTracerPair(t, 8)
		p.applied("early", 0, 10)
		p.applied("late", 5, 60) // applied after the first cycle's evalStart
		p.applied("early2", 6, 20)
		if done := p.cycle(50); done != 2 {
			t.Fatalf("first cycle completed %d traces, want the 2 applied by t=50", done)
		}
		if done := p.cycle(70); done != 1 {
			t.Fatalf("next cycle completed %d traces, want the late one", done)
		}
		for _, v := range p.prod.Snapshot() {
			if v.Key == "late" && v.Stages[StageEvalWait] != 10 {
				t.Fatalf("late trace waited %v for its cycle, want 10ns (the second cycle)", v.Stages[StageEvalWait])
			}
		}
	})
	t.Run("ties-and-large-n", func(t *testing.T) {
		p := newTracerPair(t, 8)
		for i := int64(0); i < 6; i++ {
			p.applied("tie", i, i+7) // six equal totals
		}
		p.dropped("slowest", 0, 50)
		p.check()
		got := p.prod.Slowest(1 << 40)
		if len(got) != 7 || got[0].Key != "slowest" {
			t.Fatalf("Slowest(huge) = %d traces, first %q; want 7, slowest first", len(got), got[0].Key)
		}
		for i := 1; i < len(got); i++ {
			if got[i].ID != uint64(i) {
				t.Fatalf("tie order: position %d holds trace %d, want ascending ids", i, got[i].ID)
			}
		}
	})
	t.Run("newest-complete-overwritten", func(t *testing.T) {
		p := newTracerPair(t, 4)
		p.applied("a", 0, 1)
		p.applied("b", 0, 2)
		p.cycle(10) // ids 1, 2 complete; newest = 2
		p.applied("c", 11, 12)
		p.applied("d", 11, 13)
		p.applied("e", 11, 14) // overwrites id 1
		p.applied("f", 11, 15) // overwrites id 2: no complete trace is left
		p.check()
		if got := p.prod.NewestCompleteID(); got != 0 {
			t.Fatalf("NewestCompleteID = %d after every complete trace was overwritten, want 0", got)
		}
	})
}

// TestTracerIDsDense: ids count up from 1 with no gaps, and an id names its
// ring cell.
func TestTracerIDsDense(t *testing.T) {
	tr := NewTracer(4)
	for want := uint64(1); want <= 10; want++ {
		var id uint64
		if want%3 == 0 {
			id = tr.PublishDropped(0, "k", 0, 0, 0, 1)
		} else {
			id = tr.PublishApplied(0, "k", 0, 0, 0, 0, 1)
		}
		if id != want {
			t.Fatalf("publish %d returned id %d", want, id)
		}
		if got := tr.cell(id).id; got != id {
			t.Fatalf("cell of id %d holds id %d", id, got)
		}
	}
}

// TestTracerConcurrentSweep (run under -race in CI): publishers on several
// goroutines race a cycling goroutine over a ring small enough to lap
// constantly. Once the publishers are done, one covering cycle must leave no
// applied trace behind — the sweep may postpone a trace, never lose it.
func TestTracerConcurrentSweep(t *testing.T) {
	tr := NewTracer(16)
	var pubs, cycler sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		pubs.Add(1)
		go func(g int) {
			defer pubs.Done()
			for i := 0; i < 2000; i++ {
				s := tr.Now()
				if i%5 == 0 {
					tr.PublishDropped(uint8(g), "key", g, s, s, tr.Now())
				} else {
					tr.PublishApplied(uint8(g), "key", g, s, s, s, tr.Now())
				}
			}
		}(g)
	}
	cycler.Add(1)
	go func() {
		defer cycler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := tr.Now()
			tr.CompleteCycle(n, n+1, n+1, n+2)
			tr.NewestCompleteID()
			tr.Slowest(3)
		}
	}()
	pubs.Wait()
	close(stop)
	cycler.Wait()

	evalStart := tr.Now()
	tr.CompleteCycle(evalStart, evalStart+1, evalStart+1, evalStart+2)
	seen := make(map[uint64]bool)
	for i := range tr.slots {
		s := &tr.slots[i]
		if s.state == stateApplied && s.stamps[3] <= evalStart {
			t.Errorf("trace %d left applied (stamp %d ≤ evalStart %d) after a covering cycle", s.id, s.stamps[3], evalStart)
		}
		if s.state == stateFree || seen[s.id] || tr.cell(s.id) != s {
			t.Errorf("slot %d: state %d id %d — free, duplicate or in the wrong cell", i, s.state, s.id)
		}
		seen[s.id] = true
	}
	if got, want := tr.NewestCompleteID(), oracleNewestCompleteID(tr); got != want {
		t.Errorf("NewestCompleteID = %d, oracle %d", got, want)
	}
	if got, want := tr.Slowest(5), oracleSlowest(tr, 5); !reflect.DeepEqual(got, want) {
		t.Errorf("Slowest(5) diverged from oracle after quiescence:\n got %+v\nwant %+v", got, want)
	}
}

// TestTracerSlowestMatchesSort builds random ring states — totals drawn
// from a few values so ties are common, applied, done and dropped traces,
// rings lapped several times — and holds Slowest(n) to the snapshot sorted
// by (Total desc, ID asc) and truncated, for n at 0, 1, 5, the capacity and
// past it. /tracez and pfmd's -trace-dump render this ranking. slowestInto,
// the recorder's form, ranks the same and allocates nothing into a buffer
// of capacity n.
func TestTracerSlowestMatchesSort(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTracer(1 << rng.Intn(6)) // 1 … 32
		c := tr.Capacity()
		for i, n := 0, rng.Intn(4*c+1); i < n; i++ {
			start := int64(rng.Intn(4))
			end := start + int64(rng.Intn(3))
			switch rng.Intn(3) {
			case 0:
				tr.PublishDropped(0, "drop", 1, start, start, end)
			default:
				tr.PublishApplied(1, "app", 0, start, start, start, end)
			}
			if rng.Intn(4) == 0 {
				at := int64(rng.Intn(6))
				tr.CompleteCycle(at, at+int64(rng.Intn(2)), at+1, at+1+int64(rng.Intn(3)))
			}
		}
		want := tr.Snapshot()
		sort.Slice(want, func(i, j int) bool {
			return want[i].Total > want[j].Total || want[i].Total == want[j].Total && want[i].ID < want[j].ID
		})
		for _, n := range []int{0, 1, 5, c, c + 1} {
			got := tr.Slowest(n)
			w := want[:min(n, len(want))]
			if n == 0 {
				w = nil
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("seed %d, ring %d: Slowest(%d) =\n %+v\nwant\n %+v", seed, c, n, got, w)
			}
			buf := make([]record, 0, n)
			if allocs := testing.AllocsPerRun(10, func() { buf = tr.slowestInto(buf, n) }); allocs != 0 {
				t.Fatalf("seed %d: slowestInto(%d) allocates %.0f objects into a buffer of capacity n", seed, n, allocs)
			}
			for i := range buf {
				if v := buf[i].view(); v != w[i] {
					t.Fatalf("seed %d: slowestInto(%d)[%d] = %+v, want %+v", seed, n, i, v, w[i])
				}
			}
		}
	}
}

// BenchmarkTracerSlowest ranks a full default ring of complete traces,
// their totals a permutation of the ring positions, and renders the five
// slowest: what a bundle's capture and a /tracez?n=5 read rank.
func BenchmarkTracerSlowest(b *testing.B) {
	tr := NewTracer(DefaultTraceCapacity)
	for i := 0; i < DefaultTraceCapacity; i++ {
		start := int64(i * 97 % DefaultTraceCapacity)
		tr.PublishApplied(1, "mem_free", 0, start, start, start, start)
	}
	tr.CompleteCycle(1<<20, 1<<20, 1<<20, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slowestSink = tr.Slowest(5)
	}
}

// slowestSink keeps BenchmarkTracerSlowest's result live.
var slowestSink []TraceView

// BenchmarkTracerPublish prices one sampled event's publish into the
// default ring, the offline twin of pfmbench's
// obs.tracer.publish_ns_per_event: serial, and from every P at once with a
// cycle's sweep after every 256 publishes of a goroutine, as shard
// consumers publish beside the cycle that completes their traces.
func BenchmarkTracerPublish(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		tr := NewTracer(DefaultTraceCapacity)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stamp := tr.Now()
			tr.PublishApplied(1, "load", 0, stamp, stamp, stamp, stamp)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		tr := NewTracer(DefaultTraceCapacity)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for i := 1; pb.Next(); i++ {
				stamp := tr.Now()
				tr.PublishApplied(1, "load", 0, stamp, stamp, stamp, stamp)
				if i%256 == 0 {
					tr.CompleteCycle(stamp, stamp, stamp, stamp)
				}
			}
		})
	})
}
