package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Pipeline stages of one end-to-end trace, in flow order.
const (
	// StageIngest is the Ingest() call up to the queue offer. Every
	// publisher passes one stamp, taken at Ingest entry, as both, so it reads
	// 0 on both planes: admission (routing, the queue lock, a Block park)
	// counts as queue residency.
	StageIngest = iota
	// StageQueue is queue residency: from the offer — including the wait
	// for the queue lock and any backpressure wait under the Block policy —
	// to the consumer's pickup.
	StageQueue
	// StageApply is the consumer's Apply callback (mirror-state update).
	StageApply
	// StageEvalWait is the time the applied event waits for the next MEA
	// cycle to start.
	StageEvalWait
	// StageEvaluate is the covering cycle's layer scoring.
	StageEvaluate
	// StageAct is the covering cycle's serialized act decision.
	StageAct
	// NumStages is the stage count.
	NumStages
)

// StageNames label the stages for rendering, indexed by the constants
// above.
var StageNames = [NumStages]string{"ingest", "queue", "apply", "evalwait", "evaluate", "act"}

// Trace lifecycle states.
const (
	stateFree    = iota // slot never used (or wrapped and reclaimed)
	stateApplied        // event applied, waiting for a covering MEA cycle
	stateDone           // covering cycle recorded: trace is end-to-end
	stateDropped        // event shed by the overflow policy or shutdown
)

// keyBytes bounds the routing-key prefix retained per trace (no heap
// allocation for the common short monitoring-variable names).
const keyBytes = 20

// record is one trace as its ring cell holds it: plain values, so a copy
// taken under the ring lock outlives the cell's next claim and renders
// later (the flight recorder keeps its slowest spans this way).
type record struct {
	id     uint64
	state  uint8
	kind   uint8
	shard  int16
	keyLen uint8
	key    [keyBytes]byte
	// stamps: 0 ingest start, 1 queue offer, 2 dequeue, 3 apply end,
	// 4 eval start, 5 eval end, 6 act start, 7 act end (or drop time).
	stamps [8]int64
}

// Tracer records end-to-end pipeline traces into a fixed ring with
// monotonic-clock spans. The zero-allocation contract of the publish path
// is pinned by TestSpanHotPathZeroAllocs. All methods are safe on a nil
// receiver (tracing disabled) and for concurrent use.
type Tracer struct {
	base  time.Time
	mask  uint64
	every uint32 // sample 1 in every admissions (1 = every event)

	// Every stamp reads base (Now), on the producers and the shard
	// consumers alike; the pad keeps the lock's writes off that line.
	_ [64]byte
	// mu guards the ring: a publish takes it once, and so do a cycle's
	// sweep and each reader. Publishers share one claim counter in any
	// case, so finer locks would buy no concurrency.
	mu sync.Mutex
	// claims counts the traces claimed so far. The k-th claim is trace id k
	// in ring cell (k-1)&mask, so an id names its cell, and the ring holds
	// exactly the ids of the newest lap, (claims-len(slots), claims].
	claims uint64
	slots  []record // fixed at construction
	// swept is the sweep invariant: every trace id ≤ swept is final —
	// completed, dropped or lapped — so a cycle visits only ids in
	// (swept, claims], the traces published since the last cycle that
	// resolved them.
	swept uint64
	// newestDone is the highest id CompleteCycle has completed so far.
	newestDone uint64
}

// DefaultTraceCapacity is the ring size used when NewTracer is given a
// non-positive capacity.
const DefaultTraceCapacity = 256

// DefaultSampleInterval is the admission rate of a fresh tracer: 1 in 16
// events carries span stamps. Even a single monotonic clock read per event
// (~tens of ns) would exceed the tracer's overhead budget on a saturated
// ingest path, so the full stamp sequence is paid only by sampled events;
// the ring of recent traces stays representative. SetSampleInterval(1)
// traces every event.
const DefaultSampleInterval = 16

// NewTracer returns a tracer retaining the most recent traces in a ring of
// at least the given capacity (rounded up to a power of two).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Tracer{base: time.Now(), mask: uint64(n - 1), every: DefaultSampleInterval, slots: make([]record, n)}
}

// SetSampleInterval sets the sampling interval: pipelines trace one in every
// n admissions (n ≤ 1 traces every one). Set before the pipeline is built;
// see Interval.
func (t *Tracer) SetSampleInterval(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.every = uint32(n)
}

// Interval returns the sampling interval (1 = every admission, 0 for a nil
// tracer). The tracer does not count admissions itself — a counter every
// producer shares is an atomic an event on a line the publishing consumers
// write too. Both pipelines gate sampling on the count of their ingest gate
// (runtime.Gate), on a line only producers write, stamping their first
// admission and then one in every Interval. The gate reads it once, at
// construction.
func (t *Tracer) Interval() int {
	if t == nil {
		return 0
	}
	return int(t.every)
}

// Now returns the tracer's monotonic clock: nanoseconds since the tracer
// was created. It never allocates.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// Capacity returns the ring size (0 for a nil tracer).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// cell returns the ring cell trace id lives (or lived) in.
func (t *Tracer) cell(id uint64) *record { return &t.slots[(id-1)&t.mask] }

// oldest returns the oldest id the ring still holds (claims+1 when it
// holds none). The caller holds mu.
func (t *Tracer) oldest() uint64 {
	if lap := uint64(len(t.slots)); t.claims > lap {
		return t.claims - lap + 1
	}
	return 1
}

// claim takes the next trace id and stamps the shared trace fields into
// its ring cell, clearing the stage stamps. The caller holds mu and fills
// the state and stamps before unlocking, so no reader sees a trace half
// written.
func (t *Tracer) claim(kind uint8, key string, shard int) *record {
	t.claims++
	r := t.cell(t.claims)
	r.id = t.claims
	r.kind = kind
	r.shard = int16(shard)
	r.keyLen = uint8(copy(r.key[:], key))
	r.stamps = [8]int64{}
	return r
}

// PublishApplied records one event that made it through ingest → queue →
// apply. The caller carries the raw stamps (taken with Now) through the
// pipeline and publishes the whole record with a single lock acquisition —
// the span hot path. Returns the trace id.
func (t *Tracer) PublishApplied(kind uint8, key string, shard int, start, offered, dequeued, applied int64) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	r := t.claim(kind, key, shard)
	r.state = stateApplied
	r.stamps[0], r.stamps[1], r.stamps[2], r.stamps[3] = start, offered, dequeued, applied
	id := r.id
	t.mu.Unlock()
	return id
}

// PublishDropped records one event shed before apply (overflow policy,
// canceled blocking push, or shutdown). end is the drop time.
func (t *Tracer) PublishDropped(kind uint8, key string, shard int, start, offered, end int64) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	r := t.claim(kind, key, shard)
	r.state = stateDropped
	r.stamps[0], r.stamps[1] = start, offered
	r.stamps[7] = end
	id := r.id
	t.mu.Unlock()
	return id
}

// CompleteCycle attaches one finished MEA cycle (evaluate + act spans) to
// every applied trace the cycle covered — those whose apply finished
// before the cycle's evaluation started — turning them into complete
// end-to-end traces. Returns how many traces it completed.
//
// It visits only the ids claimed since the last cycle that resolved them,
// (swept, claims], clamped to the newest ring lap (older ids have been
// overwritten). A trace applied after evalStart stays unresolved — and
// holds swept back, so the next cycle looks at it again; everything else
// (completed here, dropped, lapped) is final. The cost is O(traces since
// the last cycle), not O(ring).
func (t *Tracer) CompleteCycle(evalStart, evalEnd, actStart, actEnd int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.swept = max(t.swept, t.oldest()-1)
	done := 0
	resolved := true // every id in (swept, id) is final
	for id := t.swept + 1; id <= t.claims; id++ {
		if r := t.cell(id); r.state == stateApplied {
			if r.stamps[3] > evalStart {
				resolved = false // the next cycle covers it
				continue
			}
			r.stamps[4], r.stamps[5], r.stamps[6], r.stamps[7] = evalStart, evalEnd, actStart, actEnd
			r.state = stateDone
			done++
			t.newestDone = max(t.newestDone, id)
		}
		if resolved {
			t.swept = id
		}
	}
	return done
}

// TraceView is one trace copied out of the ring for rendering.
type TraceView struct {
	ID    uint64
	Kind  uint8  // caller-defined event kind (runtime maps it to a name)
	Key   string // routing-key prefix (monitoring variable / component)
	Shard int
	Start int64 // ns on the tracer clock (Now scale)
	// Dropped marks events shed before apply; Complete marks traces with a
	// covering MEA cycle recorded. A trace that is neither is applied and
	// still waiting for its cycle.
	Dropped  bool
	Complete bool
	Total    time.Duration // end-to-end (or time until drop / so far)
	Stages   [NumStages]time.Duration
}

// Snapshot copies every retained trace out of the ring, newest last.
func (t *Tracer) Snapshot() []TraceView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceView, 0, len(t.slots))
	for id := t.oldest(); id <= t.claims; id++ {
		out = append(out, t.cell(id).view())
	}
	return out
}

// view renders the record (the caller holds the ring lock, or owns a copy).
func (s *record) view() TraceView {
	v := TraceView{
		ID:    s.id,
		Kind:  s.kind,
		Key:   string(s.key[:s.keyLen]),
		Shard: int(s.shard),
		Start: s.stamps[0],
		Total: s.total(),
	}
	st := &s.stamps
	v.Stages[StageIngest] = time.Duration(st[1] - st[0])
	switch s.state {
	case stateDropped:
		v.Dropped = true
		v.Stages[StageQueue] = time.Duration(st[7] - st[1])
	case stateApplied:
		v.Stages[StageQueue] = time.Duration(st[2] - st[1])
		v.Stages[StageApply] = time.Duration(st[3] - st[2])
	case stateDone:
		v.Complete = true
		v.Stages[StageQueue] = time.Duration(st[2] - st[1])
		v.Stages[StageApply] = time.Duration(st[3] - st[2])
		v.Stages[StageEvalWait] = time.Duration(st[4] - st[3])
		v.Stages[StageEvaluate] = time.Duration(st[5] - st[4])
		v.Stages[StageAct] = time.Duration(st[7] - st[6])
	}
	return v
}

// total is the record's end-to-end time (Slowest's ranking key,
// TraceView's Total).
func (s *record) total() time.Duration {
	if s.state == stateApplied {
		return time.Duration(s.stamps[3] - s.stamps[0])
	}
	return time.Duration(s.stamps[7] - s.stamps[0])
}

// NewestCompleteID returns the highest trace ID among retained complete
// (end-to-end) traces, 0 when none — the span the most recent finished
// MEA cycle covered. Nil-safe and allocation-free; the flight recorder
// stamps it onto incident bundles at trigger time. It starts at the newest
// id CompleteCycle completed, which is the answer while that trace is still
// in the ring, and walks down to older ids only when it has been
// overwritten.
func (t *Tracer) NewestCompleteID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, oldest := t.newestDone, t.oldest(); id >= oldest; id-- {
		if t.cell(id).state == stateDone {
			return id
		}
	}
	return 0
}

// Slowest returns the n slowest retained traces (complete and dropped
// traces by their final total, in-flight ones by time accrued so far),
// slowest first, equal totals by ascending ID. n is clamped to Capacity.
// Only the n winners are rendered (and their key strings allocated).
func (t *Tracer) Slowest(n int) []TraceView {
	if t == nil || n <= 0 {
		return nil
	}
	top := t.slowestInto(make([]record, 0, min(n, len(t.slots))), n)
	out := make([]TraceView, len(top))
	for i := range top {
		out[i] = top[i].view()
	}
	return out
}

// slowestInto keeps the n slowest retained traces in top[:0] as raw
// records, ranked as Slowest ranks them. One pass over the ring, under one
// lock, ranks by a cell's total and ID and copies the record only when it
// enters the top n; with top's capacity at n it allocates nothing.
func (t *Tracer) slowestInto(top []record, n int) []record {
	top = top[:0]
	if t == nil || n <= 0 {
		return top
	}
	n = min(n, len(t.slots))
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.slots {
		r := &t.slots[i]
		if r.state == stateFree {
			continue
		}
		total, id := r.total(), r.id
		// at is where the trace ranks among the kept ones: past every one
		// slower, or as slow with a smaller ID.
		at := len(top)
		for at > 0 {
			if k := top[at-1].total(); k > total || k == total && top[at-1].id < id {
				break
			}
			at--
		}
		if at < n {
			if len(top) < n {
				top = append(top, record{})
			}
			copy(top[at+1:], top[at:])
			top[at] = *r
		}
	}
	return top
}

// WriteText renders traces as an aligned text table, one per line with
// per-stage timings. kindName maps the caller-defined kind byte to a
// label; nil prints the numeric kind.
func WriteText(w io.Writer, traces []TraceView, kindName func(uint8) string) error {
	if _, err := fmt.Fprintf(w, "%-8s %-8s %-12s %5s %-8s %10s  %s\n",
		"TRACE", "KIND", "KEY", "SHARD", "STATE", "TOTAL", "STAGES"); err != nil {
		return err
	}
	for _, tr := range traces {
		kind := fmt.Sprintf("%d", tr.Kind)
		if kindName != nil {
			kind = kindName(tr.Kind)
		}
		state := "applied"
		switch {
		case tr.Dropped:
			state = "dropped"
		case tr.Complete:
			state = "done"
		}
		if _, err := fmt.Fprintf(w, "%-8d %-8s %-12s %5d %-8s %10s ",
			tr.ID, kind, tr.Key, tr.Shard, state, tr.Total.Round(time.Microsecond)); err != nil {
			return err
		}
		for i, d := range tr.Stages {
			if d == 0 && i > StageApply && !tr.Complete {
				continue
			}
			if _, err := fmt.Fprintf(w, " %s=%s", StageNames[i], d.Round(time.Microsecond)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
