package obs

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/diagnose"
	"repro/internal/eventlog"
)

// eagerBundle is the recorder's assembly from before a capture was a copy:
// the whole bundle built at Collect from the live sources, every field in
// storage of its own, with recorderMaxEvents keeping the newest
// recorderMaxEvents events of the window (ties at the cut included) and the
// score rows tagged like the trigger's row. It stays as the oracle the bundles built on read must equal. seq is the
// sequence number the capture takes.
func eagerBundle(r *Recorder, p *pendingTrigger, seq uint64) *IncidentBundle {
	b := &IncidentBundle{
		ID:         fmt.Sprintf("%016x", bundleID(r.cfg.Scope, p.kind, p.t, seq)),
		Seq:        seq,
		Scope:      r.cfg.Scope,
		Trigger:    p.kind,
		Time:       p.t,
		Detail:     p.detail,
		Confidence: p.confidence,
		Action:     p.action,
		TraceID:    p.traceID,
		Layers:     r.cfg.Layers,
		EventsFrom: p.t - r.cfg.Window,
		EventsTo:   p.t,
	}
	if len(p.versions) > 0 {
		b.LayerVersions = append([]uint64(nil), p.versions...)
	}
	if l := r.cfg.Log; l != nil {
		lo, hi := l.ScanWindow(b.EventsFrom, b.EventsTo+1e-9)
		b.EventsTotal = hi - lo
		if b.EventsTotal > recorderMaxEvents {
			lo = hi - recorderMaxEvents
		}
		b.Events = make([]eventlog.Event, hi-lo)
		for i := range b.Events {
			b.Events[i] = l.At(lo + i)
		}
	}
	if r.cfg.Diagnose != nil {
		b.Suspects = r.cfg.Diagnose(b.EventsFrom, b.EventsTo)
	}
	for i := 0; i < r.count; i++ {
		idx := r.rowIndex(i)
		if r.times[idx] > p.t || r.tags[idx] != p.tag {
			continue
		}
		row := idx * r.nLayers
		b.Scores = append(b.Scores, BundleScore{
			Time:     r.times[idx],
			Scores:   append([]float64(nil), r.scores[row:row+r.nLayers]...),
			Versions: append([]uint64(nil), r.vers[row:row+r.nLayers]...),
		})
	}
	if r.cfg.Tracer != nil {
		b.Spans = oracleSlowest(r.cfg.Tracer, recorderSlowSpans)
	}
	if r.cfg.Ledger != nil {
		snap := r.cfg.Ledger.Snapshot()
		b.Quality = &snap
	}
	if r.cfg.Lifecycle != nil {
		b.Lifecycle = r.cfg.Lifecycle()
	}
	return b
}

// sameBundle compares a built bundle with the oracle's on every field but
// the wall-clock CaptureSeconds and Runtime (which must be present exactly
// when RuntimeStats is on).
func sameBundle(t *testing.T, r *Recorder, got, want *IncidentBundle) {
	t.Helper()
	if (got.Runtime != nil) != r.cfg.RuntimeStats {
		t.Fatalf("bundle %s: runtime snapshot %v with RuntimeStats %v", got.ID, got.Runtime, r.cfg.RuntimeStats)
	}
	g, w := *got, *want
	g.CaptureSeconds, g.Runtime = 0, nil
	w.CaptureSeconds, w.Runtime = 0, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("bundle built on read differs from the eager assembly:\n got %+v\nwant %+v", g, w)
	}
}

// TestRecorderBundlesMatchEagerAssembly drives seeded scripts — warn, act,
// burn-rate and external triggers, evictions (some before delivery),
// unread captures, events tied at the recorderMaxEvents cut, a wrapped
// score ring and a final Flush —
// and holds every bundle read through Bundles, Bundle and subscriber
// delivery to the eager assembly taken when its trigger was captured. A
// bundle keeps its identity across reads until its capture is evicted.
func TestRecorderBundlesMatchEagerAssembly(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		log := eventlog.NewLog()
		tracer := NewTracer(8)
		led, err := NewLedger(LedgerConfig{LeadTime: 3, Window: 30}, "a", "b", "c")
		if err != nil {
			t.Fatal(err)
		}
		r := testRecorder(t, RecorderConfig{
			Scope: fmt.Sprintf("s%d", seed), Layers: []string{"a", "b", "c"},
			Window:        0.5 + float64(rng.Intn(6)),
			WarnThreshold: 0.5, BurnRateFloor: 0.5, MaxBundles: 1 + rng.Intn(4),
			Log: log, Tracer: tracer, Ledger: led, RuntimeStats: seed%2 == 0,
			Diagnose: func(from, to float64) []diagnose.Suspect {
				lo, hi := log.ScanWindow(from, to+1e-9)
				if lo == hi {
					return nil
				}
				return []diagnose.Suspect{{Component: log.At(hi - 1).Component, Score: to - from, Events: hi - lo}}
			},
			Lifecycle: func() any { return map[string]int{"events": log.Len()} },
		})
		oracle := map[string]*IncidentBundle{}
		seen := map[string]*IncidentBundle{} // the pointer each ID was first handed out as
		delivered := 0
		read := func(b *IncidentBundle) {
			t.Helper()
			want := oracle[b.ID]
			if want == nil {
				t.Fatalf("seed %d: bundle %s was never captured", seed, b.ID)
			}
			sameBundle(t, r, b, want)
			if prev := seen[b.ID]; prev != nil && prev != b {
				t.Fatalf("seed %d: bundle %s rebuilt while retained", seed, b.ID)
			}
			seen[b.ID] = b
		}
		r.Subscribe(func(b *IncidentBundle) {
			delivered++
			read(b)
		})
		collect := func(flush bool) {
			for i := range r.pending {
				want := eagerBundle(r, &r.pending[i], r.seq+uint64(i)+1)
				oracle[want.ID] = want
			}
			if flush {
				r.Flush()
			} else {
				r.Collect()
			}
		}
		now := 0.0
		versions := []uint64{1, 1, 1}
		for step := 0; step < 300; step++ {
			now += float64(1 + rng.Intn(2))
			n := rng.Intn(5)
			if rng.Intn(10) == 0 { // a burst past the cap on its own
				n = recorderMaxEvents + rng.Intn(100)
			}
			for i := 0; i < n; i++ { // ties: one time for the whole burst
				if err := log.Append(eventlog.Event{Time: now, Component: fmt.Sprintf("c%d", rng.Intn(3)), Type: step*1024 + i, Severity: eventlog.SeverityError}); err != nil {
					t.Fatal(err)
				}
			}
			for i, n := 0, rng.Intn(4); i < n; i++ {
				at := tracer.Now()
				tracer.PublishApplied(1, "k", 0, at-int64(rng.Intn(50)), at, at, at)
			}
			tracer.CompleteCycle(tracer.Now(), tracer.Now(), tracer.Now(), tracer.Now())
			warned := rng.Intn(3) == 0
			led.RecordPrediction(CombinedLayer, now, warned, 0.9)
			if rng.Intn(6) == 0 {
				led.RecordFailure(now)
			}
			led.Advance(now)
			if rng.Intn(4) == 0 {
				versions[rng.Intn(3)]++
			}
			o := CycleObservation{Warned: warned, Confidence: rng.Float64(), Executed: rng.Intn(5) == 0,
				Action: "restart", Detail: fmt.Sprintf("d%d", step%3)}
			if rng.Intn(4) > 0 {
				o.LayerVersions = versions[:rng.Intn(4)]
			}
			r.Observe(now, []float64{rng.Float64(), rng.Float64(), rng.Float64()}, o)
			if rng.Intn(5) == 0 {
				r.TriggerEvent([]TriggerKind{TriggerDrift, TriggerRollback}[rng.Intn(2)], now, "b")
			}
			if rng.Intn(3) > 0 {
				collect(false)
			}
			if rng.Intn(2) == 0 {
				for _, b := range r.Bundles() {
					read(b)
				}
			}
			if bs := r.Bundles(); len(bs) > 0 && rng.Intn(3) == 0 {
				b := bs[rng.Intn(len(bs))]
				if got := r.Bundle(b.ID); got != b {
					t.Fatalf("seed %d: Bundle(%s) = %p, Bundles has %p", seed, b.ID, got, b)
				}
			}
		}
		r.TriggerEvent(TriggerDrift, now+1, "c")
		collect(true)
		for _, b := range r.Bundles() {
			read(b)
		}
		if delivered != len(oracle) {
			t.Fatalf("seed %d: delivered %d bundles, captured %d", seed, delivered, len(oracle))
		}
		capped := 0
		for _, b := range oracle {
			if b.EventsTotal > recorderMaxEvents {
				capped++
			}
		}
		if capped == 0 {
			t.Fatalf("seed %d: no bundle's window passed the %d-event cap", seed, recorderMaxEvents)
		}
		var kinds int64
		for _, k := range TriggerKinds {
			if r.Captured(k) > 0 {
				kinds++
			}
		}
		if kinds < 4 || r.Captured(TriggerBurnRate) == 0 {
			t.Fatalf("seed %d: script fired %d trigger kinds (burnrate %d), want warn, act, burnrate and external",
				seed, kinds, r.Captured(TriggerBurnRate))
		}
	}
}

// TestRecorderMaxEventsTies: recorderMaxEvents caps the event slice even
// when the events before the cut share its timestamp.
func TestRecorderMaxEventsTies(t *testing.T) {
	const n = recorderMaxEvents + 3
	l := eventlog.NewLog()
	for i := 0; i < n; i++ {
		if err := l.Append(eventlog.Event{Time: 5, Component: "c", Type: i, Severity: eventlog.SeverityError}); err != nil {
			t.Fatal(err)
		}
	}
	r := testRecorder(t, RecorderConfig{Window: 10, Log: l})
	r.TriggerEvent(TriggerDrift, 5, "x")
	r.Collect()
	b := r.Bundles()[0]
	if b.EventsTotal != n {
		t.Fatalf("events total = %d, want %d", b.EventsTotal, n)
	}
	if len(b.Events) != recorderMaxEvents || b.Events[0].Type != 3 || b.Events[recorderMaxEvents-1].Type != n-1 {
		t.Fatalf("capped events = %d (types %d..%d), want the %d newest (types 3..%d)",
			len(b.Events), b.Events[0].Type, b.Events[len(b.Events)-1].Type, recorderMaxEvents, n-1)
	}
}

// TestRecorderBundleIDs: Bundle finds a retained bundle by its rendered ID
// and nothing by a string that only parses like one.
func TestRecorderBundleIDs(t *testing.T) {
	r := testRecorder(t, RecorderConfig{Window: 1})
	r.TriggerEvent(TriggerDrift, 1, "x")
	r.Collect()
	b := r.Bundles()[0]
	if r.Bundle(b.ID) != b {
		t.Fatalf("Bundle(%q) did not return the retained bundle", b.ID)
	}
	upper := []byte(b.ID)
	for i, c := range upper {
		if 'a' <= c && c <= 'f' {
			upper[i] = c - 'a' + 'A'
		}
	}
	for _, id := range []string{"", "0x" + b.ID[2:], b.ID[1:], b.ID + "0", string(upper)} {
		if id != b.ID && r.Bundle(id) != nil {
			t.Fatalf("Bundle(%q) found a bundle; only %q names it", id, b.ID)
		}
	}
}

// captureRig is a recorder with every cheap source armed — event log,
// tracer, ledger and the runtime snapshot — and no Diagnose or Lifecycle
// hook (those allocate what they return). cycle appends a burst to the
// log, publishes and completes a few spans, journals a warning and runs one
// Observe whose warning fires a capture, then Collect.
type captureRig struct {
	r      *Recorder
	log    *eventlog.Log
	tracer *Tracer
	led    *Ledger
	now    float64
	scores []float64
	vers   []uint64
}

func newCaptureRig(tb testing.TB, maxBundles int) *captureRig {
	tb.Helper()
	names := []string{"a", "b", "c", "d"}
	led, err := NewLedger(LedgerConfig{LeadTime: 300, Slack: 300}, names...)
	if err != nil {
		tb.Fatal(err)
	}
	c := &captureRig{log: eventlog.NewLog(), tracer: NewTracer(DefaultTraceCapacity), led: led,
		scores: []float64{0.9, 0.8, 0.7, 0.6}, vers: []uint64{1, 2, 3, 4}}
	c.log.Grow(1 << 16)
	c.r, err = NewRecorder(RecorderConfig{Layers: names, Window: 20, MaxBundles: maxBundles,
		Log: c.log, Tracer: c.tracer, Ledger: led, RuntimeStats: true})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func (c *captureRig) cycle(tb testing.TB) {
	c.now += 60
	for i := 0; i < 8; i++ {
		if err := c.log.Append(eventlog.Event{Time: c.now, Component: "disk", Type: i, Severity: eventlog.SeverityError, Message: "io"}); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		at := c.tracer.Now()
		c.tracer.PublishApplied(1, "disk", 0, at, at, at, at)
	}
	at := c.tracer.Now()
	c.tracer.CompleteCycle(at, at, at, at)
	c.led.RecordPrediction(CombinedLayer, c.now, true, 0.9)
	c.led.Advance(c.now)
	c.r.Observe(c.now, c.scores, CycleObservation{Warned: true, Confidence: 0.9, LayerVersions: c.vers})
	c.r.Collect()
}

// TestRecorderCaptureZeroAllocs pins the capture cost: once every slot of
// the capture ring has been used and reused, a cycle whose warning fires a
// capture — event window, score history, trigger versions, slowest spans,
// ledger snapshot and runtime snapshot copied in — allocates nothing.
func TestRecorderCaptureZeroAllocs(t *testing.T) {
	c := newCaptureRig(t, 8)
	for i := 0; i < 3*c.r.Config().MaxBundles; i++ {
		c.cycle(t)
	}
	before := c.r.Captured(TriggerWarn)
	if allocs := testing.AllocsPerRun(200, func() { c.cycle(t) }); allocs != 0 {
		t.Fatalf("a warmed capture allocates %.1f objects/op, want 0", allocs)
	}
	if got := c.r.Captured(TriggerWarn) - before; got != 201 {
		t.Fatalf("captures during the measurement = %d, want one a cycle (201)", got)
	}
	// The window [now−20, now] holds this cycle's burst; the refractory
	// period, 2 × 20 s, closes before the next cycle.
	b := c.r.Bundles()[c.r.Config().MaxBundles-1]
	if len(b.Events) != 8 || len(b.Spans) != recorderSlowSpans || b.Quality == nil || b.Runtime == nil {
		t.Fatalf("newest bundle: %d events, %d spans, quality %v, runtime %v", len(b.Events), len(b.Spans), b.Quality, b.Runtime)
	}
}

// TestRecorderConcurrentReaders races Bundles, Bundle and json.Marshal of
// their results against Observe+Collect, with enough captures to evict
// every slot of the ring many times: a bundle once handed out never
// changes, so its marshalled bytes at the end equal those of its first
// read.
func TestRecorderConcurrentReaders(t *testing.T) {
	c := newCaptureRig(t, 4)
	var (
		mu    sync.Mutex
		first = map[*IncidentBundle][]byte{}
		done  = make(chan struct{})
		wg    sync.WaitGroup
	)
	note := func(b *IncidentBundle) {
		data, err := json.Marshal(b)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		if prev, ok := first[b]; !ok {
			first[b] = data
		} else if string(prev) != string(data) {
			t.Errorf("bundle %s changed after it was handed out", b.ID)
		}
		mu.Unlock()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, b := range c.r.Bundles() {
					note(b)
					if got := c.r.Bundle(b.ID); got != nil {
						note(got)
					}
				}
			}
		}()
	}
	cycles := 50 * c.r.Config().MaxBundles
	for i := 0; i < cycles; i++ {
		c.cycle(t)
	}
	close(done)
	wg.Wait()
	if got := c.r.Captured(TriggerWarn); got != int64(cycles) {
		t.Fatalf("captured %d, want %d", got, cycles)
	}
	for b, data := range first {
		if again, _ := json.Marshal(b); string(again) != string(data) {
			t.Fatalf("bundle %s changed after it was handed out", b.ID)
		}
	}
}

// BenchmarkRecorderCapture is one cycle whose warning fires a capture
// (Observe, then Collect) with the event log, tracer, ledger and runtime
// snapshot armed: the capture cost, without reading the bundle. The log
// is grown for the whole run up front, so its growth is not counted.
func BenchmarkRecorderCapture(b *testing.B) {
	c := newCaptureRig(b, 8)
	c.log.Grow(8 * (b.N + 3*8))
	for i := 0; i < 3*c.r.Config().MaxBundles; i++ {
		c.cycle(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.cycle(b)
	}
}
