package runtime

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/lifecycle"
	"repro/internal/obs"
)

// failAt reports whether a ground-truth failure occurs at tick t, matching
// the lifecycle package's harness convention.
func failAt(t, every int) bool { return every > 0 && t%every == every-1 }

// tickClock is a deterministic domain clock: EvaluateNow's cycle is its
// only caller, so cycle i observes now == i.
func tickClock() func() float64 {
	var n atomic.Int64
	return func() float64 { return float64(n.Add(1)) }
}

// waitCounter polls a pipeline counter until it reaches want.
func waitCounter(t *testing.T, what string, read func() int64, want int64, deadline time.Time) {
	t.Helper()
	for read() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s to reach %d (at %d)", what, want, read())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// recordFailures pre-records the failure schedule: the ledger keeps future
// failures until the watermark passes them.
func recordFailures(led *obs.Ledger, upTo, every int) {
	for f := 0; f <= upTo; f++ {
		if failAt(f, every) {
			led.RecordFailure(float64(f))
		}
	}
}

// swapEvents subscribes to lifecycle events and retains them in order.
type swapEvents struct {
	mu     sync.Mutex
	events []lifecycle.Event
}

func (s *swapEvents) record(e lifecycle.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *swapEvents) first(t lifecycle.EventType) (lifecycle.Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.events {
		if e.Type == t {
			return e, true
		}
	}
	return lifecycle.Event{}, false
}

// retrainFake is a retrainable scripted predictor whose Evaluate reads the
// Apply-side state without synchronization — under -race this pins the
// runtime's contract that evaluation (and lifecycle Collect) never overlap
// an ingest Apply.
type retrainFake struct {
	score     func(now float64) float64
	next      core.LayerPredictor
	delay     time.Duration
	loadCheck func()
}

func (p *retrainFake) Evaluate(now float64) (float64, error) {
	if p.loadCheck != nil {
		p.loadCheck()
	}
	return p.score(now), nil
}

func (p *retrainFake) CaptureWindow(now float64) (any, error) { return now, nil }

func (p *retrainFake) Retrain(any) (core.LayerPredictor, error) {
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	return p.next, nil
}

// TestRuntimeHotSwapUnderLoad drives a full pipeline — concurrent ingest
// producers, background (asynchronous) retraining, EvaluateNow-paced cycles
// — through a drift → shadow → swap → confirm episode. Run with -race: the
// swap is a pointer CAS racing live scoring, and the fake predictor reads
// Apply-side state to certify the evaluation exclusion.
func TestRuntimeHotSwapUnderLoad(t *testing.T) {
	const failEvery = 10
	var applied int // Apply-side state, guarded only by the runtime's stateMu
	incumbent := &retrainFake{
		score: func(now float64) float64 {
			if now >= 20 {
				return 0.3
			}
			return 0.1
		},
		delay: time.Millisecond,
		loadCheck: func() {
			if applied < 0 {
				panic("impossible")
			}
		},
	}
	incumbent.next = core.PredictorFunc(func(now float64) (float64, error) {
		if failAt(int(now)+1, failEvery) {
			return 1, nil
		}
		return 0, nil
	})
	layer := &core.Layer{Name: "app", Predictor: incumbent, Threshold: 0.5}
	eng := testEngine(t, defaultCoreCfg(), layer)

	led, err := obs.NewLedger(obs.LedgerConfig{LeadTime: 1, Window: 40}, "app")
	if err != nil {
		t.Fatal(err)
	}
	recordFailures(led, 100_000, failEvery)
	mgr, err := lifecycle.NewManager([]*core.Layer{layer}, led, lifecycle.Config{
		ScoreWarmup: 10, ShadowMinResolved: 10, CooldownCycles: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var log swapEvents
	mgr.Subscribe(log.record)

	rt, err := New(Config{
		Engine:    eng,
		Apply:     func(ingest.Event) error { applied++; return nil },
		Clock:     tickClock(),
		Ledger:    led,
		Lifecycle: mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := rt.Start(ctx); err != nil {
		t.Fatal(err)
	}

	// Full ingest load for the whole episode: four producers spam samples.
	stop := make(chan struct{})
	var producers sync.WaitGroup
	for p := 0; p < 4; p++ {
		producers.Add(1)
		go func(p int) {
			defer producers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ev := ingest.Event{Kind: ingest.KindSample, Time: float64(i), Variable: "v" + strconv.Itoa(p), Value: float64(i)}
				if err := rt.Ingest(ctx, ev); err != nil {
					return // shutdown began
				}
			}
		}(p)
	}

	deadline := time.Now().Add(30 * time.Second)
	for mgr.Totals().Confirms == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no confirmed swap after %d cycles; totals = %+v",
				rt.metrics.Evaluations.Value(), mgr.Totals())
		}
		rt.EvaluateNow()
		time.Sleep(20 * time.Microsecond)
	}
	close(stop)
	producers.Wait()

	// Snapshot the HTTP surface while the pipeline still runs.
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/layers", nil))
	var statuses []lifecycle.LayerStatus
	if err := json.NewDecoder(rec.Body).Decode(&statuses); err != nil {
		t.Fatalf("/layers: %v", err)
	}
	mrec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))

	if err := rt.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	if v := layer.Version(); v < 2 {
		t.Fatalf("layer version = %d, want ≥ 2 after hot-swap", v)
	}
	tot := mgr.Totals()
	if tot.Swaps < 1 || tot.Confirms < 1 {
		t.Fatalf("totals = %+v, want ≥1 swap and ≥1 confirm", tot)
	}
	sw, ok := log.first(lifecycle.EventSwapped)
	if !ok {
		t.Fatal("no swap event recorded")
	}
	if !(sw.CandidateF > sw.IncumbentF) {
		t.Fatalf("swap with candidate F %.3f ≤ incumbent F %.3f", sw.CandidateF, sw.IncumbentF)
	}
	// The pipeline never shed work: every ingested event applied, no cycle
	// was dropped on the floor.
	m := rt.Metrics()
	if m.Dropped() != 0 {
		t.Fatalf("dropped %d events under Block policy", m.Dropped())
	}
	if m.Ingested.Value() != m.Applied.Value() {
		t.Fatalf("ingested %d != applied %d", m.Ingested.Value(), m.Applied.Value())
	}

	if len(statuses) != 1 || statuses[0].Layer != "app" {
		t.Fatalf("/layers = %+v", statuses)
	}
	if statuses[0].Swaps < 1 || statuses[0].Version < 2 {
		t.Fatalf("/layers status = %+v, want swaps ≥ 1 and version ≥ 2", statuses[0])
	}
	expo := mrec.Body.String()
	for _, re := range []string{
		`pfm_swaps_total [1-9]`,
		`pfm_layer_version\{layer="app"\} [2-9]`,
		`pfm_retrains_total [1-9]`,
		`pfm_retrain_duration_seconds_count [1-9]`,
		`pfm_layer_eval_errors_total\{layer="app"\} 0`,
		`pfm_combiner_errors_total 0`,
	} {
		if !regexp.MustCompile(re).MatchString(expo) {
			t.Fatalf("metrics exposition missing %q", re)
		}
	}
}

// ---- drifted-trace smoke test ----

// errMirror is the Apply-side state of the smoke test: a time-ordered list
// of error-event timestamps. Unsynchronized by design — the runtime's state
// lock is the only thing keeping Apply and Evaluate/CaptureWindow apart.
type errMirror struct{ times []float64 }

func (m *errMirror) apply(ev ingest.Event) error {
	m.times = append(m.times, ev.Time)
	return nil
}

// count returns how many error events fall in (now−span, now].
func (m *errMirror) count(now, span float64) int {
	n := 0
	for i := len(m.times) - 1; i >= 0; i-- {
		if m.times[i] <= now-span {
			break
		}
		if m.times[i] <= now {
			n++
		}
	}
	return n
}

// ratePredictor warns when the two-tick error count reaches its scale — the
// smoke test's miniature failure model. Retraining refits the scale from the
// captured recent counts (1.5 × median), the same shape as recalibrating a
// threshold after an error-rate regime change.
type ratePredictor struct {
	m     *errMirror
	scale float64
	gen   uint64
}

func (p *ratePredictor) Evaluate(now float64) (float64, error) {
	return float64(p.m.count(now, 2)) / p.scale, nil
}

func (p *ratePredictor) CaptureWindow(now float64) (any, error) {
	counts := make([]float64, 0, 10)
	for k := 9; k >= 0; k-- {
		counts = append(counts, float64(p.m.count(now-float64(k), 2)))
	}
	return counts, nil
}

func (p *ratePredictor) Retrain(window any) (core.LayerPredictor, error) {
	counts := append([]float64(nil), window.([]float64)...)
	sort.Float64s(counts)
	scale := 1.5 * (counts[len(counts)/2-1] + counts[len(counts)/2]) / 2
	if scale < 1 {
		scale = 1
	}
	return &ratePredictor{m: p.m, scale: scale, gen: p.gen + 1}, nil
}

// TestHotSwapSmokeDriftedTrace replays a deterministic error-event trace
// with an injected distribution shift at tick 150: background error noise
// appears and pre-failure bursts grow, so the incumbent's fixed scale warns
// constantly and its F-measure collapses. The lifecycle must detect the
// drift, retrain a recalibrated candidate from the captured window, prove it
// in shadow and hot-swap it — without dropping a single evaluation cycle.
func TestHotSwapSmokeDriftedTrace(t *testing.T) {
	const (
		failEvery = 10
		shiftAt   = 150
		ticks     = 300
	)
	mirror := &errMirror{}
	incumbent := &ratePredictor{m: mirror, scale: 3}
	layer := &core.Layer{Name: "errrate", Predictor: incumbent, Threshold: 1}
	eng := testEngine(t, defaultCoreCfg(), layer)

	led, err := obs.NewLedger(obs.LedgerConfig{LeadTime: 1, Window: 40}, "errrate")
	if err != nil {
		t.Fatal(err)
	}
	recordFailures(led, ticks+failEvery, failEvery)
	mgr, err := lifecycle.NewManager([]*core.Layer{layer}, led, lifecycle.Config{
		ScoreWarmup: 30, ShadowMinResolved: 10, CooldownCycles: 20, SyncRetrain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var log swapEvents
	mgr.Subscribe(log.record)

	rt, err := New(Config{
		Engine:    eng,
		Apply:     mirror.apply,
		Clock:     tickClock(),
		Ledger:    led,
		Lifecycle: mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := rt.Start(ctx); err != nil {
		t.Fatal(err)
	}

	// eventsAt is the trace generator: 2 background errors per tick after
	// the shift, and a pre-failure burst (3 before the shift, 8 after) one
	// tick ahead of each scheduled failure.
	eventsAt := func(tick int) int {
		n := 0
		if tick >= shiftAt {
			n += 2
		}
		if failAt(tick+1, failEvery) {
			if tick >= shiftAt {
				n += 8
			} else {
				n += 3
			}
		}
		return n
	}

	deadline := time.Now().Add(60 * time.Second)
	ingested := int64(0)
	for tick := 1; tick <= ticks; tick++ {
		for i := 0; i < eventsAt(tick); i++ {
			if err := rt.Ingest(ctx, ingest.Event{Kind: ingest.KindError, Time: float64(tick)}); err != nil {
				t.Fatal(err)
			}
			ingested++
		}
		// Gate each cycle on its events being applied, and each next tick on
		// the previous cycle having reached the act stage: the replay is then
		// bit-for-bit reproducible.
		waitCounter(t, "applied", rt.metrics.Applied.Value, ingested, deadline)
		rt.EvaluateNow()
		waitCounter(t, "evaluations", rt.metrics.Evaluations.Value, int64(tick), deadline)
	}
	if err := rt.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	// No dropped evaluation cycles: one cycle per replayed tick plus the
	// drain cycle Stop runs — a blocked or skipped cycle would show here.
	if got := rt.metrics.Evaluations.Value(); got != ticks+1 {
		t.Fatalf("evaluations = %d, want %d (one per tick + drain cycle)", got, ticks+1)
	}
	if rt.Metrics().Dropped() != 0 {
		t.Fatalf("dropped %d events", rt.Metrics().Dropped())
	}
	sw, ok := log.first(lifecycle.EventSwapped)
	if !ok {
		t.Fatalf("no hot-swap on the drifted trace; totals = %+v", mgr.Totals())
	}
	if !(sw.CandidateF > sw.IncumbentF) {
		t.Fatalf("swap with candidate F %.3f ≤ incumbent F %.3f", sw.CandidateF, sw.IncumbentF)
	}
	if layer.Version() < 2 {
		t.Fatalf("layer version = %d, want ≥ 2", layer.Version())
	}
	// The swapped-in predictor's rolling ledger F-measure must beat the
	// pre-swap incumbent's — the acceptance bar for the whole refactor.
	if endF := led.Quality("errrate").FMeasure(); !(endF > sw.IncumbentF) {
		t.Fatalf("post-swap rolling F %.3f ≤ pre-swap incumbent F %.3f", endF, sw.IncumbentF)
	}
	// The recalibrated scale is deterministic: replaying the same trace must
	// always fit the same candidate.
	cur, _ := layer.Current()
	rp, ok := cur.(*ratePredictor)
	if !ok {
		t.Fatalf("serving predictor is %T, want *ratePredictor", cur)
	}
	if rp.gen != 1 || rp.scale <= incumbent.scale {
		t.Fatalf("swapped predictor gen=%d scale=%.3f, want gen 1 and scale > %.1f",
			rp.gen, rp.scale, incumbent.scale)
	}
}

// runDriftedTrace replays the smoke test's drifted trace with the lifecycle
// attached and returns the /ledger body and the lifecycle totals. Streaming
// drives one EvaluateNow cycle per tick; batched drives the same ticks
// through CycleBatch the way a replay driver does, stacking the ticks no
// event falls between (up to nine before the shift, none after it).
func runDriftedTrace(t *testing.T, batched bool) (ledger string, totals lifecycle.Totals) {
	t.Helper()
	const (
		failEvery = 10
		shiftAt   = 150
		ticks     = 300
	)
	mirror := &errMirror{}
	layer := &core.Layer{Name: "errrate", Predictor: &ratePredictor{m: mirror, scale: 3}, Threshold: 1}
	eng := testEngine(t, defaultCoreCfg(), layer)
	led, err := obs.NewLedger(obs.LedgerConfig{LeadTime: 1, Window: 40}, "errrate")
	if err != nil {
		t.Fatal(err)
	}
	recordFailures(led, ticks+failEvery, failEvery)
	mgr, err := lifecycle.NewManager([]*core.Layer{layer}, led, lifecycle.Config{
		ScoreWarmup: 30, ShadowMinResolved: 10, CooldownCycles: 20, SyncRetrain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Uint64
	setClock := func(tick int) { clock.Store(math.Float64bits(float64(tick))) }
	rt, err := New(Config{
		Engine:    eng,
		Apply:     mirror.apply,
		Clock:     func() float64 { return math.Float64frombits(clock.Load()) },
		Ledger:    led,
		Lifecycle: mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := rt.Start(ctx); err != nil {
		t.Fatal(err)
	}
	var stack []float64
	flush := func() {
		if len(stack) == 0 {
			return
		}
		if err := rt.Barrier(ctx); err != nil {
			t.Fatal(err)
		}
		rt.CycleBatch(stack)
		stack = stack[:0]
	}
	deadline := time.Now().Add(60 * time.Second)
	for tick := 1; tick <= ticks; tick++ {
		n := 0 // the smoke test's trace generator
		if tick >= shiftAt {
			n += 2
		}
		if failAt(tick+1, failEvery) {
			n += 3
			if tick >= shiftAt {
				n += 5
			}
		}
		if n > 0 {
			flush()
		}
		for i := 0; i < n; i++ {
			if err := rt.Ingest(ctx, ingest.Event{Kind: ingest.KindError, Time: float64(tick)}); err != nil {
				t.Fatal(err)
			}
		}
		if batched {
			stack = append(stack, float64(tick))
			continue
		}
		if err := rt.Barrier(ctx); err != nil {
			t.Fatal(err)
		}
		setClock(tick)
		rt.EvaluateNow()
		waitCounter(t, "cycles", rt.Cycles, int64(tick), deadline)
	}
	flush()
	setClock(ticks + 1) // the drain cycle's time, on both arms
	if err := rt.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rt.Cycles(); got != ticks+1 {
		t.Fatalf("cycles = %d, want %d", got, ticks+1)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/ledger", nil))
	return rec.Body.String(), mgr.Totals()
}

// TestStreamingBatchLifecycleParity: with a lifecycle manager attached, the
// cycle loop's cycles and CycleBatch leave the same ledger — the incumbent's
// rows, the shadow candidate's "errrate#candidate" rows and the combined
// rows — and the same lifecycle episode, because both are one cycle body.
func TestStreamingBatchLifecycleParity(t *testing.T) {
	streamLedger, streamTotals := runDriftedTrace(t, false)
	batchLedger, batchTotals := runDriftedTrace(t, true)
	if streamTotals.Swaps < 1 {
		t.Fatalf("no hot-swap on the drifted trace; totals = %+v", streamTotals)
	}
	var body ledgerJSON
	if err := json.Unmarshal([]byte(streamLedger), &body); err != nil {
		t.Fatal(err)
	}
	candidateRows := 0
	for _, l := range body.Layers {
		if c := l.Cumulative; l.Layer == "errrate#candidate" {
			candidateRows = c.TP + c.FP + c.TN + c.FN
		}
	}
	if candidateRows == 0 {
		t.Fatalf("no shadow-candidate rows were journaled:\n%s", streamLedger)
	}
	if batchTotals != streamTotals {
		t.Errorf("lifecycle totals diverged: streaming %+v, batched %+v", streamTotals, batchTotals)
	}
	if batchLedger != streamLedger {
		t.Errorf("/ledger diverged:\nstreaming: %s\nbatched:   %s", streamLedger, batchLedger)
	}
}
