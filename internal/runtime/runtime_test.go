package runtime

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/act"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/lifecycle"
	"repro/internal/obs"
)

// TestEventSize pins the single-tenant runtime's queued element — the packed
// event with its trace stamp, and its tenant — at 88 bytes: its ring copies
// every event in and out once each.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(queued{}); got != 88 {
		t.Errorf("sizeof(queued) = %d, want 88", got)
	}
}

// testEngine builds an engine with the given layers.
func testEngine(t testing.TB, cfg core.Config, layers ...*core.Layer) *core.Engine {
	t.Helper()
	sel, err := act.NewSelector(act.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	a, err := act.New("noop", act.StateCleanup,
		act.Params{Cost: 0.1, SuccessProb: 0.9, Complexity: 0.1},
		func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(nil, layers, nil, sel, []*act.Action{a}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func quietLayer() *core.Layer {
	return &core.Layer{
		Name:      "quiet",
		Predictor: core.PredictorFunc(func(float64) (float64, error) { return 0, nil }),
		Threshold: 0.5,
	}
}

func defaultCoreCfg() core.Config {
	return core.Config{EvalInterval: 1, LeadTime: 1, WarnThreshold: 0.5}
}

// gatedApply records applied event times and blocks every Apply call until
// release is closed; the first entry is signalled on entered.
type gatedApply struct {
	mu       sync.Mutex
	applied  []float64
	entered  chan struct{}
	release  chan struct{}
	signaled sync.Once
}

func newGatedApply() *gatedApply {
	return &gatedApply{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedApply) apply(ev ingest.Event) error {
	g.signaled.Do(func() { close(g.entered) })
	<-g.release
	g.mu.Lock()
	g.applied = append(g.applied, ev.Time)
	g.mu.Unlock()
	return nil
}

func (g *gatedApply) appliedTimes() []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]float64(nil), g.applied...)
}

// startRuntime builds and starts a runtime over a quiet single-layer
// engine with the given queue setup.
func startRuntime(t *testing.T, apply func(ingest.Event) error, capacity int, policy OverflowPolicy) *Runtime {
	t.Helper()
	rt, err := New(Config{
		Engine:        testEngine(t, defaultCoreCfg(), quietLayer()),
		Apply:         apply,
		QueueCapacity: capacity,
		Overflow:      policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return rt
}

// fillPastGate ingests event 1, waits until the consumer is inside Apply
// (so the queue is empty and under our control), then ingests events
// 2..n. With capacity 2 the queue outcome is fully deterministic.
func fillPastGate(t *testing.T, rt *Runtime, g *gatedApply, n int) {
	t.Helper()
	ctx := context.Background()
	if err := rt.Ingest(ctx, ingest.Event{Time: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never entered Apply")
	}
	for i := 2; i <= n; i++ {
		if err := rt.Ingest(ctx, ingest.Event{Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOverflowDropNewest(t *testing.T) {
	g := newGatedApply()
	rt := startRuntime(t, g.apply, 2, DropNewest)
	fillPastGate(t, rt, g, 10)
	close(g.release)
	if err := rt.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics()
	// Event 1 is in Apply; 2 and 3 fill the queue; 4..10 rejected.
	if got := g.appliedTimes(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("applied = %v, want [1 2 3]", got)
	}
	if m.DroppedNewest.Value() != 7 || m.Dropped() != 7 {
		t.Fatalf("dropped = %d (newest %d), want 7", m.Dropped(), m.DroppedNewest.Value())
	}
	if m.Ingested.Value() != m.Applied.Value()+m.Dropped() {
		t.Fatalf("invariant: ingested %d != applied %d + dropped %d",
			m.Ingested.Value(), m.Applied.Value(), m.Dropped())
	}
}

func TestOverflowDropOldest(t *testing.T) {
	g := newGatedApply()
	rt := startRuntime(t, g.apply, 2, DropOldest)
	fillPastGate(t, rt, g, 10)
	close(g.release)
	if err := rt.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics()
	// Event 1 is in Apply; the queue keeps the freshest two: 9 and 10.
	if got := g.appliedTimes(); len(got) != 3 || got[0] != 1 || got[1] != 9 || got[2] != 10 {
		t.Fatalf("applied = %v, want [1 9 10]", got)
	}
	if m.DroppedOldest.Value() != 7 {
		t.Fatalf("dropped-oldest = %d, want 7", m.DroppedOldest.Value())
	}
	if m.Ingested.Value() != m.Applied.Value()+m.Dropped() {
		t.Fatalf("invariant: ingested %d != applied %d + dropped %d",
			m.Ingested.Value(), m.Applied.Value(), m.Dropped())
	}
}

func TestOverflowBlockBackpressure(t *testing.T) {
	g := newGatedApply()
	rt := startRuntime(t, g.apply, 2, Block)
	fillPastGate(t, rt, g, 3) // 1 in Apply, 2..3 queued: queue now full

	// A further blocking Ingest must wait; give it a deadline and make
	// sure cancellation is accounted as a drop, not lost.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := rt.Ingest(ctx, ingest.Event{Time: 4}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked ingest returned %v, want deadline exceeded", err)
	}
	if rt.Metrics().DroppedCanceled.Value() != 1 {
		t.Fatalf("dropped-canceled = %d, want 1", rt.Metrics().DroppedCanceled.Value())
	}

	// Unblock: a fresh blocking Ingest now succeeds once space frees up.
	done := make(chan error, 1)
	go func() { done <- rt.Ingest(context.Background(), ingest.Event{Time: 5}) }()
	close(g.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := rt.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics()
	if got := g.appliedTimes(); len(got) != 4 {
		t.Fatalf("applied = %v, want 4 events (1,2,3,5)", got)
	}
	if m.Ingested.Value() != m.Applied.Value()+m.Dropped() {
		t.Fatalf("invariant: ingested %d != applied %d + dropped %d",
			m.Ingested.Value(), m.Applied.Value(), m.Dropped())
	}
}

func TestGracefulShutdownDrain(t *testing.T) {
	var mu sync.Mutex
	applied := 0
	rt, err := New(Config{
		Engine: testEngine(t, defaultCoreCfg(), quietLayer()),
		Apply: func(ingest.Event) error {
			mu.Lock()
			applied++
			mu.Unlock()
			return nil
		},
		QueueCapacity: 8,
		Overflow:      Block,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	const n = 500
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				if err := rt.Ingest(context.Background(), ingest.Event{Time: float64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := rt.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := applied
	mu.Unlock()
	if got != n {
		t.Fatalf("applied = %d, want %d (block policy must not lose events)", got, n)
	}
	m := rt.Metrics()
	if m.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", m.Dropped())
	}
	// Drain runs one final evaluation even without a ticker.
	if m.Evaluations.Value() < 1 {
		t.Fatal("no final evaluation after drain")
	}
	// The pipeline is closed now.
	if err := rt.Ingest(context.Background(), ingest.Event{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after stop returned %v, want ErrClosed", err)
	}
	// Stop is idempotent.
	if err := rt.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodicEvaluationWarnsActsAndGuards(t *testing.T) {
	hot := &core.Layer{
		Name:      "hot",
		Predictor: core.PredictorFunc(func(float64) (float64, error) { return 1, nil }),
		Threshold: 0.5,
	}
	cfg := defaultCoreCfg()
	cfg.OscillationWindow = 3600 // every cycle of the run falls in one window
	cfg.MaxActionsPerWindow = 2
	eng := testEngine(t, cfg, hot)
	var now atomic.Uint64
	rt, err := New(Config{
		Engine:  eng,
		Apply:   func(ingest.Event) error { return nil },
		Clock:   func() float64 { return float64(now.Load()) },
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One cycle a domain second: two act, the guard suppresses the rest.
	for i := 0; i < 5; i++ {
		now.Add(1)
		rt.EvaluateNow()
	}
	if got := rt.Metrics().Suppressed.Value(); got != 3 {
		t.Fatalf("suppressed = %d after 5 warning cycles, want 3", got)
	}
	if err := rt.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics()
	if m.Actions.Value() != 2 {
		t.Fatalf("actions = %d, want exactly 2 (guard limit)", m.Actions.Value())
	}
	if warned := eng.Report().Warnings; int64(warned) != m.Warnings.Value() {
		t.Fatalf("engine warnings %d != metric %d", warned, m.Warnings.Value())
	}
	if m.Warnings.Value() != m.Actions.Value()+m.Suppressed.Value() {
		t.Fatalf("warnings %d != actions %d + suppressed %d",
			m.Warnings.Value(), m.Actions.Value(), m.Suppressed.Value())
	}
}

func TestEvaluateNowEventDriven(t *testing.T) {
	rt := startRuntime(t, func(ingest.Event) error { return nil }, 4, Block)
	rt.EvaluateNow()
	if got := rt.Metrics().Evaluations.Value(); got != 1 {
		t.Fatalf("evaluations = %d once EvaluateNow returned, want 1", got)
	}
	if err := rt.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	rt.EvaluateNow()
	if got := rt.Metrics().Evaluations.Value(); got != 2 {
		t.Fatalf("evaluations = %d, want EvaluateNow's and Stop's final one", got)
	}
}

// TestStress pushes 100k events from concurrent producers through the
// full pipeline with evaluation running — each producer runs a cycle every
// thousand events, so cycles from four goroutines contend — and checks the
// conservation invariant: every event presented to Ingest is either applied
// or counted dropped. Run with -race.
func TestStress(t *testing.T) {
	var mu sync.Mutex
	seen := 0
	counting := &core.Layer{
		Name: "events",
		Predictor: core.PredictorFunc(func(float64) (float64, error) {
			// Reads the Apply-written state under the runtime's read lock.
			return float64(seen % 2), nil
		}),
		Threshold: 0.5,
	}
	rt, err := New(Config{
		Engine: testEngine(t, defaultCoreCfg(), counting, quietLayer()),
		Apply: func(ingest.Event) error {
			mu.Lock()
			seen++
			mu.Unlock()
			return nil
		},
		QueueCapacity: 256,
		Overflow:      DropOldest,
		Workers:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 4, 25000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				_ = rt.Ingest(context.Background(), ingest.Event{Time: float64(p*perProducer + i)})
				if i%1000 == 0 {
					rt.EvaluateNow()
				}
			}
		}(p)
	}
	wg.Wait()
	if err := rt.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics()
	total := int64(producers * perProducer)
	if m.Ingested.Value() != total {
		t.Fatalf("ingested = %d, want %d", m.Ingested.Value(), total)
	}
	if m.Ingested.Value() != m.Applied.Value()+m.Dropped() {
		t.Fatalf("invariant: ingested %d != applied %d + dropped %d",
			m.Ingested.Value(), m.Applied.Value(), m.Dropped())
	}
	mu.Lock()
	gotSeen := int64(seen)
	mu.Unlock()
	if gotSeen != m.Applied.Value() {
		t.Fatalf("apply callback saw %d events, metrics say %d", gotSeen, m.Applied.Value())
	}
	if m.Evaluations.Value() < 1 {
		t.Fatal("no evaluations during stress run")
	}
}

// metricSeries lists the series a registry exposes, name and labels without
// the values (the Go heap gauges move from scrape to scrape).
func metricSeries(t *testing.T, reg *Registry) []string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if line != "" && line[0] != '#' {
			out = append(out, line[:strings.LastIndexByte(line, ' ')])
		}
	}
	return out
}

// TestConfigValidation: New refuses each bad Config, and the one it accepts
// exposes every series once.
func TestConfigValidation(t *testing.T) {
	layer := quietLayer()
	eng := testEngine(t, defaultCoreCfg(), layer)
	led, err := obs.NewLedger(obs.LedgerConfig{LeadTime: 1}, layer.Name)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := lifecycle.NewManager([]*core.Layer{layer}, led, lifecycle.Config{})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(ingest.Event) error { return nil }
	cases := []Config{
		{Engine: nil, Apply: apply},
		{Engine: eng, Apply: nil},
		{Engine: eng, Apply: apply, QueueCapacity: -1},
		{Engine: eng, Apply: apply, Workers: -2},
		{Engine: eng, Apply: apply, Lifecycle: mgr}, // Lifecycle requires Ledger
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: accepted", i)
		}
	}
	rt, err := New(Config{Engine: eng, Apply: apply, Lifecycle: mgr, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range metricSeries(t, rt.Metrics().Registry()) {
		if seen[s] {
			t.Errorf("series %s exposed twice", s)
		}
		seen[s] = true
	}
	if !seen["pfm_queue_depth"] || !seen[`pfm_layer_version{layer="quiet"}`] {
		t.Errorf("the accepted New registered too little: %v", seen)
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []OverflowPolicy{Block, DropOldest, DropNewest} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("roundtrip %v: got %v err %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("accepted bogus policy")
	}
}
