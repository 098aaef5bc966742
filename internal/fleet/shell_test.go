package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/act"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/runtime"
)

// The shell suite runs one set of cases against both pipelines that sit on
// runtime.Shell — a single-tenant runtime.Runtime and a Fleet — so the
// start-once rule, the graceful and hard stop protocol, the readiness
// states, a cycle run on its caller and none after Stop, and one cycle at a
// time are pinned once, for both.

// shellHooks are the places a case reaches into a fixture's pipeline. Each
// is called on the pipeline's own goroutines and may block.
type shellHooks struct {
	apply  func(tenant string) // inside every Apply
	score  func() float64      // every layer evaluation (per tenant on a fleet)
	action func() error        // the countermeasure
}

// shellFixture is a pipeline behind the surface the cases need.
type shellFixture struct {
	sentinel    error // ErrRuntime or ErrFleet
	start       func(context.Context) error
	stop        func(context.Context) error
	running     func() bool
	evaluateNow func() // runtime.Runtime.EvaluateNow, Fleet.EvaluateCycle
	cycles      func() int64
	metrics     *runtime.Metrics
	handler     http.Handler
	// ingest offers the i-th event (a fleet spreads them over its tenants).
	ingest func(ctx context.Context, i int) error
	// fleet is nil on the single-tenant fixture.
	fleet *Fleet
}

func shellAction(t *testing.T, h *shellHooks) (*act.Selector, []*act.Action) {
	t.Helper()
	sel, err := act.NewSelector(act.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	a, err := act.New("hook", act.StateCleanup, act.Params{SuccessProb: 1}, func() error {
		if h.action != nil {
			return h.action()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sel, []*act.Action{a}
}

func (h *shellHooks) scoreNow() float64 {
	if h.score != nil {
		return h.score()
	}
	return 0
}

var shellEngine = core.Config{EvalInterval: 1, LeadTime: 10, WarnThreshold: 0.5}

func newRuntimeFixture(t *testing.T, h *shellHooks) *shellFixture {
	t.Helper()
	layer := &core.Layer{Name: "l", Threshold: 0.5,
		Predictor: core.PredictorFunc(func(float64) (float64, error) { return h.scoreNow(), nil })}
	sel, actions := shellAction(t, h)
	eng, err := core.New(nil, []*core.Layer{layer}, nil, sel, actions, nil, shellEngine)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := runtime.New(runtime.Config{
		Engine: eng,
		Apply: func(ingest.Event) error {
			if h.apply != nil {
				h.apply("")
			}
			return nil
		},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &shellFixture{
		sentinel: runtime.ErrRuntime,
		start:    rt.Start, stop: rt.Stop, running: rt.Running,
		evaluateNow: rt.EvaluateNow, cycles: rt.Cycles,
		metrics: rt.Metrics(), handler: rt.Handler(),
		ingest: func(ctx context.Context, i int) error {
			return rt.Ingest(ctx, ingest.Event{Kind: ingest.KindSample, Variable: "x", Time: float64(i)})
		},
	}
}

const shellTenants = 16

func newFleetFixture(t *testing.T, h *shellHooks) *shellFixture {
	t.Helper()
	ids := make([]string, shellTenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%02d", i)
	}
	f, err := New(Config{
		Tenants: specs(ids...),
		Layers: []LayerTemplate{{Name: "l", Threshold: 0.5,
			Score: func(TenantState, float64) (float64, error) { return h.scoreNow(), nil }}},
		NewState: func(s TenantSpec) (TenantState, error) { return s.ID, nil },
		Apply: func(st TenantState, _ ingest.Event) error {
			if h.apply != nil {
				h.apply(st.(string))
			}
			return nil
		},
		Engine: shellEngine,
		NewActions: func(TenantSpec) (*act.Selector, []*act.Action, error) {
			sel, actions := shellAction(t, h)
			return sel, actions, nil
		},
		Shards:  2,
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &shellFixture{
		sentinel: ErrFleet,
		start:    f.Start, stop: f.Stop, running: f.Running,
		evaluateNow: f.EvaluateCycle, cycles: f.Cycles,
		metrics: f.Metrics(), handler: f.Handler(),
		ingest: func(ctx context.Context, i int) error {
			return f.Ingest(ctx, sample(ids[i%len(ids)], float64(i), 0))
		},
		fleet: f,
	}
}

// waitFor polls cond; the cases use it only for states another goroutine is
// already on its way to.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// get serves one request on the fixture's handler.
func (fx *shellFixture) get(path string) (int, string) {
	rec := httptest.NewRecorder()
	fx.handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

// status reads the pipeline status from /healthz.
func (fx *shellFixture) status(t *testing.T) (code int, status string) {
	t.Helper()
	code, body := fx.get("/healthz")
	var h runtime.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz body %q: %v", body, err)
	}
	return code, h.Status
}

// conserved checks ingested = applied + dropped on the final counters.
func (fx *shellFixture) conserved(t *testing.T) {
	t.Helper()
	m := fx.metrics
	if in, ap, dr := m.Ingested.Value(), m.Applied.Value(), m.Dropped(); in != ap+dr {
		t.Errorf("ingested %d != applied %d + dropped %d", in, ap, dr)
	}
}

// applyGate blocks every Apply until open is closed, and closes entered on
// the first one — so a case knows a chunk is in flight and the rest of what
// it ingested is still queued.
type applyGate struct {
	open, entered chan struct{}
	once          sync.Once
	after         time.Duration // each Apply's cost once the gate is open
}

func newApplyGate() *applyGate {
	return &applyGate{open: make(chan struct{}), entered: make(chan struct{})}
}

func (g *applyGate) apply(string) {
	g.once.Do(func() { close(g.entered) })
	<-g.open
	time.Sleep(g.after)
}

func TestShell(t *testing.T) {
	fixtures := []struct {
		name string
		new  func(*testing.T, *shellHooks) *shellFixture
	}{
		{"runtime", newRuntimeFixture},
		{"fleet", newFleetFixture},
	}
	cases := []struct {
		name      string
		run       func(t *testing.T, build func(*shellHooks) *shellFixture)
		fleetOnly bool // the single-tenant runtime has a fixed shard count
	}{
		{name: "start once, stop after start, stop idempotent", run: shellStartStop},
		{name: "graceful stop applies the backlog and runs one final cycle", run: shellGracefulStop},
		{name: "stop with an expired ctx sheds the backlog", run: shellExpiredStop},
		{name: "parent ctx cancellation sheds the backlog", run: shellParentCancel},
		{name: "readiness ok, draining, stopped; liveness 200 throughout", run: shellReadiness},
		{name: "EvaluateNow has run the cycle when it returns, and after Stop runs none", run: shellEvaluateNow},
		{name: "a slow action delays the next cycle and loses nothing", run: shellSlowAction},
		{name: "Resize while running adds consumers Stop waits for", run: shellResize, fleetOnly: true},
	}
	for _, fx := range fixtures {
		for _, c := range cases {
			fx, c := fx, c
			if c.fleetOnly && fx.name != "fleet" {
				continue
			}
			t.Run(fx.name+"/"+c.name, func(t *testing.T) {
				c.run(t, func(h *shellHooks) *shellFixture { return fx.new(t, h) })
			})
		}
	}
}

func shellStartStop(t *testing.T, build func(*shellHooks) *shellFixture) {
	fx := build(&shellHooks{})
	ctx := context.Background()
	if err := fx.stop(ctx); !errors.Is(err, fx.sentinel) {
		t.Fatalf("Stop before Start = %v, want the package sentinel", err)
	}
	if fx.running() {
		t.Fatal("running before Start")
	}
	if err := fx.start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := fx.start(ctx); !errors.Is(err, fx.sentinel) {
		t.Fatalf("second Start = %v, want the package sentinel", err)
	}
	if !fx.running() {
		t.Fatal("not running after Start")
	}
	for i := 0; i < 3; i++ {
		if err := fx.stop(ctx); err != nil {
			t.Fatalf("Stop #%d = %v", i+1, err)
		}
	}
	if fx.running() {
		t.Fatal("running after Stop")
	}
	if err := fx.ingest(ctx, 0); !errors.Is(err, runtime.ErrClosed) {
		t.Fatalf("Ingest after Stop = %v, want ErrClosed", err)
	}
}

const shellBacklog = 300 // more than any one drain chunk

// backlog starts fx behind a closed apply gate and queues shellBacklog
// events: on return one chunk is in flight and the rest is still queued.
func backlog(t *testing.T, ctx context.Context, build func(*shellHooks) *shellFixture) (*shellFixture, *applyGate) {
	t.Helper()
	gate := newApplyGate()
	fx := build(&shellHooks{apply: gate.apply})
	if err := fx.start(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shellBacklog; i++ {
		if err := fx.ingest(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	<-gate.entered
	return fx, gate
}

func shellGracefulStop(t *testing.T, build func(*shellHooks) *shellFixture) {
	fx, gate := backlog(t, context.Background(), build)
	stopped := make(chan error, 1)
	go func() { stopped <- fx.stop(context.Background()) }()
	waitFor(t, "Stop to begin", func() bool { return !fx.running() })
	close(gate.open)
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	m := fx.metrics
	if m.Applied.Value() != shellBacklog || m.Dropped() != 0 {
		t.Errorf("applied %d dropped %d, want %d and 0", m.Applied.Value(), m.Dropped(), shellBacklog)
	}
	// No EvaluateNow: the only cycle is the final one.
	if got := fx.cycles(); got != 1 {
		t.Errorf("cycles = %d, want exactly the final one", got)
	}
	fx.conserved(t)
}

// checkShed asserts a hard stop's outcome: part of the backlog applied (the
// chunk in flight), the rest counted dropped with reason "shutdown".
func checkShed(t *testing.T, fx *shellFixture) {
	t.Helper()
	m := fx.metrics
	if m.Ingested.Value() != shellBacklog {
		t.Errorf("ingested %d, want %d", m.Ingested.Value(), shellBacklog)
	}
	if m.DroppedShutdown.Value() == 0 || m.DroppedShutdown.Value() != m.Dropped() {
		t.Errorf("dropped: shutdown %d of %d, want all and > 0", m.DroppedShutdown.Value(), m.Dropped())
	}
	fx.conserved(t)
	if _, body := fx.get("/metrics"); !strings.Contains(body,
		fmt.Sprintf(`pfm_events_dropped_total{reason="shutdown"} %d`, m.DroppedShutdown.Value())) {
		t.Errorf("/metrics lacks the shutdown drop count %d", m.DroppedShutdown.Value())
	}
	if code, status := fx.status(t); code != http.StatusServiceUnavailable || status != "stopped" {
		t.Errorf("/healthz = %d %q, want 503 stopped", code, status)
	}
}

func shellExpiredStop(t *testing.T, build func(*shellHooks) *shellFixture) {
	fx, gate := backlog(t, context.Background(), build)
	// Once open, the chunk in flight takes a millisecond an event — far
	// longer than Stop needs to get from "draining" to the hard stop.
	gate.after = time.Millisecond
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	stopped := make(chan error, 1)
	go func() { stopped <- fx.stop(expired) }()
	waitFor(t, "Stop to begin", func() bool { return !fx.running() })
	close(gate.open)
	if err := <-stopped; !errors.Is(err, context.Canceled) {
		t.Fatalf("Stop with an expired ctx = %v, want context.Canceled", err)
	}
	if err := fx.stop(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("second Stop = %v, want the first call's result", err)
	}
	checkShed(t, fx)
}

func shellParentCancel(t *testing.T, build func(*shellHooks) *shellFixture) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	fx, gate := backlog(t, parent, build)
	cancel() // returns with the shell's hard-stop context already canceled
	close(gate.open)
	if err := fx.stop(context.Background()); err != nil {
		t.Fatalf("Stop after a parent cancel = %v", err)
	}
	checkShed(t, fx)
}

func shellReadiness(t *testing.T, build func(*shellHooks) *shellFixture) {
	live := func(fx *shellFixture, pipeline string) {
		t.Helper()
		if code, body := fx.get("/livez"); code != http.StatusOK ||
			!strings.Contains(body, fmt.Sprintf(`"pipeline":%q`, pipeline)) {
			t.Errorf("/livez = %d %s, want 200 with pipeline %q", code, body, pipeline)
		}
	}
	fx, gate := backlog(t, context.Background(), build)
	if code, status := fx.status(t); code != http.StatusOK || status != "ok" {
		t.Errorf("/healthz while running = %d %q", code, status)
	}
	live(fx, "ok")
	stopped := make(chan error, 1)
	go func() { stopped <- fx.stop(context.Background()) }()
	waitFor(t, "Stop to begin", func() bool { return !fx.running() })
	if code, status := fx.status(t); code != http.StatusServiceUnavailable || status != "draining" {
		t.Errorf("/healthz while draining = %d %q", code, status)
	}
	if code, _ := fx.get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d", code)
	}
	live(fx, "draining")
	close(gate.open)
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	if code, status := fx.status(t); code != http.StatusServiceUnavailable || status != "stopped" {
		t.Errorf("/healthz after Stop = %d %q", code, status)
	}
	live(fx, "stopped")
}

func shellEvaluateNow(t *testing.T, build func(*shellHooks) *shellFixture) {
	fx := build(&shellHooks{})
	ctx := context.Background()
	if err := fx.start(ctx); err != nil {
		t.Fatal(err)
	}
	for want := int64(1); want <= 3; want++ {
		fx.evaluateNow()
		if got := fx.cycles(); got != want {
			t.Fatalf("cycles = %d after EvaluateNow #%d returned, want %d", got, want, want)
		}
	}
	if err := fx.stop(ctx); err != nil {
		t.Fatal(err)
	}
	fx.evaluateNow()
	if got := fx.cycles(); got != 4 {
		t.Errorf("cycles = %d, want 4: three asked for and Stop's final one", got)
	}
	if got := fx.metrics.Evaluations.Value(); got != 4 {
		t.Errorf("evaluations = %d after an EvaluateNow past Stop, want 4", got)
	}
}

func shellSlowAction(t *testing.T, build func(*shellHooks) *shellFixture) {
	const block = 50 * time.Millisecond
	var mu sync.Mutex
	var blockOnce sync.Once
	var actionEnd time.Time
	var scoreStarts []time.Time
	acting := make(chan struct{})
	fx := build(&shellHooks{
		score: func() float64 {
			mu.Lock()
			scoreStarts = append(scoreStarts, time.Now())
			mu.Unlock()
			return 1 // warn, so the action runs
		},
		action: func() error {
			blockOnce.Do(func() { // the first countermeasure of cycle 1
				close(acting)
				time.Sleep(block)
				mu.Lock()
				actionEnd = time.Now()
				mu.Unlock()
			})
			return nil
		},
	})
	ctx := context.Background()
	if err := fx.start(ctx); err != nil {
		t.Fatal(err)
	}
	first := make(chan struct{})
	go func() {
		defer close(first)
		fx.evaluateNow()
	}()
	<-acting // cycle 1 is inside its countermeasure
	// Asked for meanwhile, from another goroutine: it waits its turn.
	fx.evaluateNow()
	<-first
	if got := fx.cycles(); got != 2 {
		t.Errorf("cycles = %d once both EvaluateNow calls returned, want 2", got)
	}
	if err := fx.stop(ctx); err != nil {
		t.Fatal(err)
	}
	if got := fx.cycles(); got != 3 {
		t.Errorf("cycles = %d, want 3: two requested and the final one", got)
	}
	// Delayed, not overlapped: cycle 2 did not start scoring before cycle
	// 1's blocking countermeasure returned. (A fleet scores and acts per
	// tenant; a cycle's scores all precede its first action.)
	mu.Lock()
	defer mu.Unlock()
	perCycle := len(scoreStarts) / 3
	if perCycle == 0 || len(scoreStarts)%3 != 0 {
		t.Fatalf("%d score calls over 3 cycles", len(scoreStarts))
	}
	if next := scoreStarts[perCycle]; next.Before(actionEnd) {
		t.Errorf("cycle 2 began scoring %v before cycle 1's action returned", actionEnd.Sub(next))
	}
}

func shellResize(t *testing.T, build func(*shellHooks) *shellFixture) {
	gate := newApplyGate()
	fx := build(&shellHooks{apply: gate.apply})
	f := fx.fleet
	ctx := context.Background()
	if err := fx.start(ctx); err != nil {
		t.Fatal(err)
	}
	before := f.Shards()
	if err := f.Resize(before + 3); err != nil {
		t.Fatal(err)
	}
	// A tenant the new ring homes on one of the shards Resize just added:
	// only a consumer started by Resize can drain it.
	var moved string
	for i := 0; i < shellTenants; i++ {
		id := fmt.Sprintf("t%02d", i)
		if s, _ := f.ShardOf(id); s >= before {
			moved = id
			break
		}
	}
	if moved == "" {
		t.Fatalf("no tenant of %d moved to shards %d..%d", shellTenants, before, before+2)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := f.Ingest(ctx, sample(moved, float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	<-gate.entered
	stopped := make(chan error, 1)
	go func() { stopped <- fx.stop(ctx) }()
	waitFor(t, "Stop to begin", func() bool { return !fx.running() })
	select {
	case err := <-stopped:
		t.Fatalf("Stop returned %v while an added consumer was still applying", err)
	default:
	}
	close(gate.open)
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	if got := fx.metrics.Applied.Value(); got != n {
		t.Errorf("applied %d of %d events queued on a shard added while running", got, n)
	}
	fx.conserved(t)
}
