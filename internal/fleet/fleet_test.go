package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// tstate is the test tenant state: a running mean of sample values plus an
// error count — enough for a deterministic layer score.
type tstate struct {
	id   string
	n    int64
	sum  float64
	errs int64
}

// meanScore scores a tenant by its running sample mean (NaN-abstains
// before any sample).
func meanScore(st TenantState, _ float64) (float64, error) {
	s := st.(*tstate)
	if s.n == 0 {
		return math.NaN(), nil
	}
	return s.sum / float64(s.n), nil
}

// testClock is a settable domain clock safe for concurrent reads.
type testClock struct{ bits atomic.Uint64 }

func newTestClock(t float64) *testClock {
	c := &testClock{}
	c.Set(t)
	return c
}
func (c *testClock) Set(t float64) { c.bits.Store(math.Float64bits(t)) }
func (c *testClock) Now() float64  { return math.Float64frombits(c.bits.Load()) }

// testFleetConfig builds a baseline single-layer config over tstate;
// callers override fields before New.
func testFleetConfig(specs []TenantSpec, clock *testClock) Config {
	return Config{
		Tenants: specs,
		Layers: []LayerTemplate{{
			Name: "load", Threshold: 0.5, Score: meanScore,
		}},
		NewState: func(t TenantSpec) (TenantState, error) {
			return &tstate{id: t.ID}, nil
		},
		Apply: func(st TenantState, ev ingest.Event) error {
			s := st.(*tstate)
			if ev.Kind == ingest.KindError {
				s.errs++
				return nil
			}
			s.n++
			s.sum += ev.Value
			return nil
		},
		Engine: core.Config{EvalInterval: 1, LeadTime: 300, WarnThreshold: 0.5},
		Clock:  clock.Now,
	}
}

func specs(ids ...string) []TenantSpec {
	out := make([]TenantSpec, len(ids))
	for i, id := range ids {
		out[i] = TenantSpec{ID: id}
	}
	return out
}

// sample builds one sample event.
func sample(tenant string, t, v float64) ingest.Event {
	return ingest.Event{Tenant: tenant, Kind: ingest.KindSample, Time: t, Variable: "x", Value: v}
}

// TestFleetEndToEnd drives three tenants through ingest → barrier → cycle
// and checks routing, statuses, quality journaling, the criticality
// rollup, and the /fleet endpoint.
func TestFleetEndToEnd(t *testing.T) {
	clock := newTestClock(0)
	led, err := obs.NewScopedLedger(obs.LedgerConfig{LeadTime: 300, Slack: 60}, 2, "load")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testFleetConfig([]TenantSpec{
		{ID: "a", Criticality: 3}, {ID: "b"}, {ID: "c"},
	}, clock)
	cfg.Shards = 2
	cfg.Workers = 2
	cfg.BatchSize = 4
	cfg.Ledger = led
	cfg.JournalLayers = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}

	// a runs hot (mean 1 ≥ threshold), b and c stay quiet.
	for i := 0; i < 10; i++ {
		ti := float64(i)
		for _, ev := range []ingest.Event{
			sample("a", ti, 1), sample("b", ti, 0), sample("c", ti, 0),
		} {
			if err := f.Ingest(ctx, ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Set(10)
	f.EvaluateCycle()

	if got := f.Cycles(); got != 1 {
		t.Fatalf("cycles = %d, want 1", got)
	}
	for id, wantStatus := range map[string]string{"a": StatusWarning, "b": StatusOK, "c": StatusOK} {
		v, ok := f.TenantStatus(id)
		if !ok {
			t.Fatalf("tenant %q missing", id)
		}
		if v.Status != wantStatus {
			t.Errorf("tenant %q status = %q, want %q", id, v.Status, wantStatus)
		}
		if v.Events != 10 {
			t.Errorf("tenant %q events = %d, want 10", id, v.Events)
		}
		shard, ok := f.ShardOf(id)
		if !ok || shard != v.Shard {
			t.Errorf("tenant %q shard mismatch: ShardOf=%d view=%d", id, shard, v.Shard)
		}
	}
	// The scope cap is 2: a and b get dedicated journals, c folds.
	if va, _ := f.TenantStatus("a"); !va.DedicatedLedger {
		t.Error("tenant a should have a dedicated ledger scope")
	}
	if vc, _ := f.TenantStatus("c"); vc.DedicatedLedger {
		t.Error("tenant c should be folded into the overflow scope")
	}
	if led.Folded() != 1 {
		t.Errorf("folded = %d, want 1", led.Folded())
	}
	// Per cycle: combined journaled for all 3; per-layer (load scored,
	// not NaN) for the 2 dedicated tenants.
	if preds, _ := led.Totals(); preds != 5 {
		t.Errorf("journaled predictions = %d, want 5", preds)
	}

	// A failure on the most critical tenant drops weighted availability
	// to (1+1)/(3+1+1).
	if err := f.RecordFailure("a", 11); err != nil {
		t.Fatal(err)
	}
	clock.Set(20)
	if v, _ := f.TenantStatus("a"); v.Status != StatusFailed {
		t.Errorf("tenant a status after failure = %q, want failed", v.Status)
	}
	r := f.Rollup(clock.Now())
	if want := 0.4; math.Abs(r.WeightedAvailability-want) > 1e-12 {
		t.Errorf("weighted availability = %g, want %g", r.WeightedAvailability, want)
	}
	if r.ByStatus[StatusFailed] != 1 {
		t.Errorf("byStatus[failed] = %d, want 1", r.ByStatus[StatusFailed])
	}

	// /fleet endpoint: full listing, single-tenant view, status filter.
	h := f.Handler()
	var body fleetJSON
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/fleet", nil))
	if rec.Code != 200 {
		t.Fatalf("/fleet status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Tenants) != 3 || body.Rollup.Tenants != 3 {
		t.Fatalf("/fleet listed %d tenants, rollup %d, want 3", len(body.Tenants), body.Rollup.Tenants)
	}
	for _, v := range body.Tenants {
		if len(v.Versions) != 1 {
			t.Errorf("tenant %q versions = %v, want one layer", v.ID, v.Versions)
		}
		if v.Quality == nil {
			t.Errorf("tenant %q missing quality table", v.ID)
		}
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/fleet?tenant=b", nil))
	body = fleetJSON{}
	_ = json.Unmarshal(rec.Body.Bytes(), &body)
	if len(body.Tenants) != 1 || body.Tenants[0].ID != "b" {
		t.Fatalf("/fleet?tenant=b returned %+v", body.Tenants)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/fleet?tenant=zzz", nil))
	if rec.Code != 404 {
		t.Fatalf("/fleet?tenant=zzz status %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/fleet?status=failed", nil))
	body = fleetJSON{}
	_ = json.Unmarshal(rec.Body.Bytes(), &body)
	if len(body.Tenants) != 1 || body.Tenants[0].ID != "a" {
		t.Fatalf("/fleet?status=failed returned %+v", body.Tenants)
	}
	// /metrics carries the fleet plane, including eagerly-registered
	// per-shard series.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		"pfm_fleet_tenants 3",
		`pfm_fleet_shard_queue_depth{shard="0"} 0`,
		`pfm_fleet_shard_queue_depth{shard="1"} 0`,
		"pfm_fleet_weighted_availability 0.4",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if err := f.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("/healthz after Stop = %d, want 503", rec.Code)
	}
}

// TestFleetStatusTransitions: idle → ok → stale as the clock advances.
func TestFleetStatusTransitions(t *testing.T) {
	clock := newTestClock(0)
	cfg := testFleetConfig(specs("a"), clock)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Stop(context.Background()) }()

	if v, _ := f.TenantStatus("a"); v.Status != StatusIdle {
		t.Errorf("before events: status = %q, want idle", v.Status)
	}
	if err := f.Ingest(ctx, sample("a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Set(50)
	if v, _ := f.TenantStatus("a"); v.Status != StatusOK {
		t.Errorf("fresh events: status = %q, want ok", v.Status)
	}
	clock.Set(1000) // past staleAfter
	if v, _ := f.TenantStatus("a"); v.Status != StatusStale {
		t.Errorf("silent stream: status = %q, want stale", v.Status)
	}
}

// TestFleetEvalErrorsCounted: a scorer that fails is neither silent nor fatal.
// The tenant whose per-tenant score errors and every tenant of the chunk whose
// batch score errors abstain on that layer (no per-layer journal row), each
// abstention is one count on pfm_layer_eval_errors_total{layer}, a healthy
// cycle adds none, and the cycles complete with every combined decision
// journaled.
func TestFleetEvalErrorsCounted(t *testing.T) {
	clock := newTestClock(0)
	ids := []string{"a", "b", "c", "d"} // BatchSize 2: chunks [a b] and [c d]
	led, err := obs.NewScopedLedger(obs.LedgerConfig{LeadTime: 300, Slack: 60}, len(ids), "solo", "batch")
	if err != nil {
		t.Fatal(err)
	}
	var failing atomic.Bool
	failing.Store(true)
	cfg := testFleetConfig(specs(ids...), clock)
	cfg.Layers = []LayerTemplate{
		{Name: "solo", Threshold: 0.5, Score: func(st TenantState, _ float64) (float64, error) {
			if failing.Load() && st.(*tstate).id == "b" {
				return 0, fmt.Errorf("solo scorer: tenant b")
			}
			return 0.1, nil
		}},
		{Name: "batch", Threshold: 0.5, ScoreBatch: func(states []TenantState, _ float64, out []float64) error {
			for i, st := range states {
				if failing.Load() && st.(*tstate).id == "c" {
					return fmt.Errorf("batch scorer: chunk of tenant c")
				}
				out[i] = 0.1
			}
			return nil
		}},
	}
	cfg.BatchSize = 2
	cfg.Ledger = led
	cfg.JournalLayers = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Stop(context.Background()) }()

	// rows reads how many rows each layer has journaled per tenant (all still
	// pending: the clock stays inside the lead time).
	rows := func(layer string) map[string]int {
		got := map[string]int{}
		for _, id := range ids {
			for _, lq := range led.Scope(id).Snapshot().Layers {
				if lq.Layer == layer {
					got[id] = lq.Pending
				}
			}
		}
		return got
	}
	check := func(stage string, cycles int64, solo, batch map[string]int) {
		t.Helper()
		if got := f.Cycles(); got != cycles {
			t.Fatalf("%s: %d cycles completed, want %d", stage, got, cycles)
		}
		rec := httptest.NewRecorder()
		f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		for _, want := range []string{
			`pfm_layer_eval_errors_total{layer="solo"} 1`,
			`pfm_layer_eval_errors_total{layer="batch"} 2`,
		} {
			if !strings.Contains(rec.Body.String(), want+"\n") {
				t.Errorf("%s: /metrics lacks %q", stage, want)
			}
		}
		for layer, want := range map[string]map[string]int{
			"solo": solo, "batch": batch,
			obs.CombinedLayer: {"a": int(cycles), "b": int(cycles), "c": int(cycles), "d": int(cycles)},
		} {
			if got := rows(layer); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: %s rows per tenant = %v, want %v", stage, layer, got, want)
			}
		}
	}
	clock.Set(10)
	f.EvaluateCycle()
	check("failing cycle", 1,
		map[string]int{"a": 1, "b": 0, "c": 1, "d": 1},
		map[string]int{"a": 1, "b": 1, "c": 0, "d": 0})
	failing.Store(false)
	clock.Set(20)
	f.EvaluateCycle()
	check("healthy cycle", 2,
		map[string]int{"a": 2, "b": 1, "c": 2, "d": 2},
		map[string]int{"a": 2, "b": 2, "c": 1, "d": 1})
}

// metricSeries lists the series a registry exposes, name and labels without
// the values (the Go heap gauges move from scrape to scrape).
func metricSeries(t *testing.T, reg *runtime.Registry) []string {
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

// TestFleetValidation rejects malformed configurations, and the one New
// accepts exposes every series once.
func TestFleetValidation(t *testing.T) {
	clock := newTestClock(0)
	base := func() Config { return testFleetConfig(specs("a", "b"), clock) }
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"no tenants", func(c *Config) { c.Tenants = nil }},
		{"no layers", func(c *Config) { c.Layers = nil }},
		{"nil apply", func(c *Config) { c.Apply = nil }},
		{"nil state", func(c *Config) { c.NewState = nil }},
		{"duplicate tenant", func(c *Config) { c.Tenants = specs("a", "a") }},
		{"empty tenant id", func(c *Config) { c.Tenants = specs("") }},
		{"pipe in tenant id", func(c *Config) { c.Tenants = specs("a|b") }},
		{"negative criticality", func(c *Config) { c.Tenants[0].Criticality = -1 }},
		{"scorerless layer", func(c *Config) { c.Layers = []LayerTemplate{{Name: "x"}} }},
		{"negative shards", func(c *Config) { c.Shards = -1 }},
		{"state error on the last tenant", func(c *Config) {
			c.NewState = func(s TenantSpec) (TenantState, error) {
				if s.ID == "b" {
					return nil, fmt.Errorf("no state for %s", s.ID)
				}
				return &tstate{id: s.ID}, nil
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mod(&cfg)
			_, err := New(cfg)
			if err == nil {
				t.Fatalf("New accepted %s", tc.name)
			}
			if dup := tc.name == "duplicate tenant"; errors.Is(err, ErrDuplicateTenant) != dup {
				t.Errorf("errors.Is(%v, ErrDuplicateTenant) = %t", err, !dup)
			}
		})
	}
	f, err := New(base())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range metricSeries(t, f.Metrics().Registry()) {
		if seen[s] {
			t.Errorf("series %s exposed twice", s)
		}
		seen[s] = true
	}
	if !seen["pfm_fleet_tenants"] || !seen[`pfm_layer_eval_errors_total{layer="load"}`] {
		t.Errorf("the accepted New registered too little: %v", seen)
	}
}

// TestFleetUnknownTenant: direct Ingest errors; Pump counts and skips.
func TestFleetUnknownTenant(t *testing.T) {
	clock := newTestClock(0)
	f, err := New(testFleetConfig(specs("a"), clock))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.Ingest(ctx, sample("ghost", 1, 0)); err == nil {
		t.Fatal("Ingest accepted an unknown tenant")
	}
	n, err := Pump(ctx, f, NewSliceSource([]ingest.Record{
		{Event: sample("a", 1, 0)},
		{Event: sample("ghost", 2, 0)}, // skipped, not fatal
		{Event: sample("a", 3, 0)},
	}))
	if err != nil || n != 3 {
		t.Fatalf("Pump = (%d, %v), want (3, nil)", n, err)
	}
	if err := f.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	if v, _ := f.TenantStatus("a"); v.Events != 2 {
		t.Errorf("tenant a events = %d, want 2", v.Events)
	}
	if err := f.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "pfm_fleet_unknown_tenant_total 2") {
		t.Error("/metrics missing unknown-tenant count 2")
	}
}

// TestFleetPerTenantOrdering: one tenant's events apply in ingest order
// even with many shards and concurrent producers for other tenants.
func TestFleetPerTenantOrdering(t *testing.T) {
	clock := newTestClock(0)
	const perTenant = 200
	ids := []string{"t0", "t1", "t2", "t3", "t4"}
	type ordered struct {
		mu   sync.Mutex
		seen []float64
	}
	orders := make(map[string]*ordered, len(ids))
	for _, id := range ids {
		orders[id] = &ordered{}
	}
	cfg := testFleetConfig(specs(ids...), clock)
	cfg.Shards = 4
	cfg.Apply = func(st TenantState, ev ingest.Event) error {
		o := orders[ev.Tenant]
		o.mu.Lock()
		o.seen = append(o.seen, ev.Time)
		o.mu.Unlock()
		return nil
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				if err := f.Ingest(ctx, sample(id, float64(i), 0)); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if err := f.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		o := orders[id]
		if len(o.seen) != perTenant {
			t.Fatalf("tenant %s applied %d of %d", id, len(o.seen), perTenant)
		}
		for i, ts := range o.seen {
			if ts != float64(i) {
				t.Fatalf("tenant %s out of order at %d: got %g", id, i, ts)
			}
		}
	}
}

// TestFleetStopDrains: Stop applies the full backlog before returning.
func TestFleetStopDrains(t *testing.T) {
	clock := newTestClock(0)
	cfg := testFleetConfig(specs("a", "b"), clock)
	cfg.QueueCapacity = 4096
	var applied atomic.Int64
	cfg.Apply = func(TenantState, ingest.Event) error {
		applied.Add(1)
		return nil
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	const total = 2000
	for i := 0; i < total; i++ {
		id := "a"
		if i%2 == 1 {
			id = "b"
		}
		if err := f.Ingest(ctx, sample(id, float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	stopCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := f.Stop(stopCtx); err != nil {
		t.Fatal(err)
	}
	if applied.Load() != total {
		t.Fatalf("applied %d of %d after Stop", applied.Load(), total)
	}
	if err := f.Ingest(ctx, sample("a", 0, 0)); err == nil {
		t.Fatal("Ingest accepted after Stop")
	}
	if f.Cycles() == 0 {
		t.Error("no final evaluation cycle ran on shutdown")
	}
}

// TestBarrierHeldBack: nothing is held back for a Barrier to wait on. A
// token bucket decides at admission, at the clock's reading: what it lets
// through is applied by the Barrier that follows, what it refuses is shed
// then and there as a ratelimited drop, and Stop finds nothing left.
func TestBarrierHeldBack(t *testing.T) {
	clock := newTestClock(0)
	cfg := testFleetConfig([]TenantSpec{{ID: "slow", RateLimit: 2}, {ID: "free"}}, clock)
	cfg.Shards = 1
	var mu sync.Mutex
	applied := map[string]int{}
	cfg.Apply = func(st TenantState, _ ingest.Event) error {
		mu.Lock()
		applied[st.(*tstate).id]++
		mu.Unlock()
		return nil
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	m := f.Metrics()
	check := func(when string, slow, free int) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if applied["slow"] != slow || applied["free"] != free {
			t.Fatalf("%s: applied %v, want slow %d free %d", when, applied, slow, free)
		}
		if shed := m.Ingested.Value() - int64(slow+free); m.DroppedRateLimited.Value() != shed || m.Dropped() != shed {
			t.Fatalf("%s: ratelimited %d of %d dropped, want every push the bucket refused (%d)",
				when, m.DroppedRateLimited.Value(), m.Dropped(), shed)
		}
	}
	// The bucket starts full at its burst of 2 and refills 2 a second, to
	// at most the burst; every round pushes ten events per tenant.
	free := 0
	for _, step := range []struct {
		clock float64
		slow  int
	}{{0, 2}, {0, 2}, {0.5, 3}, {10, 5}} {
		clock.Set(step.clock)
		for i := 0; i < 10; i++ {
			for _, id := range []string{"slow", "free"} {
				if err := f.Ingest(ctx, sample(id, step.clock, 0)); err != nil {
					t.Fatal(err)
				}
			}
		}
		free += 10
		if err := f.Barrier(ctx); err != nil {
			t.Fatalf("Barrier at %g: %v", step.clock, err)
		}
		check(fmt.Sprintf("after a Barrier at %g", step.clock), step.slow, free)
	}
	if err := f.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	check("after Stop", 5, 40)
}

// TestFleetRecorderIncidents drives the scoped flight recorder end to end:
// criticality-weighted warn gates, overflow folding past the scope cap, the
// /incidents plane, /fleet incident fields, and the liveness/readiness
// split across the fleet lifecycle.
func TestFleetRecorderIncidents(t *testing.T) {
	clock := newTestClock(0)
	srec, err := obs.NewScopedRecorder(obs.RecorderConfig{
		Layers:        []string{"load"},
		WarnThreshold: 0.8,
		Window:        50,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testFleetConfig([]TenantSpec{
		{ID: "a", Criticality: 4}, {ID: "b"}, {ID: "c"},
	}, clock)
	cfg.Recorder = srec
	// Confidence = the single layer's mean, so the warn gates are exact:
	// a's criticality-4 gate is 0.8/4 = 0.2, b keeps the template 0.8.
	cfg.NewCombiner = func(TenantSpec) core.Combiner {
		return func(s []float64) (float64, error) { return s[0], nil }
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}

	// a and b warn at 0.6 — only a's weighted gate escalates it into an
	// incident. c (folded onto the overflow recorder, template gate 0.8)
	// runs hot enough to pass the unweighted gate.
	for i := 0; i < 10; i++ {
		ti := float64(i)
		for _, ev := range []ingest.Event{
			sample("a", ti, 0.6), sample("b", ti, 0.6), sample("c", ti, 0.9),
		} {
			if err := f.Ingest(ctx, ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Set(10)
	f.EvaluateCycle() // act stage raises the warn triggers
	clock.Set(11)
	f.EvaluateCycle() // next cycle's exclusion assembles them

	if got := srec.Captured(obs.TriggerWarn); got != 2 {
		t.Fatalf("warn bundles = %d, want 2 (a + folded c)", got)
	}
	scopes := map[string]string{} // scope -> detail
	for _, b := range srec.Bundles() {
		if b.Trigger == obs.TriggerWarn {
			scopes[b.Scope] = b.Detail
		}
	}
	if scopes["a"] != "a" || scopes[obs.OverflowScope] != "c" {
		t.Fatalf("warn bundle scopes = %v, want a and overflow(c)", scopes)
	}
	if srec.Folded() != 1 {
		t.Fatalf("folded recorder tenants = %d, want 1", srec.Folded())
	}

	// /fleet rows carry the incident counts and fold flags.
	h := f.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/fleet", nil))
	var body fleetJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Rollup.Incidents < 2 || body.Rollup.FoldedRecorderTenants != 1 {
		t.Fatalf("rollup incidents = %+v", body.Rollup)
	}
	for _, v := range body.Tenants {
		if v.Incidents == nil {
			t.Fatalf("tenant %q missing incidents count", v.ID)
		}
		switch v.ID {
		case "a":
			if !v.DedicatedRecorder || *v.Incidents < 1 {
				t.Errorf("tenant a = dedicated %v incidents %d", v.DedicatedRecorder, *v.Incidents)
			}
		case "b":
			// b's 0.6 confidence stays under its unweighted 0.8 warn
			// gate (the scopes map above proves no warn bundle), though
			// the executed no-op countermeasure still records an act
			// bundle on its dedicated scope.
			if !v.DedicatedRecorder {
				t.Error("tenant b should have a dedicated recorder scope")
			}
		case "c":
			if v.DedicatedRecorder {
				t.Error("tenant c should fold onto the overflow recorder")
			}
		}
	}

	// /incidents: list, detail, and the 404 for unknown IDs.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/incidents", nil))
	var list []runtime.IncidentSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) < 2 {
		t.Fatalf("/incidents listed %d bundles, want >= 2", len(list))
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/incidents?id="+list[0].ID, nil))
	var full obs.IncidentBundle
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if full.ID != list[0].ID || len(full.Scores) == 0 {
		t.Fatalf("/incidents?id= returned %+v", full)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/incidents?id=nope", nil))
	if rec.Code != 404 {
		t.Fatalf("/incidents?id=nope status %d, want 404", rec.Code)
	}

	// Metric plane and the liveness/readiness split.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		`pfm_fleet_incidents_total{trigger="warn"} 2`,
		"pfm_fleet_recorder_folded 1",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/livez", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"pipeline":"ok"`) {
		t.Fatalf("/livez = %d %s", rec.Code, rec.Body.String())
	}

	if err := f.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), `"status":"stopped"`) {
		t.Fatalf("/readyz after Stop = %d %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/livez", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"pipeline":"stopped"`) {
		t.Fatalf("/livez after Stop = %d %s", rec.Code, rec.Body.String())
	}
}

// countingFleet starts a fleet of n tenants ("t0000"…) whose Apply only
// counts, with the queue shape the ingest contracts are stated for: 4096
// slots a tenant, Block. The fleet stops with the test.
func countingFleet(t *testing.T, n int, tracer *obs.Tracer) (f *Fleet, ids []string, applied *atomic.Int64) {
	t.Helper()
	ids = make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%04d", i)
	}
	applied = new(atomic.Int64)
	cfg := testFleetConfig(specs(ids...), newTestClock(0))
	cfg.Apply = func(TenantState, ingest.Event) error {
		applied.Add(1)
		return nil
	}
	cfg.QueueCapacity = 4096
	cfg.Overflow = runtime.Block
	cfg.Tracer = tracer
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Stop(context.Background()) })
	return f, ids, applied
}

// TestFleetIngestZeroAllocs holds multi-tenant ingest — tenant lookup,
// consistent-hash routing, the per-tenant queues, the DRR chunked drain, one
// Apply per event, span tracing on — to zero allocations per event at 1 and
// at 1000 tenants, through Ingest and through Pump over a SliceSource (whose
// tenant table is on Pump's stack). One run is a round-robin burst well
// inside every tenant's queue capacity, then a Barrier: no producer parks (a
// park allocates its wake channel, by design — Block is the slow path).
func TestFleetIngestZeroAllocs(t *testing.T) {
	const burst = 2048
	for _, tenants := range []int{1, 1000} {
		t.Run(fmt.Sprintf("tenants-%d", tenants), func(t *testing.T) {
			f, ids, applied := countingFleet(t, tenants, obs.NewTracer(256))
			ctx := context.Background()
			next := 0
			feed := func() {
				for i := 0; i < burst; i++ {
					if err := f.Ingest(ctx, sample(ids[next%tenants], float64(next), 1)); err != nil {
						t.Fatal(err)
					}
					next++
				}
				if err := f.Barrier(ctx); err != nil {
					t.Fatal(err)
				}
			}
			recs := make([]ingest.Record, burst)
			for i := range recs {
				recs[i] = ingest.Record{Event: sample(ids[i%tenants], float64(i), 1)}
			}
			src := NewSliceSource(recs)
			pump := func() {
				src.i = 0
				if n, err := Pump(ctx, f, src); err != nil || n != burst {
					t.Fatalf("Pump = (%d, %v), want (%d, nil)", n, err, burst)
				}
				next += burst
				if err := f.Barrier(ctx); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ { // tenant queues grow to their working size
				feed()
			}
			pump() // Pump's goroutine stack grows to hold the table
			if allocs := testing.AllocsPerRun(50, feed); allocs != 0 {
				t.Fatalf("Ingest→drain allocates %.1f objects per %d-event burst, want 0", allocs, burst)
			}
			if allocs := testing.AllocsPerRun(50, pump); allocs != 0 {
				t.Fatalf("Pump→drain allocates %.1f objects per %d-record burst, want 0", allocs, burst)
			}
			if got := applied.Load(); got != int64(next) {
				t.Fatalf("applied %d of %d", got, next)
			}
		})
	}
}
