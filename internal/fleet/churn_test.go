package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	stdruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// churnFingerprint replays the determinism trace through a fleet that is
// live-grown to the reference shape — starts at 2 shards with half the
// tenants, admits the rest via AddTenant, and resizes twice mid-replay —
// and returns the same observable digest fleetFingerprint produces.
func churnFingerprint(t *testing.T) string {
	t.Helper()
	ids := make([]string, 12)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%02d", i)
	}
	clock := newTestClock(0)
	led, err := obs.NewScopedLedger(obs.LedgerConfig{LeadTime: 300, Slack: 60}, 8, "load")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testFleetConfig(specs(ids[:6]...), clock)
	cfg.Shards = 2
	cfg.Workers = 4
	cfg.BatchSize = 8
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
	// Grow the membership live: the remaining tenants join one by one (in
	// the same order the reference fleet registered them, so ledger scope
	// order matches), then the shard count steps 2 → 3.
	for _, id := range ids[6:] {
		if err := f.AddTenant(TenantSpec{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Resize(3); err != nil {
		t.Fatal(err)
	}
	trace := deterministicTrace(ids, 60)
	half := len(trace) / 2
	if _, err := Pump(ctx, f, NewSliceSource(trace[:half])); err != nil {
		t.Fatal(err)
	}
	// Resize with the first half potentially still queued: the handoff
	// re-homes backlog without reordering any tenant's stream.
	if err := f.Resize(4); err != nil {
		t.Fatal(err)
	}
	if err := f.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Set(30)
	f.EvaluateCycle()
	if _, err := Pump(ctx, f, NewSliceSource(trace[half:])); err != nil {
		t.Fatal(err)
	}
	if err := f.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Set(60)
	f.EvaluateCycle()
	clock.Set(500)
	f.EvaluateCycle()
	if err := f.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if got := f.Shards(); got != 4 {
		t.Fatalf("final shards = %d, want 4", got)
	}
	if gen := f.Generation(); gen != 1+6+2 {
		t.Fatalf("generation = %d, want %d (6 adds + 2 resizes)", gen, 1+6+2)
	}
	return digestFleet(t, f, led, ids)
}

// TestFleetChurnParity: a fleet grown live — tenants admitted at runtime,
// shards resized mid-replay with queue handoff — replays the trace to the
// byte-identical ledger and /fleet quality state of a fleet constructed at
// the final shape, across GOMAXPROCS {1, 4}. This is the membership
// extension of TestFleetDeterministicAcrossShapes: generation swaps and
// handoffs must be invisible to every observable outcome.
func TestFleetChurnParity(t *testing.T) {
	ref := fleetFingerprint(t, 4, 4, 8, false)
	old := stdruntime.GOMAXPROCS(0)
	defer stdruntime.GOMAXPROCS(old)
	for _, procs := range []int{1, 4} {
		stdruntime.GOMAXPROCS(procs)
		if got := churnFingerprint(t); got != ref {
			t.Errorf("GOMAXPROCS=%d churn fleet diverged:\n--- ref ---\n%s--- got ---\n%s",
				procs, ref, got)
		}
	}
}

// TestFleetResizeHandoffBacklog: resizing with queued backlog re-homes the
// moved tenants' items (counted on pfm_fleet_handoff_total), preserves the
// total queue depth, and the re-homed backlog still applies — counters
// conserved. The fleet is not started until after the resize, so the
// backlog is deterministic.
func TestFleetResizeHandoffBacklog(t *testing.T) {
	ids := make([]string, 20)
	for i := range ids {
		ids[i] = fmt.Sprintf("h%02d", i)
	}
	clock := newTestClock(0)
	cfg := testFleetConfig(specs(ids...), clock)
	cfg.Shards = 2
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const perTenant = 7
	for i := 0; i < perTenant; i++ {
		for _, id := range ids {
			if err := f.Ingest(ctx, sample(id, float64(i), 0.1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := perTenant * len(ids)
	if got := f.QueueDepth(); got != total {
		t.Fatalf("pre-resize depth = %d, want %d", got, total)
	}
	before := make(map[string]int, len(ids))
	for _, id := range ids {
		s, ok := f.ShardOf(id)
		if !ok {
			t.Fatalf("tenant %s missing before resize", id)
		}
		before[id] = s
	}
	if err := f.Resize(5); err != nil {
		t.Fatal(err)
	}
	wantMovedTenants := 0
	for _, id := range ids {
		s, ok := f.ShardOf(id)
		if !ok {
			t.Fatalf("tenant %s missing after resize", id)
		}
		if s != before[id] {
			wantMovedTenants++
		}
	}
	if wantMovedTenants == 0 {
		t.Fatal("resize 2 → 5 moved no tenants; test exercises nothing")
	}
	if got := f.handoffN.Value(); got != int64(wantMovedTenants*perTenant) {
		t.Errorf("handoff total = %d, want %d (%d moved tenants × %d queued)",
			got, wantMovedTenants*perTenant, wantMovedTenants, perTenant)
	}
	if got := f.QueueDepth(); got != total {
		t.Errorf("post-resize depth = %d, want %d (handoff must not lose items)", got, total)
	}
	// Now start; the re-homed backlog must drain through Apply.
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	m := f.Metrics()
	if m.Applied.Value() != int64(total) || m.Ingested.Value() != int64(total) {
		t.Errorf("ingested=%d applied=%d, want both %d",
			m.Ingested.Value(), m.Applied.Value(), total)
	}
	for _, id := range ids {
		v, ok := f.TenantStatus(id)
		if !ok || v.Events != perTenant {
			t.Errorf("tenant %s applied %d events, want %d", id, v.Events, perTenant)
		}
	}
}

// TestFleetRemoveTenantRelease: removing a tenant sheds its backlog
// (counted dropped), rejects further ingest as unknown, drops it from
// /fleet and the ledger scope list, frees its dedicated-scope slot for a
// future tenant, and keeps ledger totals monotonic — no ghost rows.
func TestFleetRemoveTenantRelease(t *testing.T) {
	clock := newTestClock(0)
	led, err := obs.NewScopedLedger(obs.LedgerConfig{LeadTime: 300, Slack: 60}, 2, "load")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testFleetConfig(specs("a", "b"), clock)
	cfg.Shards = 1
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
	for i := 0; i < 5; i++ {
		if err := f.Ingest(ctx, sample("a", float64(i), 1)); err != nil {
			t.Fatal(err)
		}
		if err := f.Ingest(ctx, sample("b", float64(i), 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Set(10)
	f.EvaluateCycle()
	predsBefore, _ := led.Totals()
	if predsBefore == 0 {
		t.Fatal("expected journaled predictions before removal")
	}

	if err := f.RemoveTenant("a"); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveTenant("a"); err == nil {
		t.Error("second RemoveTenant should fail")
	}
	if _, ok := f.TenantStatus("a"); ok {
		t.Error("removed tenant still visible in TenantStatus")
	}
	if err := f.Ingest(ctx, sample("a", 11, 1)); err == nil {
		t.Error("ingest for removed tenant should fail")
	}
	for _, sc := range led.Scopes() {
		if sc == "a" {
			t.Error("removed tenant still listed in ledger scopes")
		}
	}
	if preds, _ := led.Totals(); preds < predsBefore {
		t.Errorf("ledger totals went backwards after release: %d < %d", preds, predsBefore)
	}
	// /fleet must not list the ghost.
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Tenants []TenantView `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(body.Tenants) != 1 || body.Tenants[0].ID != "b" {
		t.Errorf("/fleet tenants = %+v, want just b", body.Tenants)
	}
	// The freed dedicated slot is reusable: a new tenant gets its own scope
	// (with cap 2 and b still registered, c only fits because a's slot was
	// released).
	if err := f.AddTenant(TenantSpec{ID: "c"}); err != nil {
		t.Fatal(err)
	}
	if !led.Dedicated("c") {
		t.Error("new tenant c should reuse the released dedicated ledger slot")
	}
	if err := f.Ingest(ctx, sample("c", 12, 0.2)); err != nil {
		t.Fatal(err)
	}
	if err := f.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	m := f.Metrics()
	if in, out := m.Ingested.Value(), m.Applied.Value()+m.Dropped(); in != out {
		t.Errorf("counters not conserved: ingested %d != applied+dropped %d", in, out)
	}
}

// TestFleetAdminValidation: admin operations reject bad input without
// disturbing the running fleet.
func TestFleetAdminValidation(t *testing.T) {
	clock := newTestClock(0)
	f, err := New(testFleetConfig(specs("a"), clock))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddTenant(TenantSpec{ID: "a"}); err == nil {
		t.Error("duplicate AddTenant should fail")
	}
	if err := f.AddTenant(TenantSpec{ID: "x|y"}); err == nil {
		t.Error("AddTenant with separator in ID should fail")
	}
	if err := f.AddTenant(TenantSpec{ID: "r", RateLimit: -1}); err == nil {
		t.Error("negative rate limit should fail")
	}
	if err := f.RemoveTenant("nope"); err == nil {
		t.Error("RemoveTenant of unknown tenant should fail")
	}
	if err := f.Resize(0); err == nil {
		t.Error("Resize(0) should fail")
	}
	if err := f.Resize(f.Shards()); err != nil {
		t.Errorf("no-op resize should succeed: %v", err)
	}
	if _, ok := f.TenantStatus("a"); !ok {
		t.Error("tenant a lost after rejected admin calls")
	}
}

// TestFleetChurnUnderLoad exercises the full elastic surface concurrently —
// ingest at full rate, tenants added and removed, shards resized up and
// down, the HTTP plane polled — and checks the conservation invariant at
// the end: every ingested event was applied, dropped, or shed, and /fleet
// never returned a 5xx. Run with -race this is the membership-churn safety
// net.
func TestFleetChurnUnderLoad(t *testing.T) {
	ids := make([]string, 24)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%02d", i)
	}
	clock := newTestClock(0)
	cfg := testFleetConfig(specs(ids...), clock)
	cfg.Shards = 3
	cfg.Workers = 4
	cfg.QueueCapacity = 64
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Producers: full-rate ingest over a moving tenant set (removed tenants
	// are rejected as unknown — that's fine, the pump must not stall).
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[rng.Intn(len(ids))]
				_ = f.Ingest(ctx, sample(id, float64(i), rng.Float64()))
			}
		}(int64(p))
	}
	// Churner: add/remove a rotating set of scratch tenants and resize.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sizes := []int{4, 2, 5, 3}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("x%02d", i%8)
			if err := f.AddTenant(TenantSpec{ID: id, RateLimit: 50}); err != nil {
				t.Errorf("AddTenant(%s): %v", id, err)
				return
			}
			_ = f.Ingest(ctx, sample(id, float64(i), 0.5))
			if err := f.Resize(sizes[i%len(sizes)]); err != nil {
				t.Errorf("Resize: %v", err)
				return
			}
			if err := f.RemoveTenant(id); err != nil {
				t.Errorf("RemoveTenant(%s): %v", id, err)
				return
			}
			clock.Set(float64(i))
			f.EvaluateCycle()
		}
	}()
	// Poller: the HTTP plane must never 500 mid-churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := srv.Client()
		paths := []string{"/fleet", "/fleet?tenant=c00", "/healthz", "/metrics"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := client.Get(srv.URL + paths[i%len(paths)])
			if err != nil {
				return // server closing
			}
			if resp.StatusCode >= 500 {
				t.Errorf("%s returned %d during churn", paths[i%len(paths)], resp.StatusCode)
			}
			resp.Body.Close()
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := f.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	m := f.Metrics()
	in := m.Ingested.Value()
	if out := m.Applied.Value() + m.Dropped(); in != out {
		t.Errorf("counters not conserved after churn: ingested %d != applied+dropped %d (applied=%d removed=%d)",
			in, out, m.Applied.Value(), m.DroppedRemoved.Value())
	}
	if in == 0 {
		t.Error("no events ingested; churn test exercised nothing")
	}
}

// TestFleetAdminHTTP drives the admin plane end to end: POST /fleet/tenants
// admits a tenant that immediately accepts ingest, DELETE retires it, POST
// /fleet/resize changes the shard count, and error paths map to 4xx.
func TestFleetAdminHTTP(t *testing.T) {
	clock := newTestClock(0)
	f, err := New(testFleetConfig(specs("a"), clock))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	client := srv.Client()

	post := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		f.Handler().ServeHTTP(rec, req)
		return rec
	}
	if rec := post("/fleet/tenants", `{"id":"web","criticality":2,"rateLimit":100}`); rec.Code != 201 {
		t.Fatalf("POST /fleet/tenants = %d: %s", rec.Code, rec.Body)
	}
	if rec := post("/fleet/tenants", `{"id":"web"}`); rec.Code != 409 {
		t.Errorf("duplicate POST = %d, want 409", rec.Code)
	}
	if rec := post("/fleet/tenants", `{"id":""}`); rec.Code != 400 {
		t.Errorf("empty-id POST = %d, want 400", rec.Code)
	}
	// The status follows the error's identity, not its text: an invalid spec
	// is a 400 whatever its ID spells.
	if rec := post("/fleet/tenants", `{"id":"duplicate-of-web","criticality":-1}`); rec.Code != 400 {
		t.Errorf("invalid-criticality POST for an ID containing \"duplicate\" = %d, want 400", rec.Code)
	}
	if err := f.Ingest(ctx, sample("web", 1, 0.5)); err != nil {
		t.Fatalf("ingest for admitted tenant: %v", err)
	}
	if rec := post("/fleet/resize", `{"shards":4}`); rec.Code != 200 {
		t.Errorf("POST /fleet/resize = %d: %s", rec.Code, rec.Body)
	} else if f.Shards() != 4 {
		t.Errorf("shards after resize = %d, want 4", f.Shards())
	}
	if rec := post("/fleet/resize", `{"shards":0}`); rec.Code != 400 {
		t.Errorf("bad resize = %d, want 400", rec.Code)
	}

	req := httptest.NewRequest("DELETE", "/fleet/tenants/web", nil)
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Errorf("DELETE = %d: %s", rec.Code, rec.Body)
	}
	req = httptest.NewRequest("DELETE", "/fleet/tenants/web", nil)
	rec = httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, req)
	if rec.Code != 404 {
		t.Errorf("second DELETE = %d, want 404", rec.Code)
	}
	resp, err := client.Get(srv.URL + "/fleet?tenant=web")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("GET removed tenant = %d, want 404", resp.StatusCode)
	}
	if err := f.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}
