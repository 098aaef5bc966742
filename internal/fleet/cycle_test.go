package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	stdruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// pokedFleet builds a started fleet over n tenants t0000… whose meanScore
// state the test sets directly between cycles (nothing is ingested), with a
// scoped ledger capped at scopes dedicated journals.
func pokedFleet(t testing.TB, n, scopes int, edit func(*Config)) (*Fleet, *testClock, *obs.ScopedLedger, map[string]*tstate) {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%04d", i)
	}
	clock := newTestClock(0)
	led, err := obs.NewScopedLedger(obs.LedgerConfig{LeadTime: 120, Slack: 60, Window: 600}, scopes, "load")
	if err != nil {
		t.Fatal(err)
	}
	states := make(map[string]*tstate, n)
	cfg := testFleetConfig(specs(ids...), clock)
	cfg.NewState = func(s TenantSpec) (TenantState, error) {
		st := &tstate{id: s.ID, n: 1}
		states[s.ID] = st
		return st, nil
	}
	cfg.Ledger = led
	cfg.JournalLayers = true
	if edit != nil {
		edit(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Stop(context.Background()) })
	return f, clock, led, states
}

// TestFoldedJournalMatchesPerTenantRows: the one bucket a cycle's serial tail
// journals for the tenants folded past the scope cap leaves the overflow
// journal exactly where one row per folded tenant per cycle leaves an oracle
// ledger — across worker and batch shapes, with and without an act budget,
// and while tenants come and go: a folded tenant removed mid-run stops
// contributing, and a tenant admitted into a freed dedicated slot journals
// into its own scope, not the overflow.
func TestFoldedJournalMatchesPerTenantRows(t *testing.T) {
	const tenants, scopes, cycles = 200, 8, 14
	warns := func(i, cycle int) bool { return (i*7+cycle*3)%5 == 0 }
	fails := func(i, cycle int) bool { return (i+cycle)%37 == 0 }
	for _, workers := range []int{1, 2, 4} {
		for _, batch := range []int{1, 7, 64} {
			for _, budget := range []int{0, 3} {
				name := fmt.Sprintf("workers%d/batch%d/budget%d", workers, batch, budget)
				f, clock, led, states := pokedFleet(t, tenants, scopes, func(c *Config) {
					c.Workers, c.BatchSize, c.ActBudget = workers, batch, budget
				})
				oracle, err := obs.NewLedger(led.Config(), "load")
				if err != nil {
					t.Fatal(err)
				}
				removed := map[string]bool{}
				for cycle := 1; cycle <= cycles; cycle++ {
					now := float64(60 * cycle)
					switch cycle {
					case 5: // a folded tenant leaves
						if err := f.RemoveTenant("t0100"); err != nil {
							t.Fatal(err)
						}
						removed["t0100"] = true
					case 8: // a dedicated tenant leaves; the newcomer takes its slot
						if err := f.RemoveTenant("t0003"); err != nil {
							t.Fatal(err)
						}
						removed["t0003"] = true
						if err := f.AddTenant(TenantSpec{ID: "tnew"}); err != nil {
							t.Fatal(err)
						}
						if !led.Dedicated("tnew") {
							t.Fatalf("%s: tnew did not take the freed dedicated slot", name)
						}
						states["tnew"].sum = 1 // warns every cycle, into its own scope
					}
					for i := 0; i < tenants; i++ {
						id := fmt.Sprintf("t%04d", i)
						if removed[id] {
							continue
						}
						states[id].sum = 0
						if warns(i, cycle) {
							states[id].sum = 1
						}
						if fails(i, cycle) {
							if err := f.RecordFailure(id, now-1); err != nil {
								t.Fatal(err)
							}
						}
						if i >= scopes { // folded: the oracle gets the row itself
							if fails(i, cycle) {
								oracle.RecordFailure(now - 1)
							}
							oracle.RecordPrediction(obs.CombinedLayer, now, warns(i, cycle), 0)
						}
					}
					clock.Set(now)
					f.EvaluateCycle()
					oracle.Advance(now)
					got, want := led.Scope(obs.OverflowScope).Snapshot(), oracle.Snapshot()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s cycle %d: overflow journal\n got %+v\nwant %+v", name, cycle, got, want)
					}
				}
				// Rows per cycle in a dedicated scope: its layer row and its
				// combined row.
				if got, want := led.Scope("tnew").Snapshot().Predictions, int64(2*(cycles-7)); got != want {
					t.Fatalf("%s: tnew journaled %d rows in its own scope, want %d", name, got, want)
				}
				if got, want := led.Scope("t0000").Snapshot().Predictions, int64(2*cycles); got != want {
					t.Fatalf("%s: t0000 journaled %d rows in its own scope, want %d", name, got, want)
				}
			}
		}
	}

	// Nobody folded: the serial tail has nothing to count and must not bring
	// an overflow journal into being.
	f, clock, led, _ := pokedFleet(t, 5, scopes, nil)
	for cycle := 1; cycle <= 3; cycle++ {
		clock.Set(float64(60 * cycle))
		f.EvaluateCycle()
	}
	if got := led.Scopes(); len(got) != 5 || got[len(got)-1] == obs.OverflowScope {
		t.Fatalf("scopes with nobody folded = %v", got)
	}
}

// TestScoreFanOutOverlapsRanges: the scoring fan-out's unit is a
// BatchSize-tenant range. Two ranges on two workers run at once — a
// per-tenant scorer whose first tenant of each range waits for the other
// range to have started never times out — and a failing batch scorer abstains
// exactly the range it was handed, counted per row.
func TestScoreFanOutOverlapsRanges(t *testing.T) {
	const batch = 8
	index := func(st TenantState) int {
		var i int
		fmt.Sscanf(st.(*tstate).id, "t%d", &i)
		return i
	}

	var started [2]chan struct{}
	var armed, timedOut atomic.Bool // armed: off again for Stop's final cycle
	f, clock, _, _ := pokedFleet(t, 2*batch, 2*batch, func(c *Config) {
		c.Workers, c.BatchSize = 2, batch
		c.Layers[0].Score = func(st TenantState, _ float64) (float64, error) {
			if i := index(st); i%batch == 0 && armed.Load() {
				r := i / batch
				close(started[r])
				select {
				case <-started[1-r]:
				case <-time.After(5 * time.Second):
					timedOut.Store(true)
				}
			}
			return 0, nil
		}
	})
	armed.Store(true)
	for round := 0; round < 20; round++ {
		started = [2]chan struct{}{make(chan struct{}), make(chan struct{})}
		clock.Set(float64(round + 1))
		f.EvaluateCycle()
		if timedOut.Load() {
			t.Fatalf("round %d: the two scoring ranges did not overlap", round)
		}
	}
	armed.Store(false)

	var mu sync.Mutex
	var sizes []int
	boom := errors.New("batch scorer down")
	const tenants = 2*batch + 3
	f, clock, _, _ = pokedFleet(t, tenants, tenants, func(c *Config) {
		c.Workers, c.BatchSize = 2, batch
		c.Layers[0].Score = nil
		c.Layers[0].ScoreBatch = func(states []TenantState, _ float64, out []float64) error {
			mu.Lock()
			sizes = append(sizes, len(states))
			mu.Unlock()
			if index(states[0]) == batch {
				return boom
			}
			for i := range out {
				out[i] = 1
			}
			return nil
		}
	})
	clock.Set(1)
	f.EvaluateCycle()
	sort.Ints(sizes)
	if want := []int{3, batch, batch}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("batch scorer saw ranges of %v tenants, want %v", sizes, want)
	}
	if got := f.evalErrors[0].Value(); got != batch {
		t.Fatalf("pfm_layer_eval_errors_total = %d, want %d (one per abstained row)", got, batch)
	}
	for i := 0; i < tenants; i++ {
		v, _ := f.TenantStatus(fmt.Sprintf("t%04d", i))
		want := int64(1)
		if i/batch == 1 {
			want = 0 // the failed range abstains: no vote, no warning
		}
		if v.Warnings != want {
			t.Fatalf("tenant %d warned %d times, want %d", i, v.Warnings, want)
		}
	}
}

// cycleFleet is pfmd -fleet's cycle shape over n tenants: a per-tenant and a
// batch layer template, 64 ledger scopes with per-layer rows, a tracer, an
// oscillation guard, and a fifth of the fleet warning every cycle (acting or
// guard-suppressed). With recorder every tenant also has a flight recorder,
// as pfmd's default -incident-cap 32 gives it (64 dedicated scopes, the rest
// sharing the overflow recorder, the burn-rate trigger armed); without, it
// is pfmd at -incident-cap 0, which is also the pfmbench fleets' shape. It
// returns the fleet and a function that runs its next cycle, 60 domain
// seconds after the last.
func cycleFleet(t testing.TB, n int, recorder bool) (*Fleet, func()) {
	f, clock, _, states := pokedFleet(t, n, 64, func(c *Config) {
		c.Layers = append(c.Layers, LayerTemplate{Name: "errors", Threshold: 0.5,
			ScoreBatch: func(states []TenantState, _ float64, out []float64) error {
				for i, st := range states {
					out[i] = float64(st.(*tstate).errs)
				}
				return nil
			}})
		c.Tracer = obs.NewTracer(256)
		c.Engine.OscillationWindow = 1800
		c.Engine.MaxActionsPerWindow = 6
		if recorder {
			rec, err := obs.NewScopedRecorder(obs.RecorderConfig{Layers: []string{"load", "errors"},
				WarnThreshold: 0.5, BurnRateFloor: 0.1, MaxBundles: 32, Tracer: c.Tracer}, 64)
			if err != nil {
				t.Fatal(err)
			}
			c.Recorder = rec
		}
	})
	for i := 0; i < n; i += 5 {
		st := states[fmt.Sprintf("t%04d", i)]
		st.sum, st.errs = 1, 1
	}
	at := 0.0
	return f, func() {
		at += 60
		clock.Set(at)
		f.EvaluateCycle()
	}
}

// TestFleetCycleSteadyStateAllocs holds a 1000-tenant cycle (cycleFleet) to
// no allocation at all once ledger buckets and guard histories have reached
// their working size: the fan-out bodies are built once, the quiet tenants'
// decisions are settled in place, and the warning ones travel by value.
func TestFleetCycleSteadyStateAllocs(t *testing.T) {
	f, cycle := cycleFleet(t, 1000, false)
	for i := 0; i < 60; i++ { // ledger buckets and guard histories reach their working size
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("a steady-state cycle allocates %.1f objects, want 0", allocs)
	}
	if w := f.Metrics().Warnings.Value(); w != 200*(60+51) {
		t.Fatalf("warnings = %d, want %d (a fifth of the fleet every cycle)", w, 200*(60+51))
	}
}

// TestFleetFirstCyclesSteadyStateAllocs: a new fleet's first cycles — every
// engine's first decision, every acting engine's first commits until its
// guard history is full — allocate a fixed amount, not some per tenant: a
// 2000-tenant fleet's first ten cycles allocate no more than a 1000-tenant
// fleet's, give or take a few objects (the 64 ledger scopes' buckets grow
// alike in both). Engines share their initial layer versions and size their
// guard history once.
func TestFleetFirstCyclesSteadyStateAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under -race measure the detector")
	}
	firstCycles := func(n int) int64 {
		_, cycle := cycleFleet(t, n, false)
		var before, after stdruntime.MemStats
		stdruntime.GC() // a collection inside the window allocates for itself
		stdruntime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			cycle()
		}
		stdruntime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	small, large := firstCycles(1000), firstCycles(2000)
	if large-small > 16 {
		t.Fatalf("the first 10 cycles allocate %d objects over 2000 tenants and %d over 1000: %d more, want ≤ 16",
			large, small, large-small)
	}
}

// BenchmarkEvaluateCycle times one cycle of pfmd -fleet's shape
// (cycleFleet) over 1000 tenants, after the fleet's first 60 cycles, without
// a flight recorder (recorder=off: -incident-cap 0, the pfmbench fleets) and
// with one (recorder=on: pfmd's default):
//
//	go test -run '^$' -bench EvaluateCycle -benchmem ./internal/fleet/
func BenchmarkEvaluateCycle(b *testing.B) {
	for _, shape := range []struct {
		name     string
		recorder bool
	}{{"recorder=off", false}, {"recorder=on", true}} {
		b.Run(shape.name, func(b *testing.B) {
			_, cycle := cycleFleet(b, 1000, shape.recorder)
			for i := 0; i < 60; i++ {
				cycle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
