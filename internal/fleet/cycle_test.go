package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
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
// guard-suppressed). With recorder the fleet also has a scoped flight
// recorder, as pfmd's default -incident-cap 32 gives it: 64 dedicated scopes
// with the burn-rate trigger armed, and the rest folded into the overflow
// recorder, which observes their tallied cycle once; without, it is pfmd at
// -incident-cap 0, which is also the pfmbench fleets' shape. It returns the
// fleet and a function that runs its next cycle, 60 domain seconds after the
// last.
func cycleFleet(t testing.TB, n int, recorder bool) (*Fleet, func()) {
	f, cycle, _ := cycleFleetWith(t, n, recorder, nil)
	return f, cycle
}

// cycleFleetWith is cycleFleet with edit applied to the configuration last;
// it also returns the tenants' states.
func cycleFleetWith(t testing.TB, n int, recorder bool, edit func(*Config)) (*Fleet, func(), map[string]*tstate) {
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
		if edit != nil {
			edit(c)
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
	}, states
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

// TestFleetRecorderSteadyStateAllocs holds cycleFleet's shape with its
// flight recorder to no allocation a cycle once every capturing scope has
// used each of its 32 capture slots. The cycles measured reuse slots whose
// first capture held fewer score rows than the ring now does (the earliest
// ones, before the ring had filled): a slot's buffers take their full size
// on first use, so reusing one grows none. The folded tenants reach the
// overflow recorder through the cycle's fold, by value.
func TestFleetRecorderSteadyStateAllocs(t *testing.T) {
	f, cycle := cycleFleet(t, 1000, true)
	scopes := []string{obs.OverflowScope}
	for i := 0; i < 64; i++ {
		scopes = append(scopes, fmt.Sprintf("t%04d", i))
	}
	captured := func(scope string) (n int64) {
		for _, k := range obs.TriggerKinds {
			n += f.cfg.Recorder.Scope(scope, obs.RecorderScopeConfig{}).Captured(k)
		}
		return n
	}
	// A capturing scope fires warn once a refractory period (1200 s, 20
	// cycles) and act about once in 30.
	for warm := true; warm; {
		cycle()
		warm = false
		for _, scope := range scopes {
			if n := captured(scope); n > 0 && n < 32 || scope == obs.OverflowScope && n == 0 {
				warm = true
			}
		}
	}
	if captured("t0000") == 0 {
		t.Fatal("no dedicated scope captured")
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("a steady-state cycle with the recorder allocates %.1f objects, want 0", allocs)
	}
}

// TestOverflowRecorderDeterministic runs cycleFleet's shape with its
// recorder at Workers 1, 2 and 4, several runs each, and reads the overflow
// recorder's bundles. The folded warners each score a load of their own, 1 +
// i/10⁴ for tenant i, so a score row says whose it is. Every run captures
// the same bundle fingerprints, and they follow the seat-order rule: at each
// cycle the first folded tenant in seat order whose decision would fire warn
// (at the template's 0.5 gate) or act fires it, unless the kind is inside
// its refractory period (2 × the 600 s default window). Every score row of
// such a bundle is its tenant's, one a cycle, the last at its trigger.
func TestOverflowRecorderDeterministic(t *testing.T) {
	const n, cycles, runs, refractory = 1000, 200, 4, 1200.0
	load := func(i int) float64 { return 1 + float64(i)/1e4 }
	var want []string
	for _, workers := range []int{1, 2, 4} {
		for run := 0; run < runs; run++ {
			name := fmt.Sprintf("workers%d/run%d", workers, run)
			f, cycle, states := cycleFleetWith(t, n, true, func(c *Config) { c.Workers = workers })
			for i := 0; i < n; i += 5 {
				states[fmt.Sprintf("t%04d", i)].sum = load(i)
			}
			tenants := f.mem.Load().tenants
			warnings, actions := make([]int64, n), make([]int64, n)
			next := map[obs.TriggerKind]float64{obs.TriggerWarn: math.Inf(-1), obs.TriggerAct: math.Inf(-1)}
			var rule []string
			for c := 1; c <= cycles; c++ {
				cycle()
				at := float64(60 * c)
				first := map[obs.TriggerKind]string{}
				for i, tn := range tenants {
					w, a := tn.seat.Warnings.Load(), tn.seat.Actions.Load()
					if tn.seat.Tail.Fold.Recorder {
						conf := math.Float64frombits(tn.seat.LastConf.Load())
						if _, ok := first[obs.TriggerWarn]; !ok && w > warnings[i] && conf >= 0.5 {
							first[obs.TriggerWarn] = tn.spec.ID
						}
						if _, ok := first[obs.TriggerAct]; !ok && a > actions[i] {
							first[obs.TriggerAct] = tn.spec.ID
						}
					}
					warnings[i], actions[i] = w, a
				}
				for _, kind := range []obs.TriggerKind{obs.TriggerWarn, obs.TriggerAct} {
					if id, ok := first[kind]; ok && at >= next[kind] {
						rule = append(rule, fmt.Sprintf("%s@%g:%s", kind, at, id))
						next[kind] = at + refractory
					}
				}
			}
			f.cfg.Recorder.Flush()
			var got, fps []string
			for _, b := range f.cfg.Recorder.Bundles() {
				if b.Scope != obs.OverflowScope {
					continue
				}
				got = append(got, fmt.Sprintf("%s@%g:%s", b.Trigger, b.Time, b.Detail))
				fps = append(fps, b.Fingerprint())
				var i int
				if _, err := fmt.Sscanf(b.Detail, "t%d", &i); err != nil || len(b.Scores) == 0 || b.Scores[len(b.Scores)-1].Time != b.Time {
					t.Fatalf("%s: bundle %s@%g of %q holds %d score rows, the last not at its trigger",
						name, b.Trigger, b.Time, b.Detail, len(b.Scores))
				}
				for k, row := range b.Scores {
					if row.Scores[0] != load(i) || k > 0 && row.Time <= b.Scores[k-1].Time {
						t.Fatalf("%s: bundle %s@%g of %s: row %d at %g scores %v, not one of %s's cycles (load %g)",
							name, b.Trigger, b.Time, b.Detail, k, row.Time, row.Scores, b.Detail, load(i))
					}
				}
			}
			sort.Strings(got)
			sort.Strings(rule)
			if len(got) < 10 || !reflect.DeepEqual(got, rule) {
				t.Fatalf("%s: overflow bundles\n got %v\nwant %v (the seat-order rule)", name, got, rule)
			}
			if want == nil {
				want = fps
			} else if !reflect.DeepEqual(fps, want) {
				t.Fatalf("%s: overflow fingerprints differ from workers1/run0's\n got %v\nwant %v", name, fps, want)
			}
		}
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
