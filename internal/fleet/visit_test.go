package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
)

// TestSwapReachesOneTenant: a predictor swap on one tenant's layer reaches
// that tenant's next decision, quiet or warning, and no other tenant's; a
// swap on a layer outside the fleet moves no tenant's versions. Every tenant
// has an engine observer, so every decision is seen, the quiet ones
// included.
func TestSwapReachesOneTenant(t *testing.T) {
	const n = 40
	f, clock, _, states := pokedFleet(t, n, 8, nil)
	var mu sync.Mutex
	seen := make([][]uint64, n) // per tenant: the last decision's versions
	tenants := f.mem.Load().tenants
	for i, tn := range tenants {
		tn.seat.Engine.SetCycleObserver(func(_ float64, _ []float64, d core.Decision) {
			mu.Lock()
			seen[i] = d.LayerVersions
			mu.Unlock()
		})
		if i%3 == 0 {
			states[tn.spec.ID].sum = 1 // warns every cycle; the rest stay quiet
		}
	}
	at := 0.0
	check := func(stage string, bumped ...int) {
		t.Helper()
		at += 60
		clock.Set(at)
		for i := range seen {
			seen[i] = nil
		}
		f.EvaluateCycle()
		for i, tn := range tenants {
			want := uint64(1)
			for _, b := range bumped {
				if i == b {
					want = 2
				}
			}
			if got := seen[i]; len(got) != 1 || got[0] != want {
				t.Fatalf("%s: %s decided on versions %v, want [%d]", stage, tn.spec.ID, got, want)
			}
			if v, _ := f.TenantStatus(tn.spec.ID); v.Versions[0] != want {
				t.Fatalf("%s: /fleet shows %s at versions %v, want [%d]", stage, tn.spec.ID, v.Versions, want)
			}
		}
	}
	swap := func(l *core.Layer) {
		l.SwapPredictor(core.PredictorFunc(func(float64) (float64, error) { return 0, nil }))
	}
	check("before any swap")
	swap(tenants[7].seat.Tail.Layers[0]) // a quiet tenant
	check("after a swap on t0007", 7)
	swap(tenants[9].seat.Tail.Layers[0]) // a warning one
	check("after a swap on t0009", 7, 9)
	outside := &core.Layer{Name: "load", Threshold: 1,
		Predictor: core.PredictorFunc(func(float64) (float64, error) { return 0, nil })}
	swap(outside)
	check("after a swap outside the fleet", 7, 9)
}

// TestFleetRowsMatchFullActPath: the act stage that counts votes from the
// score matrix and settles quiet tenants nobody reads leaves every /fleet
// row (warnings, actions, confidence, status, quality, incidents), every
// ledger scope and the cycle counters exactly where the path that decides
// every tenant with DecideOn on its row (engines with a combiner) leaves
// them — on a fleet with
// dedicated and folded ledger scopes, without and with scoped recorders
// (dedicated and folded), without and with an act budget. The rows also
// hash to what the same scenario produced before the act stage settled
// tenants (recorded digests).
func TestFleetRowsMatchFullActPath(t *testing.T) {
	for _, c := range []struct {
		recorder bool
		budget   int
		digest   uint64
	}{
		{false, 0, 0x1fb3aeb708d2835e},
		{false, 3, 0x867a624888ad84fc},
		{true, 0, 0x7d78df126746d2ec},
		{true, 3, 0x1797127677d883e0},
	} {
		name := fmt.Sprintf("recorder=%v/budget=%d", c.recorder, c.budget)
		fast := actRows(t, c.recorder, c.budget, false)
		full := actRows(t, c.recorder, c.budget, true)
		if fast != full {
			fl, ul := strings.Split(fast, "\n"), strings.Split(full, "\n")
			for i := range fl {
				if i >= len(ul) || fl[i] != ul[i] {
					t.Fatalf("%s: line %d differs\n fast %s\n full %s", name, i, fl[i], ul[min(i, len(ul)-1)])
				}
			}
			t.Fatalf("%s: the full path has %d more lines", name, len(ul)-len(fl))
		}
		h := fnv.New64a()
		h.Write([]byte(fast))
		if got := h.Sum64(); got != c.digest {
			t.Errorf("%s: rows hash to %#x, recorded %#x", name, got, c.digest)
		}
	}
}

// actRows runs a 60-tenant fleet (8 dedicated ledger scopes, two layers, a
// guard of one action in 600 s, confidences 0, ½ and 1 against a warn
// threshold of ¾; 103 warnings, 60 actions, 43 suppressed without a budget)
// through 12 cycles and renders what it shows: every /fleet row, every
// ledger scope and the cycle counters. fullPath gives every tenant an engine
// whose combiner computes the same vote share (no layer abstains here, so a
// combiner's input is the scores themselves), which the cycle sends through
// DecideOn on its row, with nothing settled.
func actRows(t *testing.T, recorder bool, budget int, fullPath bool) string {
	t.Helper()
	const n, cycles = 60, 12
	f, clock, led, states := pokedFleet(t, n, 8, func(c *Config) {
		c.Workers, c.BatchSize, c.ActBudget = 2, 7, budget
		c.Layers = append(c.Layers, LayerTemplate{Name: "errors", Threshold: 0.5,
			ScoreBatch: func(states []TenantState, _ float64, out []float64) error {
				for i, st := range states {
					out[i] = float64(st.(*tstate).errs % 2)
				}
				return nil
			}})
		c.Engine.WarnThreshold = 0.75
		c.Engine.OscillationWindow, c.Engine.MaxActionsPerWindow = 600, 1
		c.Tenants[5].Criticality, c.Tenants[40].Criticality = 3, 2
		if recorder {
			rec, err := obs.NewScopedRecorder(obs.RecorderConfig{
				Layers: []string{"load", "errors"}, WarnThreshold: 0.8, Window: 120,
			}, 16)
			if err != nil {
				t.Fatal(err)
			}
			c.Recorder = rec
		}
	})
	var combined atomic.Int64
	if fullPath {
		var errs []error
		f.cycle.Between(func() {
			for _, tn := range f.mem.Load().tenants {
				layers := tn.seat.Tail.Layers
				share := func(in []float64) (float64, error) {
					combined.Add(1)
					votes := 0
					for i, l := range layers {
						if in[i] >= l.Threshold {
							votes++
						}
					}
					return core.VoteShare(votes, len(layers), len(layers)), nil
				}
				sel, acts, err := f.tenantActions(tn.spec)
				if err == nil {
					tn.seat.Engine, err = core.New(nil, layers, share, sel, acts, nil, f.cfg.Engine)
				}
				errs = append(errs, err)
			}
		})
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%04d", i)
		// One error event each, so that every tenant has a status.
		if err := f.Ingest(context.Background(), ingest.Event{Tenant: ids[i], Kind: ingest.KindError, Time: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for cycle := 1; cycle <= cycles; cycle++ {
		now := float64(60 * cycle)
		for i, id := range ids {
			st := states[id]
			st.sum = float64((i*5 + cycle*3) % 7 / 4) // 1 on three residues of seven
			st.errs = int64((i + cycle) % 3)          // votes on odd counts
			if (i*3+cycle)%11 == 0 {
				if err := f.RecordFailure(id, now-30); err != nil {
					t.Fatal(err)
				}
			}
		}
		clock.Set(now)
		f.EvaluateCycle()
		for _, id := range ids {
			v, _ := f.TenantStatus(id)
			row, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%d %s\n", cycle, row)
		}
	}
	for _, scope := range led.Scopes() {
		fmt.Fprintf(&b, "%s %+v\n", scope, led.Scope(scope).Snapshot())
	}
	if fullPath && combined.Load() != n*cycles {
		t.Fatalf("the combiners ran %d times, want %d: not every decision went through DecideOn", combined.Load(), n*cycles)
	}
	m := f.Metrics()
	fmt.Fprintf(&b, "warnings=%d actions=%d suppressed=%d deferred=%d\n",
		m.Warnings.Value(), m.Actions.Value(), m.Suppressed.Value(), f.actDeferred.Value())
	return b.String()
}

// TestBurnRateReadsThisCyclesAdvance pins when a dedicated scope's burn-rate
// trigger fires: its tail journals the cycle's rows and advances the scope's
// watermark before its recorder observes the cycle — the single-tenant
// runtime's order (rows, Advance, Recorder) — so the trigger fires at the
// first cycle after which the scope's quality, resolved up to that cycle,
// is below the floor over at least 10 resolved predictions (obs's
// burnRateMinResolved). The tenant warns every cycle and never fails: each
// prediction resolves a false positive once LeadTime+Slack have passed.
func TestBurnRateReadsThisCyclesAdvance(t *testing.T) {
	const floor, minResolved = 0.5, 10
	rec, err := obs.NewScopedRecorder(obs.RecorderConfig{Layers: []string{"load"}, BurnRateFloor: floor}, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, clock, led, states := pokedFleet(t, 2, 2, func(c *Config) { c.Recorder = rec })
	states["t0000"].sum = 1
	want := -1.0
	for now := 10.0; now <= 600; now += 10 {
		clock.Set(now)
		f.EvaluateCycle()
		q := led.Scope("t0000").Quality(obs.CombinedLayer)
		if want < 0 && q.TP+q.FP+q.TN+q.FN >= minResolved && q.FMeasure() < floor {
			want = now
		}
	}
	if want < 0 {
		t.Fatal("the scope's quality never fell below the floor")
	}
	rec.Flush()
	var fired []float64
	for _, b := range rec.Bundles() {
		if b.Trigger == obs.TriggerBurnRate && b.Scope == "t0000" {
			fired = append(fired, b.Time)
		}
	}
	if len(fired) != 1 || fired[0] != want {
		t.Fatalf("burn-rate triggers at %v, want one at %g", fired, want)
	}
}
