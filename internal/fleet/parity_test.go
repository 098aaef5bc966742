package fleet

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/act"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/runtime"
	"repro/internal/scp"
)

// pstate is the parity test's predictor-visible state: error times and the
// latest value of each SAR variable.
type pstate struct {
	errs []float64
	last map[string]float64
}

func newPState() *pstate { return &pstate{last: map[string]float64{}} }

func (s *pstate) apply(kind runtime.EventKind, t float64, variable string, value float64) {
	if kind == runtime.KindError {
		s.errs = append(s.errs, t)
		return
	}
	s.last[variable] = value
}

// The two layers both owners score with: errors in the last five minutes
// (votes at ten), and the latest CPU utilization (abstains before one).
var parityLayers = []struct {
	name      string
	threshold float64
	score     func(s *pstate, now float64) float64
}{
	{"errors", 1, func(s *pstate, now float64) float64 {
		n := len(s.errs) - sort.SearchFloat64s(s.errs, math.Nextafter(now-300, now))
		return float64(n) / 10
	}},
	{"cpu", 0.8, func(s *pstate, _ float64) float64 {
		if v, ok := s.last["cpu"]; ok {
			return v
		}
		return math.NaN()
	}},
}

// parityActions is one countermeasure set, built fresh for each engine.
func parityActions() (*act.Selector, []*act.Action, error) {
	sel, err := act.NewSelector(act.DefaultWeights())
	if err != nil {
		return nil, nil, err
	}
	a, err := act.New("restart", act.StateCleanup,
		act.Params{Cost: 0.1, SuccessProb: 0.9, Complexity: 0.1}, func() error { return nil })
	return sel, []*act.Action{a}, err
}

// TestRuntimeFleetParity ties the two owners of the cycle body together: a
// one-tenant Fleet and a Runtime over the same scoring functions, engine
// configuration and countermeasures, fed the same simulator trace and cycled
// at the same boundaries, end with identical per-layer and combined ledger
// tables and identical evaluation, warning, action and suppression counts.
func TestRuntimeFleetParity(t *testing.T) {
	m, err := scp.NewMulti(scp.MultiConfig{Tenants: 1, BaseSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(2 * 86400); err != nil {
		t.Fatal(err)
	}
	id := m.IDs()[0]
	recs := SCPRecords(m.Drain())
	engCfg := core.Config{EvalInterval: 60, LeadTime: 300, WarnThreshold: 0.5,
		OscillationWindow: 900, MaxActionsPerWindow: 2}
	ledCfg := obs.LedgerConfig{LeadTime: 300, Slack: 60, Window: 3600}
	names := []string{parityLayers[0].name, parityLayers[1].name}
	clock := newTestClock(0)
	ctx := context.Background()

	// The runtime.
	rst := newPState()
	layers := make([]*core.Layer, len(parityLayers))
	for i, pl := range parityLayers {
		score := pl.score
		layers[i] = &core.Layer{Name: pl.name, Threshold: pl.threshold,
			Predictor: core.PredictorFunc(func(now float64) (float64, error) { return score(rst, now), nil })}
	}
	sel, acts, err := parityActions()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(nil, layers, nil, sel, acts, nil, engCfg)
	if err != nil {
		t.Fatal(err)
	}
	rled, err := obs.NewLedger(ledCfg, names...)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := runtime.New(runtime.Config{
		Engine: eng, Ledger: rled, Clock: clock.Now,
		Apply: func(ev runtime.Event) error {
			rst.apply(ev.Kind, ev.Time, ev.Variable, ev.Value)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The fleet.
	fled, err := obs.NewScopedLedger(ledCfg, 1, names...)
	if err != nil {
		t.Fatal(err)
	}
	tmpls := make([]LayerTemplate, len(parityLayers))
	for i, pl := range parityLayers {
		score := pl.score
		tmpls[i] = LayerTemplate{Name: pl.name, Threshold: pl.threshold,
			Score: func(st TenantState, now float64) (float64, error) { return score(st.(*pstate), now), nil }}
	}
	f, err := New(Config{
		Tenants:  []TenantSpec{{ID: id, Criticality: 1}},
		Layers:   tmpls,
		NewState: func(TenantSpec) (TenantState, error) { return newPState(), nil },
		Apply: func(st TenantState, ev Event) error {
			st.(*pstate).apply(ev.Kind, ev.Time, ev.Variable, ev.Value)
			return nil
		},
		Engine:        engCfg,
		NewActions:    func(TenantSpec) (*act.Selector, []*act.Action, error) { return parityActions() },
		Clock:         clock.Now,
		Ledger:        fled,
		JournalLayers: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, start := range []func(context.Context) error{rt.Start, f.Start} {
		if err := start(ctx); err != nil {
			t.Fatal(err)
		}
	}
	defer rt.Stop(ctx)
	defer f.Stop(ctx)
	next, cycles := engCfg.EvalInterval, 0
	cycle := func() {
		if err := rt.Barrier(ctx); err != nil {
			t.Fatal(err)
		}
		if err := f.Barrier(ctx); err != nil {
			t.Fatal(err)
		}
		clock.Set(next)
		rt.CycleBatch([]float64{next})
		f.EvaluateCycle()
		next += engCfg.EvalInterval
		cycles++
	}
	for _, rec := range recs {
		for rec.Event.Time >= next {
			cycle()
		}
		ev := rec.Event
		if rec.Failure {
			rled.RecordFailure(ev.Time)
			if err := f.RecordFailure(id, ev.Time); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := rt.Ingest(ctx, runtime.Event{Kind: ev.Kind, Time: ev.Time, Error: ev.Error,
			Variable: ev.Variable, Value: ev.Value}); err != nil {
			t.Fatal(err)
		}
		if err := f.Ingest(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	cycle()

	want := rled.Snapshot()
	if got := fled.Scope(id).Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("ledger tables differ:\nfleet   %+v\nruntime %+v", got, want)
	}
	rm, fm := rt.Metrics(), f.Metrics()
	for _, c := range []struct {
		name    string
		rt, flt *runtime.Counter
	}{
		{"evaluations", rm.Evaluations, fm.Evaluations},
		{"warnings", rm.Warnings, fm.Warnings},
		{"actions", rm.Actions, fm.Actions},
		{"suppressed", rm.Suppressed, fm.Suppressed},
	} {
		if c.rt.Value() != c.flt.Value() {
			t.Errorf("%s: runtime %d, fleet %d", c.name, c.rt.Value(), c.flt.Value())
		}
	}
	// A parity that holds because nothing happened holds nothing.
	var combined predict.ContingencyTable
	for _, lq := range want.Layers {
		if lq.Layer == obs.CombinedLayer {
			combined = lq.Cumulative
		}
	}
	if rm.Evaluations.Value() != int64(cycles) || rm.Actions.Value() == 0 || rm.Suppressed.Value() == 0 ||
		combined.TP == 0 || combined.FP == 0 || combined.FN == 0 {
		t.Errorf("degenerate run: %d cycles, evaluations %d, warnings %d, actions %d, suppressed %d, combined %+v",
			cycles, rm.Evaluations.Value(), rm.Warnings.Value(), rm.Actions.Value(), rm.Suppressed.Value(), combined)
	}
}
