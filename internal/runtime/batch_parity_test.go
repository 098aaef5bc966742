package runtime

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	stdruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/act"
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/hsmm"
	"repro/internal/ingest"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/ubf"
)

// The batch/serial parity suite pins the tentpole invariant: batching is
// a throughput technique, not a semantics change. The same recorded
// timeline — events, MEA cycle times and ground-truth failures — must
// produce a byte-identical /ledger body and identical monotone pipeline
// counters whether cycles run one at a time through the event-driven
// path (EvaluateNow) or stacked through CycleBatch, across drain chunk
// sizes and GOMAXPROCS. Latency histograms are exempt by
// design: a chunked drain observes once per chunk, so histogram counts
// legitimately scale with the chunk size.

// parityStep is one entry of the recorded timeline.
type parityStep struct {
	kind  int // 0 = event, 1 = cycle, 2 = failure
	ev    ingest.Event
	at    float64
	stack bool // cycle directly follows another cycle (no event between)
}

// parityTimeline builds the deterministic 120-sim-second scenario: two
// bursty error/sample phases around a quiet gap (60..100s) whose eight
// event-free cycles are exactly what CycleBatch stacks, plus three
// ground-truth failures.
func parityTimeline() []parityStep {
	var events []ingest.Event
	for t := 0.5; t < 120; t += 0.5 {
		phase := int(t) / 20 % 2
		if int(2*t)%2 == 0 && phase == 0 && t < 60 {
			events = append(events, ingest.Event{Kind: ingest.KindError, Time: t, Error: eventlog.Event{
				Time: t, Component: "app", Type: int(2*t) % 2,
				Severity: eventlog.SeverityError, Message: "burst",
			}})
			continue
		}
		if t >= 60 && t < 100 {
			continue // quiet gap: no events, cycles stack
		}
		v := "cpu"
		if int(2*t)%4 < 2 {
			v = "mem"
		}
		events = append(events, ingest.Event{Kind: ingest.KindSample, Time: t, Variable: v,
			Value: 0.3 + 0.5*math.Sin(t/7)})
	}
	var cycles []float64
	for c := 5.0; c <= 120; c += 5 {
		cycles = append(cycles, c)
	}
	failures := []float64{25.2, 70.3, 110.1}

	var steps []parityStep
	ei, ci, fi := 0, 0, 0
	lastWasCycle := false
	for ei < len(events) || ci < len(cycles) || fi < len(failures) {
		et, ct, ft := math.Inf(1), math.Inf(1), math.Inf(1)
		if ei < len(events) {
			et = events[ei].Time
		}
		if ci < len(cycles) {
			ct = cycles[ci]
		}
		if fi < len(failures) {
			ft = failures[fi]
		}
		switch {
		case ft <= ct && ft <= et:
			steps = append(steps, parityStep{kind: 2, at: ft})
			fi++
			lastWasCycle = false
		case ct <= et:
			steps = append(steps, parityStep{kind: 1, at: ct, stack: lastWasCycle})
			ci++
			lastWasCycle = true
		default:
			steps = append(steps, parityStep{kind: 0, ev: events[ei], at: et})
			ei++
			lastWasCycle = false
		}
	}
	return steps
}

// parityMirror is the predictor-visible state for the parity scenario:
// an error log and pre-populated per-variable series, all touched only by
// the runtime's one consumer.
type parityMirror struct {
	log    *eventlog.Log
	series map[string]*paritySeries
}

type paritySeries struct {
	ts, vs []float64
}

func (s *paritySeries) last() float64 {
	if len(s.vs) == 0 {
		return 0
	}
	return s.vs[len(s.vs)-1]
}

func newParityMirror() *parityMirror {
	return &parityMirror{
		log:    eventlog.NewLog(),
		series: map[string]*paritySeries{"cpu": {}, "mem": {}},
	}
}

func (m *parityMirror) apply(ev ingest.Event) error {
	switch ev.Kind {
	case ingest.KindError:
		return m.log.Append(ev.Error)
	case ingest.KindSample:
		s, ok := m.series[ev.Variable]
		if !ok {
			return fmt.Errorf("unknown variable %q", ev.Variable)
		}
		s.ts = append(s.ts, ev.Time)
		s.vs = append(s.vs, ev.Value)
		return nil
	default:
		return fmt.Errorf("unknown kind %d", ev.Kind)
	}
}

// trainParityModels fits the HSMM classifier and UBF network once, under
// a pinned GOMAXPROCS — training parallelism may regroup floating-point
// reductions across GOMAXPROCS values, and the parity matrix must vary
// only the runtime's batching knobs, never the models.
func trainParityModels(t *testing.T) (*hsmm.Classifier, *ubf.Network) {
	t.Helper()
	prev := stdruntime.GOMAXPROCS(2)
	defer stdruntime.GOMAXPROCS(prev)
	g := stats.NewRNG(41)
	var failure, nonFailure []eventlog.Sequence
	for i := 0; i < 8; i++ {
		f := eventlog.Sequence{Label: true}
		at := 0.0
		for j := 0; j < 8; j++ {
			at += 0.1 + 0.3*g.Float64()
			f.Times = append(f.Times, at)
			f.Types = append(f.Types, g.Intn(2))
		}
		failure = append(failure, f)
		nf := eventlog.Sequence{}
		at = 0.0
		for j := 0; j < 4; j++ {
			at += 1 + 2*g.Float64()
			nf.Times = append(nf.Times, at)
			nf.Types = append(nf.Types, g.Intn(2))
		}
		nonFailure = append(nonFailure, nf)
	}
	clf, err := hsmm.TrainClassifier(failure, nonFailure, hsmm.Config{States: 2, MaxIter: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	x := mat.New(40, 2)
	y := make([]float64, 40)
	for i := 0; i < 40; i++ {
		a, b := g.Float64(), g.Float64()
		row := x.RowView(i)
		row[0], row[1] = a, b
		if a+b > 1 {
			y[i] = 1
		}
	}
	net, err := ubf.Train(x, y, ubf.TrainConfig{NumKernels: 4, Candidates: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return clf, net
}

// parityLayers wires fresh predictors over a run's mirror around the
// shared trained models: the real HSMM and UBF batch kernels plus a
// plain PredictorFunc exercising ScoreBatch's serial fallback.
func parityLayers(t *testing.T, m *parityMirror, clf *hsmm.Classifier, net *ubf.Network) []*core.Layer {
	t.Helper()
	hp, err := hsmm.NewPredictor(clf, func(now float64) (eventlog.Sequence, error) {
		seq := eventlog.Sequence{}
		lo, hi := m.log.ScanWindow(now-30, now+1e-9)
		for i := lo; i < hi; i++ {
			seq.Times = append(seq.Times, m.log.TimeAt(i)-(now-30))
			seq.Types = append(seq.Types, m.log.TypeAt(i))
		}
		return seq, nil
	}, nil, hsmm.Config{States: 2, MaxIter: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	up, err := ubf.NewPredictor(net, func(now float64) ([]float64, error) {
		return []float64{m.series["cpu"].last(), m.series["mem"].last()}, nil
	}, nil, ubf.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return []*core.Layer{
		{Name: "burst", Predictor: hp, Threshold: 1},
		{Name: "surface", Predictor: up, Threshold: 0.6},
		{Name: "count", Predictor: core.PredictorFunc(func(now float64) (float64, error) {
			lo, hi := m.log.ScanWindow(now-30, now+1e-9)
			return float64(hi-lo) / 20, nil
		}), Threshold: 1},
	}
}

// parityResult is everything the invariant covers: the /ledger body and
// the monotone pipeline counters.
type parityResult struct {
	ledger   string
	counters map[string]int64
}

// runParity replays the timeline through one runtime configuration.
// Serial mode drives every cycle through the event-driven EvaluateNow
// path and waits for it; batched mode stacks gap cycles and runs them
// through CycleBatch, exactly like the columnar replay driver.
func runParity(t *testing.T, steps []parityStep, clf *hsmm.Classifier, net *ubf.Network,
	serial bool, batch, gmp int) parityResult {
	t.Helper()
	prev := stdruntime.GOMAXPROCS(gmp)
	defer stdruntime.GOMAXPROCS(prev)

	m := newParityMirror()
	layers := parityLayers(t, m, clf, net)
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
	eng, err := core.New(nil, layers, nil, sel, []*act.Action{a}, nil, core.Config{
		EvalInterval: 5, LeadTime: 10, WarnThreshold: 0.3,
		OscillationWindow: 30, MaxActionsPerWindow: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := obs.NewLedger(obs.LedgerConfig{LeadTime: 10, Slack: 5},
		"burst", "surface", "count")
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(64)
	var clock atomic.Uint64
	rt, err := New(Config{
		Engine:        eng,
		Apply:         m.apply,
		Clock:         func() float64 { return math.Float64frombits(clock.Load()) },
		QueueCapacity: 256,
		Overflow:      Block,
		Workers:       2,
		BatchSize:     batch,
		Tracer:        tracer,
		Ledger:        ledger,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := rt.Start(ctx); err != nil {
		t.Fatal(err)
	}

	waitCycles := func(target int64) {
		deadline := time.Now().Add(10 * time.Second)
		for rt.Cycles() < target {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d never completed", target)
			}
			stdruntime.Gosched()
		}
	}
	var stacked []float64
	flush := func() {
		if len(stacked) == 0 {
			return
		}
		if err := rt.Barrier(ctx); err != nil {
			t.Fatal(err)
		}
		clock.Store(math.Float64bits(stacked[len(stacked)-1]))
		rt.CycleBatch(stacked)
		stacked = stacked[:0]
	}
	for _, s := range steps {
		switch s.kind {
		case 0: // event
			flush()
			clock.Store(math.Float64bits(s.at))
			if err := rt.Ingest(ctx, s.ev); err != nil {
				t.Fatal(err)
			}
		case 1: // cycle
			if serial {
				if err := rt.Barrier(ctx); err != nil {
					t.Fatal(err)
				}
				clock.Store(math.Float64bits(s.at))
				target := rt.Cycles() + 1
				rt.EvaluateNow()
				waitCycles(target)
			} else {
				stacked = append(stacked, s.at)
			}
		case 2: // ground-truth failure
			flush()
			if err := rt.Barrier(ctx); err != nil {
				t.Fatal(err)
			}
			ledger.RecordFailure(s.at)
		}
	}
	flush()

	stopCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := rt.Stop(stopCtx); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest("GET", "/ledger", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	mm := rt.Metrics()
	return parityResult{
		ledger: string(body),
		counters: map[string]int64{
			"ingested":    mm.Ingested.Value(),
			"applied":     mm.Applied.Value(),
			"dropped":     mm.Dropped(),
			"evaluations": mm.Evaluations.Value(),
			"warnings":    mm.Warnings.Value(),
			"actions":     mm.Actions.Value(),
			"suppressed":  mm.Suppressed.Value(),
		},
	}
}

func TestBatchSerialParity(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real predictors; skipped in -short")
	}
	steps := parityTimeline()
	// The timeline must actually exercise stacking: the quiet gap yields
	// consecutive cycle steps with no event between them.
	stackRun := 0
	for _, s := range steps {
		if s.kind == 1 && s.stack {
			stackRun++
		}
	}
	if stackRun < 5 {
		t.Fatalf("timeline stacks only %d cycles — scenario lost its quiet gap", stackRun)
	}
	clf, net := trainParityModels(t)

	ref := runParity(t, steps, clf, net, true, 1, 1)
	if ref.counters["ingested"] == 0 || ref.counters["evaluations"] == 0 {
		t.Fatalf("degenerate reference run: %+v", ref.counters)
	}
	if ref.counters["warnings"] == 0 {
		t.Fatalf("reference run never warned — thresholds no longer exercise decisions")
	}
	// The names are the IDs the suite's pass floor tracks these arms by, so
	// they keep their shards= token although the runtime has one queue now.
	configs := []struct {
		name       string
		serial     bool
		batch, gmp int
	}{
		{"serial/batch=16/shards=1/gmp=4", true, 16, 4},
		{"serial/batch=256/shards=3/gmp=4", true, 256, 4},
		{"cyclebatch/batch=1/shards=1/gmp=1", false, 1, 1},
		{"cyclebatch/batch=16/shards=1/gmp=4", false, 16, 4},
		{"cyclebatch/batch=256/shards=3/gmp=4", false, 256, 4},
		{"cyclebatch/batch=16/shards=3/gmp=1", false, 16, 1},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			got := runParity(t, steps, clf, net, cfg.serial, cfg.batch, cfg.gmp)
			if got.ledger != ref.ledger {
				t.Errorf("/ledger body diverged from serial reference:\nref: %s\ngot: %s",
					ref.ledger, got.ledger)
			}
			for k, want := range ref.counters {
				if got.counters[k] != want {
					t.Errorf("counter %s = %d, want %d", k, got.counters[k], want)
				}
			}
		})
	}
}
