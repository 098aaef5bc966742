package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/predict"
)

func mustLedger(t *testing.T, cfg LedgerConfig, names ...string) *Ledger {
	t.Helper()
	l, err := NewLedger(cfg, names...)
	if err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
	return l
}

func TestLedgerConfigValidation(t *testing.T) {
	bad := []LedgerConfig{
		{LeadTime: -1}, {Slack: math.NaN()}, {Window: math.Inf(1)},
	}
	for _, cfg := range bad {
		if _, err := NewLedger(cfg); err == nil {
			t.Errorf("NewLedger(%+v) accepted invalid config", cfg)
		}
	}
	if _, err := NewLedger(LedgerConfig{}); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
}

// TestLedgerMatchingBoundaries pins the Sect. 3.3 interval rule: a failure
// at exactly the prediction time is NOT a match (strict lower bound), one
// at exactly t+Δtl+Δtp IS (inclusive upper bound).
func TestLedgerMatchingBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		failAt  float64 // NaN = no failure
		predict bool
		want    predict.Outcome
	}{
		{"failure at t excluded", 100, true, predict.FalsePositive},
		{"failure just after t", 100.001, true, predict.TruePositive},
		{"failure at window end", 700, true, predict.TruePositive},
		{"failure past window", 700.001, true, predict.FalsePositive},
		{"no failure, no warning", math.NaN(), false, predict.TrueNegative},
		{"missed failure", 400, false, predict.FalseNegative},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := mustLedger(t, LedgerConfig{LeadTime: 300, Slack: 300})
			l.RecordPrediction("layer", 100, tc.predict, 0.9)
			if !math.IsNaN(tc.failAt) {
				l.RecordFailure(tc.failAt)
			}
			l.Advance(100 + 600) // window fully elapsed
			got := l.Quality("layer")
			var want predict.ContingencyTable
			tableAdd(&want, tc.want, 1)
			if got != want {
				t.Fatalf("table = %+v, want %+v", got, want)
			}
		})
	}
}

func TestLedgerPendingUntilWindowElapses(t *testing.T) {
	l := mustLedger(t, LedgerConfig{LeadTime: 300, Slack: 300})
	l.RecordPrediction("layer", 100, true, 1)
	l.Advance(699.9) // 100+600 > 699.9: not resolvable yet
	if got := l.Quality("layer"); got.Total() != 0 {
		t.Fatalf("prediction resolved early: %+v", got)
	}
	snap := l.Snapshot()
	if snap.Layers[layerIndex(snap, "layer")].Pending != 1 {
		t.Fatalf("pending count wrong: %+v", snap)
	}
	l.RecordFailure(650) // late ground truth, still inside the window
	l.Advance(700)
	if got := l.Quality("layer"); got.TP != 1 || got.Total() != 1 {
		t.Fatalf("after window elapsed: %+v, want one TP", got)
	}
}

func layerIndex(s LedgerSnapshot, name string) int {
	for i, lq := range s.Layers {
		if lq.Layer == name {
			return i
		}
	}
	return -1
}

func TestLedgerRollingWindowEviction(t *testing.T) {
	l := mustLedger(t, LedgerConfig{LeadTime: 10, Slack: 0, Window: 100})
	// Prediction at t=0 (FP), then at t=200 (TP with failure at 205).
	l.RecordPrediction("layer", 0, true, 1)
	l.RecordPrediction("layer", 200, true, 1)
	l.RecordFailure(205)
	l.Advance(210)
	cum := l.Cumulative("layer")
	if cum.FP != 1 || cum.TP != 1 {
		t.Fatalf("cumulative = %+v, want 1 FP + 1 TP", cum)
	}
	// Watermark 210, window 100 → the t=0 entry (age 210) must be evicted
	// from the rolling table but stay in the cumulative one.
	roll := l.Quality("layer")
	if roll.FP != 0 || roll.TP != 1 {
		t.Fatalf("rolling = %+v, want the old FP evicted", roll)
	}
}

func TestLedgerNoWindowRollingEqualsCumulative(t *testing.T) {
	l := mustLedger(t, LedgerConfig{LeadTime: 10})
	l.RecordPrediction("layer", 0, true, 1)
	l.RecordPrediction("layer", 1000, false, 0)
	l.Advance(5000)
	if l.Quality("layer") != l.Cumulative("layer") {
		t.Fatalf("window=0 rolling %+v != cumulative %+v", l.Quality("layer"), l.Cumulative("layer"))
	}
}

func TestLedgerFailurePruning(t *testing.T) {
	l := mustLedger(t, LedgerConfig{LeadTime: 10, Slack: 5})
	for i := 0; i < 100; i++ {
		l.RecordFailure(float64(i))
	}
	l.Advance(1000)
	l.mu.Lock()
	kept := len(l.failures)
	l.mu.Unlock()
	if kept != 0 {
		t.Fatalf("%d stale failures kept past the pruning horizon", kept)
	}
	// Failures near the watermark survive one extra horizon.
	l.RecordFailure(995)
	l.Advance(1000)
	l.mu.Lock()
	kept = len(l.failures)
	l.mu.Unlock()
	if kept != 1 {
		t.Fatalf("recent failure pruned (kept=%d)", kept)
	}
}

func TestLedgerOutOfOrderFailures(t *testing.T) {
	l := mustLedger(t, LedgerConfig{LeadTime: 50, Slack: 0})
	l.RecordPrediction("layer", 100, true, 1)
	l.RecordFailure(400)
	l.RecordFailure(120) // arrives late, before the earlier record in time
	l.Advance(150)
	if got := l.Quality("layer"); got.TP != 1 {
		t.Fatalf("out-of-order failure not matched: %+v", got)
	}
}

func TestLedgerLayersAndSnapshot(t *testing.T) {
	l := mustLedger(t, LedgerConfig{LeadTime: 1}, "errors", "memory")
	want := []string{"errors", "memory", CombinedLayer}
	got := l.Layers()
	if len(got) != len(want) {
		t.Fatalf("Layers() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Layers() = %v, want %v", got, want)
		}
	}
	l.RecordPrediction("swap", 0, false, 0) // auto-created
	l.RecordFailure(3)
	l.Advance(10)
	snap := l.Snapshot()
	if snap.Predictions != 1 || snap.Failures != 1 || snap.Watermark != 10 {
		t.Fatalf("snapshot counters: %+v", snap)
	}
	if idx := layerIndex(snap, "swap"); idx < 0 || snap.Layers[idx].Cumulative.TN != 1 {
		t.Fatalf("auto-created layer missing or unresolved: %+v", snap.Layers)
	}
	if l.Quality("unknown").Total() != 0 {
		t.Fatalf("unknown layer returned non-empty table")
	}
}

func TestLedgerNilSafe(t *testing.T) {
	var l *Ledger
	l.RecordPrediction("x", 0, true, 1)
	l.RecordFailure(1)
	l.Advance(10)
	if l.Quality("x").Total() != 0 || l.Cumulative("x").Total() != 0 {
		t.Fatalf("nil ledger returned counts")
	}
	if s := l.Snapshot(); len(s.Layers) != 0 {
		t.Fatalf("nil ledger snapshot non-empty")
	}
}

func TestLedgerConcurrent(t *testing.T) {
	l := mustLedger(t, LedgerConfig{LeadTime: 5, Slack: 1, Window: 50}, "a", "b")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			layer := "a"
			if g%2 == 1 {
				layer = "b"
			}
			for i := 0; i < 300; i++ {
				t := float64(i)
				l.RecordPrediction(layer, t, i%3 == 0, 0.5)
				if i%17 == 0 {
					l.RecordFailure(t + 2)
				}
				if i%10 == 0 {
					l.Advance(t)
				}
				l.Quality(layer)
			}
		}(g)
	}
	wg.Wait()
	l.Advance(1e6)
	snap := l.Snapshot()
	if snap.Predictions != 4*300 {
		t.Fatalf("journaled %d predictions, want %d", snap.Predictions, 4*300)
	}
	resolved := 0
	for _, lq := range snap.Layers {
		resolved += lq.Cumulative.Total() + lq.Pending
	}
	if resolved != 4*300 {
		t.Fatalf("resolved+pending = %d, want %d", resolved, 4*300)
	}
}

// refLedger is the row-list journal the bucketed Ledger replaced, kept as the
// reference it is compared against: one pending entry per prediction, every
// one of them re-examined by every Advance, one rolling-window entry per
// resolved prediction.
type refLedger struct {
	cfg       LedgerConfig
	order     []string
	layers    map[string]*refLayer
	failures  []float64
	watermark float64
	recorded  int64
	failSeen  int64
}

type refRow struct {
	t         float64
	predicted bool
}

type refResolved struct {
	t float64
	o predict.Outcome
}

type refLayer struct {
	pending             []refRow
	recent              []refResolved
	rolling, cumulative predict.ContingencyTable
}

func newRefLedger(cfg LedgerConfig, names ...string) *refLedger {
	r := &refLedger{cfg: cfg, layers: map[string]*refLayer{}}
	for _, n := range append(names, CombinedLayer) {
		r.layer(n)
	}
	return r
}

func (r *refLedger) layer(name string) *refLayer {
	ll, ok := r.layers[name]
	if !ok {
		ll = &refLayer{}
		r.layers[name] = ll
		r.order = append(r.order, name)
	}
	return ll
}

func (r *refLedger) recordPrediction(layer string, t float64, predicted bool) {
	ll := r.layer(layer)
	ll.pending = append(ll.pending, refRow{t, predicted})
	r.recorded++
}

func (r *refLedger) recordFailure(t float64) {
	r.failSeen++
	i := sort.SearchFloat64s(r.failures, t)
	r.failures = append(r.failures, 0)
	copy(r.failures[i+1:], r.failures[i:])
	r.failures[i] = t
}

func (r *refLedger) anyFailureIn(from, to float64) bool {
	for _, f := range r.failures {
		if f > from && f <= to {
			return true
		}
	}
	return false
}

func (r *refLedger) advance(now float64) {
	if now > r.watermark {
		r.watermark = now
	}
	horizon := r.cfg.LeadTime + r.cfg.Slack
	for _, name := range r.order {
		ll := r.layers[name]
		kept := ll.pending[:0]
		for _, p := range ll.pending {
			if p.t+horizon > r.watermark {
				kept = append(kept, p)
				continue
			}
			o := predict.Classify(p.predicted, r.anyFailureIn(p.t, p.t+horizon))
			tableAdd(&ll.cumulative, o, 1)
			if r.cfg.Window > 0 {
				ll.recent = append(ll.recent, refResolved{p.t, o})
				tableAdd(&ll.rolling, o, 1)
			}
		}
		ll.pending = kept
		if r.cfg.Window > 0 {
			cut := 0
			for cut < len(ll.recent) && ll.recent[cut].t < r.watermark-r.cfg.Window {
				tableAdd(&ll.rolling, ll.recent[cut].o, -1)
				cut++
			}
			ll.recent = ll.recent[cut:]
		} else {
			ll.rolling = ll.cumulative
		}
	}
	cut := sort.SearchFloat64s(r.failures, r.watermark-2*horizon)
	r.failures = r.failures[cut:]
}

func (r *refLedger) snapshot() LedgerSnapshot {
	snap := LedgerSnapshot{
		LeadTime: r.cfg.LeadTime, Slack: r.cfg.Slack, Window: r.cfg.Window,
		Watermark: r.watermark, Predictions: r.recorded, Failures: r.failSeen,
		Layers: make([]LayerQuality, 0, len(r.order)),
	}
	for _, name := range r.order {
		ll := r.layers[name]
		snap.Layers = append(snap.Layers, LayerQuality{
			Layer: name, Rolling: ll.rolling, Cumulative: ll.cumulative, Pending: len(ll.pending),
		})
	}
	return snap
}

// TestLedgerMatchesRowList drives the bucketed ledger and the row list it
// replaced with the same random scripts and holds everything a reader can
// see equal after every step. Times come from a grid a few cells wide, so a
// script is mostly the awkward cases: rows at equal t (which share a
// bucket), t going backwards, t alternating (buckets that cannot merge),
// failures landing after the predictions they match or after the watermark
// passed them, and a watermark asked to move backwards.
func TestLedgerMatchesRowList(t *testing.T) {
	layers := []string{"a", "b", CombinedLayer}
	script := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := LedgerConfig{LeadTime: float64(rng.Intn(4)), Slack: float64(rng.Intn(3))}
		if rng.Intn(2) == 0 {
			cfg.Window = float64(1 + rng.Intn(12))
		}
		led := mustLedger(t, cfg, "a")
		ref := newRefLedger(cfg, "a")
		clock := 0.0
		at := func() float64 { // near the clock, either side of it
			return clock + float64(rng.Intn(7)-3)
		}
		for step := 0; step < 80; step++ {
			clock += float64(rng.Intn(3)) / 2
			layer := layers[rng.Intn(len(layers))]
			op := rng.Intn(10)
			switch {
			case op < 3:
				ts, predicted := at(), rng.Intn(3) == 0
				led.RecordPrediction(layer, ts, predicted, rng.Float64())
				ref.recordPrediction(layer, ts, predicted)
			case op < 6:
				ts, pos, neg := at(), rng.Intn(4), rng.Intn(4)
				if rng.Intn(4) == 0 {
					ts = clock // the newest bucket's instant, as often as not
				}
				led.RecordPredictions(layer, ts, pos, neg)
				rows := make([]bool, pos+neg) // the same rows one by one, in any order
				for i := 0; i < pos; i++ {
					rows[i] = true
				}
				rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
				for _, warned := range rows {
					ref.recordPrediction(layer, ts, warned)
				}
			case op < 8:
				ts := at()
				led.RecordFailure(ts)
				ref.recordFailure(ts)
			default:
				ts := at()
				led.Advance(ts)
				ref.advance(ts)
			}
			if got, want := led.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d step %d op %d: snapshot\n got %+v\nwant %+v", seed, step, op, got, want)
				return false
			}
			for _, name := range layers {
				rl, ok := ref.layers[name]
				if !ok {
					rl = &refLayer{}
				}
				if led.Quality(name) != rl.rolling || led.Cumulative(name) != rl.cumulative {
					t.Errorf("seed %d step %d: layer %s quality %+v/%+v, want %+v/%+v", seed, step, name,
						led.Quality(name), led.Cumulative(name), rl.rolling, rl.cumulative)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(script, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerMatchesRowListByRow drives the one-call journal (Book: a
// decision's rows and the watermark advance under one lock) against the row
// list fed the same decisions one row at a time, with the same random
// scripts as TestLedgerMatchesRowList: times at, before and after the newest
// instant (equal, backward, alternating), failures landing late, a watermark
// asked to move backwards, rolling windows on and off, and rows that start
// journaling mid-run — "b", declared nowhere, and a candidate row
// registered at a random step.
func TestLedgerMatchesRowListByRow(t *testing.T) {
	script := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := LedgerConfig{LeadTime: float64(rng.Intn(4)), Slack: float64(rng.Intn(3))}
		if rng.Intn(2) == 0 {
			cfg.Window = float64(1 + rng.Intn(12))
		}
		led := mustLedger(t, cfg, "a")
		ref := newRefLedger(cfg, "a")
		names := []string{"a", CombinedLayer}
		late := []string{"b", "a#candidate"}
		row := func(name string) int {
			r := led.Row(name)
			ref.layer(name)
			if ref.order[r] != name {
				t.Errorf("seed %d: Row(%q) = %d, the row list has %q there", seed, name, r, ref.order[r])
			}
			return r
		}
		clock := 0.0
		at := func() float64 { return clock + float64(rng.Intn(7)-3) }
		var rows []RowCount
		for step := 0; step < 80; step++ {
			clock += float64(rng.Intn(3)) / 2
			if len(late) > 0 && rng.Intn(20) == 0 {
				names, late = append(names, late[0]), late[1:]
			}
			op := rng.Intn(10)
			switch {
			case op < 6: // one decision: some rows' verdicts, then the watermark
				ts, now := at(), at()
				if rng.Intn(3) == 0 {
					ts = clock
				}
				if rng.Intn(3) == 0 {
					now = ts
				}
				rows = rows[:0]
				for _, name := range names {
					if rng.Intn(4) == 0 {
						continue // abstained
					}
					pos, neg := rng.Intn(3), rng.Intn(3)
					rows = append(rows, RowCount{Row: row(name), Pos: pos, Neg: neg})
					verdicts := make([]bool, pos+neg)
					for i := 0; i < pos; i++ {
						verdicts[i] = true
					}
					rng.Shuffle(len(verdicts), func(i, j int) { verdicts[i], verdicts[j] = verdicts[j], verdicts[i] })
					for _, warned := range verdicts {
						ref.recordPrediction(name, ts, warned)
					}
				}
				led.Book(ts, rows, now)
				ref.advance(now)
			case op < 8:
				ts := at()
				led.RecordFailure(ts)
				ref.recordFailure(ts)
			default:
				ts := at()
				led.Advance(ts)
				ref.advance(ts)
			}
			if got, want := led.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d step %d op %d: snapshot\n got %+v\nwant %+v", seed, step, op, got, want)
				return false
			}
			for _, name := range ref.order {
				rl := ref.layers[name]
				if led.Quality(name) != rl.rolling || led.Cumulative(name) != rl.cumulative {
					t.Errorf("seed %d step %d: row %s quality %+v/%+v, want %+v/%+v", seed, step, name,
						led.Quality(name), led.Cumulative(name), rl.rolling, rl.cumulative)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(script, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}
