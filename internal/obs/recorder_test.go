package obs

import (
	"fmt"
	"math"
	stdruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/diagnose"
	"repro/internal/eventlog"
)

func testRecorder(t *testing.T, cfg RecorderConfig) *Recorder {
	t.Helper()
	if cfg.Layers == nil {
		cfg.Layers = []string{"a", "b"}
	}
	r, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRecorderConfigValidation(t *testing.T) {
	if _, err := NewRecorder(RecorderConfig{}); err == nil {
		t.Fatal("want error for no layers")
	}
	if _, err := NewRecorder(RecorderConfig{Layers: []string{"a"}, Window: -1}); err == nil {
		t.Fatal("want error for negative window")
	}
	if _, err := NewRecorder(RecorderConfig{Layers: []string{"a"}, WarnThreshold: math.NaN()}); err == nil {
		t.Fatal("want error for NaN threshold")
	}
	r := testRecorder(t, RecorderConfig{Layers: []string{"a"}})
	cfg := r.Config()
	if cfg.Window != defaultRecorderWindow || cfg.MaxBundles != defaultRecorderMaxBundles {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestRecorderWarnTrigger: a warning at/above the threshold produces one
// bundle at the next Collect; sub-threshold warnings do not fire.
func TestRecorderWarnTrigger(t *testing.T) {
	r := testRecorder(t, RecorderConfig{WarnThreshold: 0.5, Window: 10})
	r.Observe(1, []float64{0.2, 0.1}, CycleObservation{Warned: true, Confidence: 0.4})
	r.Collect()
	if got := len(r.Bundles()); got != 0 {
		t.Fatalf("sub-threshold warn captured %d bundles", got)
	}
	r.Observe(2, []float64{0.9, 0.8}, CycleObservation{Warned: true, Confidence: 0.9, LayerVersions: []uint64{3, 4}})
	if r.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", r.Pending())
	}
	r.Collect()
	bundles := r.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("bundles = %d, want 1", len(bundles))
	}
	b := bundles[0]
	if b.Trigger != TriggerWarn || b.Time != 2 || b.Confidence != 0.9 {
		t.Fatalf("bundle = %+v", b)
	}
	if b.EventsFrom != -8 || b.EventsTo != 2 {
		t.Fatalf("window = [%g, %g], want [-8, 2]", b.EventsFrom, b.EventsTo)
	}
	if len(b.LayerVersions) != 2 || b.LayerVersions[0] != 3 {
		t.Fatalf("versions = %v", b.LayerVersions)
	}
	// Score history retains both observed cycles, oldest first.
	if len(b.Scores) != 2 || b.Scores[0].Time != 1 || b.Scores[1].Scores[0] != 0.9 {
		t.Fatalf("score history = %+v", b.Scores)
	}
	if r.Captured(TriggerWarn) != 1 || r.Captured(TriggerAct) != 0 {
		t.Fatalf("captured warn=%d act=%d", r.Captured(TriggerWarn), r.Captured(TriggerAct))
	}
	if got := r.Bundle(b.ID); got != b {
		t.Fatalf("Bundle(%q) = %v", b.ID, got)
	}
}

// TestRecorderRefractory: within the dead time repeated triggers of one
// kind are suppressed, other kinds still fire, and the gate reopens after
// refractoryWindows × Window.
func TestRecorderRefractory(t *testing.T) {
	r := testRecorder(t, RecorderConfig{Window: 50})
	warned := CycleObservation{Warned: true, Confidence: 1}
	r.Observe(1, []float64{1, 1}, warned)
	r.Observe(2, []float64{1, 1}, warned)
	r.Observe(3, []float64{1, 1}, CycleObservation{Warned: true, Confidence: 1, Executed: true, Action: "restart"})
	r.Collect()
	if got := len(r.Bundles()); got != 2 { // one warn + one act
		t.Fatalf("bundles = %d, want 2", got)
	}
	if r.Suppressed() != 2 { // warn at t=2 and t=3
		t.Fatalf("suppressed = %d, want 2", r.Suppressed())
	}
	r.Observe(102, []float64{1, 1}, warned) // past t=1+100
	r.Collect()
	if got := r.Captured(TriggerWarn); got != 2 {
		t.Fatalf("warn captures after refractory = %d, want 2", got)
	}
}

// TestRecorderBurnRate: the burn-rate trigger needs an armed floor, enough
// resolved predictions, and a rolling combined F falling below the floor —
// it fires on the crossing, not on every cycle F stays there.
func TestRecorderBurnRate(t *testing.T) {
	led, err := NewLedger(LedgerConfig{LeadTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := testRecorder(t, RecorderConfig{BurnRateFloor: 0.5, Ledger: led})
	// burnRateMinResolved resolved false positives: F = 0 < 0.5.
	for i := 0; i < burnRateMinResolved; i++ {
		led.RecordPrediction(CombinedLayer, float64(i), true, 1)
	}
	led.Advance(20)
	r.Observe(21, []float64{0, 0}, CycleObservation{})
	r.Collect()
	if got := r.Captured(TriggerBurnRate); got != 1 {
		t.Fatalf("burn-rate captures = %d, want 1", got)
	}
	// Still below the floor long past the refractory period: no second bundle.
	r.Observe(1e6, []float64{0, 0}, CycleObservation{})
	r.Collect()
	if got, sup := r.Captured(TriggerBurnRate), r.Suppressed(); got != 1 || sup != 0 {
		t.Fatalf("while F stays under the floor: captures = %d, suppressed = %d, want 1, 0", got, sup)
	}
	// Recovery re-arms it: nine hits lift F to 0.64, then forty false alarms
	// sink it to 0.27 again.
	for i := 0; i < 9; i++ {
		led.RecordPrediction(CombinedLayer, 2e6+float64(2*i), true, 1)
		led.RecordFailure(2e6 + float64(2*i) + 0.5)
	}
	led.Advance(3e6)
	r.Observe(3e6, []float64{0, 0}, CycleObservation{})
	for i := 0; i < 40; i++ {
		led.RecordPrediction(CombinedLayer, 4e6+float64(i), true, 1)
	}
	led.Advance(5e6)
	r.Observe(5e6, []float64{0, 0}, CycleObservation{})
	r.Collect()
	if got := r.Captured(TriggerBurnRate); got != 2 {
		t.Fatalf("burn-rate captures after a recovery and a second collapse = %d, want 2", got)
	}
	// One resolved prediction short of the floor, nothing fires.
	led2, _ := NewLedger(LedgerConfig{LeadTime: 1})
	r2 := testRecorder(t, RecorderConfig{BurnRateFloor: 0.5, Ledger: led2})
	for i := 0; i < burnRateMinResolved-1; i++ {
		led2.RecordPrediction(CombinedLayer, float64(i), true, 1)
	}
	led2.Advance(100)
	r2.Observe(101, []float64{0, 0}, CycleObservation{})
	r2.Collect()
	if got := r2.Captured(TriggerBurnRate); got != 0 {
		t.Fatalf("burn-rate fired with %d resolved", burnRateMinResolved-1)
	}
}

// TestRecorderExternalTriggerAndEvents: lifecycle-style external triggers
// capture the event-log window, the recorderMaxEvents cap keeps the newest
// events, and EventsTotal reports the uncapped population.
func TestRecorderExternalTriggerAndEvents(t *testing.T) {
	const n = recorderMaxEvents + 8
	l := eventlog.NewLog()
	for i := 0; i < n; i++ {
		if err := l.Append(eventlog.Event{Time: float64(i), Component: "c", Type: i, Severity: eventlog.SeverityError}); err != nil {
			t.Fatal(err)
		}
	}
	r := testRecorder(t, RecorderConfig{Window: 1000, Log: l,
		Diagnose: func(from, to float64) []diagnose.Suspect {
			return []diagnose.Suspect{{Component: "c", Score: from + to, Events: 1}}
		}})
	r.TriggerEvent(TriggerDrift, n-1, "errrate")
	r.Collect()
	b := r.Bundles()[0]
	if b.Trigger != TriggerDrift || b.Detail != "errrate" {
		t.Fatalf("bundle = %+v", b)
	}
	if b.EventsTotal != n {
		t.Fatalf("events total = %d, want %d", b.EventsTotal, n)
	}
	if len(b.Events) != recorderMaxEvents || b.Events[0].Type != 8 || b.Events[recorderMaxEvents-1].Type != n-1 {
		t.Fatalf("capped events = %+v", b.Events)
	}
	if len(b.Suspects) != 1 || b.Suspects[0].Component != "c" {
		t.Fatalf("suspects = %+v", b.Suspects)
	}
}

// TestRecorderDeterministicIDs: the same trigger sequence reproduces the
// same bundle IDs and fingerprints; different scopes never collide.
func TestRecorderDeterministicIDs(t *testing.T) {
	run := func(scope string) []string {
		r := testRecorder(t, RecorderConfig{Scope: scope, Window: 10})
		r.Observe(1, []float64{0.9, 0.8}, CycleObservation{Warned: true, Confidence: 0.9})
		r.Observe(2, []float64{0.9, 0.8}, CycleObservation{Executed: true, Action: "restart"})
		r.Collect()
		var fps []string
		for _, b := range r.Bundles() {
			fps = append(fps, b.Fingerprint())
		}
		return fps
	}
	a1, a2, b1 := run("a"), run("a"), run("b")
	if strings.Join(a1, "\n") != strings.Join(a2, "\n") {
		t.Fatalf("same scope, different fingerprints:\n%v\nvs\n%v", a1, a2)
	}
	if len(a1) != 2 || a1[0] == a1[1] {
		t.Fatalf("fingerprints not distinct per trigger: %v", a1)
	}
	if a1[0] == b1[0] {
		t.Fatal("different scopes produced the same bundle identity")
	}
}

// TestRecorderEviction: the bundle ring keeps the newest MaxBundles.
func TestRecorderEviction(t *testing.T) {
	r := testRecorder(t, RecorderConfig{Window: 0.25, MaxBundles: 3})
	for i := 1; i <= 5; i++ {
		r.Observe(float64(i), []float64{1, 1}, CycleObservation{Executed: true})
	}
	r.Collect()
	bundles := r.Bundles()
	if len(bundles) != 3 {
		t.Fatalf("retained = %d, want 3", len(bundles))
	}
	if bundles[0].Time != 3 || bundles[2].Time != 5 {
		t.Fatalf("retained times = %g..%g, want 3..5", bundles[0].Time, bundles[2].Time)
	}
}

// TestRecorderSubscribeFlush: subscribers see every bundle exactly once,
// whether delivered on a later Observe or by the shutdown Flush.
func TestRecorderSubscribeFlush(t *testing.T) {
	r := testRecorder(t, RecorderConfig{Window: 0.25})
	var got []string
	r.Subscribe(func(b *IncidentBundle) { got = append(got, b.ID) })
	r.Observe(1, []float64{1, 1}, CycleObservation{Executed: true})
	r.Collect()
	r.Observe(2, []float64{0, 0}, CycleObservation{}) // delivery piggybacks here
	if len(got) != 1 {
		t.Fatalf("delivered = %d after observe, want 1", len(got))
	}
	r.Observe(3, []float64{1, 1}, CycleObservation{Executed: true})
	r.Flush() // captures the pending trigger and delivers it
	if len(got) != 2 {
		t.Fatalf("delivered = %d after flush, want 2", len(got))
	}
	if got[0] == got[1] {
		t.Fatal("duplicate delivery")
	}
}

// TestRecorderScoreHistoryRows: a bundle's score history is the retained
// rows at or before the trigger, oldest first across the ring's wrap, each
// row a slice of its own (an append to one does not reach the next), and
// copying it costs the same number of allocations whatever the row count.
// An external trigger dated back into the full ring picks the count.
func TestRecorderScoreHistoryRows(t *testing.T) {
	bundleAllocs := func(rows int) float64 {
		r := testRecorder(t, RecorderConfig{Window: 10, MaxBundles: 1})
		now, scores, vers := 0.0, make([]float64, 2), []uint64{7, 0}
		return testing.AllocsPerRun(20, func() {
			for i := 0; i < recorderScoreDepth+3; i++ {
				now++
				scores[0], scores[1], vers[1] = now, -now, uint64(now)
				r.Observe(now, scores, CycleObservation{LayerVersions: vers})
			}
			r.TriggerEvent(TriggerDrift, now-float64(recorderScoreDepth-rows), "x")
			r.Collect()
			b := r.Bundles()[0]
			if len(b.Scores) != rows {
				t.Fatalf("%d rows wanted: got %d", rows, len(b.Scores))
			}
			for i, row := range b.Scores {
				at := now - float64(recorderScoreDepth-1-i)
				if row.Time != at || len(row.Scores) != 2 || row.Scores[0] != at || row.Scores[1] != -at ||
					len(row.Versions) != 2 || row.Versions[0] != 7 || row.Versions[1] != uint64(at) {
					t.Fatalf("%d rows: row %d = %+v, want time %g", rows, i, row, at)
				}
			}
			_ = append(b.Scores[0].Scores, 99)
			_ = append(b.Scores[0].Versions, 99)
			if b.Scores[1].Scores[0] == 99 || b.Scores[1].Versions[0] == 99 {
				t.Fatalf("%d rows: append to row 0 wrote into row 1", rows)
			}
		})
	}
	if small, full := bundleAllocs(4), bundleAllocs(recorderScoreDepth); small != full {
		t.Fatalf("bundle allocations grow with the rows: %.0f at 4 rows, %.0f at %d", small, full, recorderScoreDepth)
	}
}

// TestRecorderObserveFold: an overflow recorder that observes an instant's
// fold once — each decision trigger's first observation and how many would
// fire it — captures the bundles, and counts the suppressed triggers, that
// observing the instant's observations one by one in the same order gives;
// and each of its bundles holds only the score rows of its own tenant.
func TestRecorderObserveFold(t *testing.T) {
	const gate, tenants = 0.5, 4
	cfg := RecorderConfig{Scope: OverflowScope, WarnThreshold: gate, Window: 30, MaxBundles: 64}
	folded, oracle := testRecorder(t, cfg), testRecorder(t, cfg)
	for step := 1; step <= 60; step++ {
		now := float64(10 * step)
		var warn, act FoldFire
		for i := 0; i < tenants; i++ {
			// Tenant i warns at confidence (i+1)/4 on the steps its residue
			// picks, and acts on some of those.
			warned := (step+i)%3 != 0
			o := CycleObservation{Warned: warned, Executed: warned && (step*i)%4 == 1,
				Confidence: float64(i+1) / tenants, Detail: fmt.Sprintf("d%d", i)}
			row := []float64{float64(i), now}
			oracle.Observe(now, row, o)
			for _, f := range []*FoldFire{&warn, &act} {
				if f == &warn && !(o.Warned && o.Confidence >= gate) || f == &act && !o.Executed {
					continue
				}
				if f.N == 0 {
					f.Scores, f.Obs = row, o
				}
				f.N++
			}
		}
		folded.ObserveFold(now, warn, act)
		folded.Collect()
		oracle.Collect()
	}
	if got, want := folded.Suppressed(), oracle.Suppressed(); got != want || want == 0 {
		t.Fatalf("suppressed %d, one by one %d", got, want)
	}
	fb, ob := folded.Bundles(), oracle.Bundles()
	if len(fb) != len(ob) || folded.Captured(TriggerAct) == 0 {
		t.Fatalf("%d bundles (%d act), one by one %d", len(fb), folded.Captured(TriggerAct), len(ob))
	}
	warnedBy := map[float64]string{} // trigger time -> the warn bundle's tenant
	for _, b := range fb {
		if b.Trigger == TriggerWarn {
			warnedBy[b.Time] = b.Detail
		}
	}
	distinct := 0
	for i, b := range fb {
		o := ob[i]
		if b.ID != o.ID || b.Trigger != o.Trigger || b.Time != o.Time || b.Detail != o.Detail || b.Confidence != o.Confidence {
			t.Fatalf("bundle %d: %s %s@%g %s, one by one %s %s@%g %s", i, b.ID, b.Trigger, b.Time, b.Detail, o.ID, o.Trigger, o.Time, o.Detail)
		}
		var tenant float64
		fmt.Sscanf(b.Detail, "d%g", &tenant)
		for _, row := range b.Scores {
			if row.Scores[0] != tenant {
				t.Fatalf("bundle %s@%g of %s holds a row of tenant %g", b.Trigger, b.Time, b.Detail, row.Scores[0])
			}
		}
		if last := b.Scores[len(b.Scores)-1]; last.Time != b.Time {
			t.Fatalf("bundle %s@%g of %s: last row at %g", b.Trigger, b.Time, b.Detail, last.Time)
		}
		if w, ok := warnedBy[b.Time]; ok && b.Trigger == TriggerAct && w != b.Detail {
			distinct++
		}
	}
	if distinct == 0 {
		t.Fatal("no instant fired act and warn from two tenants")
	}
}

// TestRecorderSteadyStateZeroAllocs pins the always-on cost: Observe with
// no trigger firing and Collect with nothing pending must not allocate.
func TestRecorderSteadyStateZeroAllocs(t *testing.T) {
	led, err := NewLedger(LedgerConfig{LeadTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := testRecorder(t, RecorderConfig{WarnThreshold: 0.5, BurnRateFloor: 0.1, Ledger: led})
	scores := []float64{0.1, 0.2}
	versions := []uint64{1, 1}
	now := 0.0
	if avg := testing.AllocsPerRun(1000, func() {
		now++
		r.Observe(now, scores, CycleObservation{Confidence: 0.1, LayerVersions: versions})
		r.Collect()
	}); avg != 0 {
		t.Fatalf("steady-state Observe+Collect allocates %.1f/op", avg)
	}
}

// TestScopedRecorderFold: the cardinality cap folds late scopes into the
// shared overflow recorder, mirroring ScopedLedger.
func TestScopedRecorderFold(t *testing.T) {
	sr, err := NewScopedRecorder(RecorderConfig{Layers: []string{"a"}, Window: 10, WarnThreshold: 0.9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScopedRecorder(RecorderConfig{Layers: []string{"a"}}, 0); err == nil {
		t.Fatal("want error for cap 0")
	}
	t1 := sr.Scope("t1", RecorderScopeConfig{WarnThreshold: 0.2})
	t2 := sr.Scope("t2", RecorderScopeConfig{})
	t3 := sr.Scope("t3", RecorderScopeConfig{})
	t4 := sr.Scope("t4", RecorderScopeConfig{})
	if t1 == t2 || t3 != t4 {
		t.Fatal("fold discipline broken")
	}
	if sr.Scope("t1", RecorderScopeConfig{}) != t1 {
		t.Fatal("re-registration must return the existing recorder")
	}
	if !sr.Dedicated("t1") || sr.Dedicated("t3") || sr.Folded() != 2 {
		t.Fatalf("dedicated/folded bookkeeping wrong: folded=%d", sr.Folded())
	}
	want := []string{"t1", "t2", OverflowScope}
	if got := sr.Scopes(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("scopes = %v, want %v", got, want)
	}
	// The per-scope warn override holds: 0.3 warns on t1 (threshold 0.2)
	// but not on t2 (template 0.9); the folded scope uses the template too.
	t1.Observe(1, []float64{1}, CycleObservation{Warned: true, Confidence: 0.3})
	t2.Observe(1, []float64{1}, CycleObservation{Warned: true, Confidence: 0.3})
	t3.Observe(1, []float64{1}, CycleObservation{Warned: true, Confidence: 0.95, Detail: "t3"})
	sr.Collect()
	if got := sr.Captured(TriggerWarn); got != 2 {
		t.Fatalf("captured = %d, want 2 (t1 + overflow)", got)
	}
	all := sr.Bundles()
	if len(all) != 2 || all[0].Scope != "t1" || all[1].Scope != OverflowScope {
		t.Fatalf("bundles = %+v", all)
	}
	if sr.Bundle(all[1].ID) == nil {
		t.Fatal("cross-scope Bundle lookup failed")
	}
	// Subscribers apply to existing and future scopes.
	var seen int
	sr.Subscribe(func(*IncidentBundle) { seen++ })
	t5 := sr.Scope("t5", RecorderScopeConfig{}) // folds into overflow (already subscribed)
	_ = t5
	t1.Observe(200, []float64{1}, CycleObservation{Warned: true, Confidence: 1})
	sr.Flush()
	if seen != 1 {
		t.Fatalf("subscriber saw %d bundles, want 1", seen)
	}
}

// TestScopedRecorderOnCapture: the capture-time hook reaches every scope,
// existing and future, as Subscribe does, so a fleet's
// pfm_incident_bundle_seconds counts every capture Captured does.
func TestScopedRecorderOnCapture(t *testing.T) {
	sr, err := NewScopedRecorder(RecorderConfig{Layers: []string{"a"}, Window: 10, WarnThreshold: 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := sr.Scope("t1", RecorderScopeConfig{})
	var seen int
	sr.OnCapture(func(seconds float64) {
		if seconds >= 0 {
			seen++
		}
	})
	after := sr.Scope("t2", RecorderScopeConfig{})
	folded := sr.Scope("t3", RecorderScopeConfig{}) // the overflow recorder, created after the hook
	for _, rec := range []*Recorder{before, after, folded} {
		rec.Observe(1, []float64{1}, CycleObservation{Warned: true, Confidence: 1})
	}
	sr.Collect()
	if got := sr.Captured(TriggerWarn); got != 3 || seen != 3 {
		t.Fatalf("captured %d, hook saw %d, want 3 and 3", got, seen)
	}
}

// TestTracerNewestCompleteID: only complete traces count, and the newest
// wins.
func TestTracerNewestCompleteID(t *testing.T) {
	var nilTr *Tracer
	if nilTr.NewestCompleteID() != 0 {
		t.Fatal("nil tracer must report 0")
	}
	tr := NewTracer(8)
	if tr.NewestCompleteID() != 0 {
		t.Fatal("empty tracer must report 0")
	}
	id1 := tr.PublishApplied(0, "a", 0, 1, 2, 3, 4)
	tr.PublishDropped(0, "b", 0, 5, 6, 7)
	if tr.NewestCompleteID() != 0 {
		t.Fatal("applied/dropped traces must not count as complete")
	}
	tr.CompleteCycle(5, 6, 7, 8) // completes id1 (applied at 4 ≤ evalStart 5)
	if got := tr.NewestCompleteID(); got != id1 {
		t.Fatalf("newest complete = %d, want %d", got, id1)
	}
	id3 := tr.PublishApplied(0, "c", 0, 9, 10, 11, 12)
	tr.CompleteCycle(13, 14, 15, 16)
	if got := tr.NewestCompleteID(); got != id3 {
		t.Fatalf("newest complete = %d, want %d", got, id3)
	}
}

// TestRuntimeSnapshotCacheTTL pins the 500 ms ReadMemStats cache contract:
// a hit inside the TTL returns the identical snapshot even after GC
// activity, and an expired entry refreshes. Captures and the runtime's
// pfm_go_* gauges share this one cache.
func TestRuntimeSnapshotCacheTTL(t *testing.T) {
	c := &runtimeSnapCache
	reset := func(at time.Time) {
		c.mu.Lock()
		c.at = at
		c.mu.Unlock()
	}
	reset(time.Time{}) // force a fresh read
	s1 := ReadRuntimeSnapshot()
	// Provoke GC state changes the cache must NOT see inside the TTL.
	garbage := make([][]byte, 4)
	for i := range garbage {
		garbage[i] = make([]byte, 1<<20)
	}
	garbage = nil
	_ = garbage
	stdruntime.GC()
	if s2 := ReadRuntimeSnapshot(); s2 != s1 {
		t.Fatalf("cache hit returned a different snapshot:\nfirst %+v\nthen  %+v", s1, s2)
	}
	// Past the TTL the next read refreshes: NumGC advanced above.
	reset(time.Now().Add(-runtimeSnapTTL - time.Second))
	if s3 := ReadRuntimeSnapshot(); s3.NumGC <= s1.NumGC {
		t.Fatalf("expired cache did not refresh: NumGC %d -> %d", s1.NumGC, s3.NumGC)
	}
}
