package runtime

import (
	"context"
	stdruntime "runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/eventlog"
	"repro/internal/ingest"
	"repro/internal/obs"
)

// Recorder acceptance trace: a failure every recFailEvery ticks, announced
// one tick ahead by a recBurst-event "disk-3" error burst over a steady
// one-event-per-tick "app-1" background — so the error-rate layer warns
// inside the lead time and the diagnoser has an unambiguous culprit.
const (
	recTicks     = 120
	recFailEvery = 20
	recBurst     = 6
)

// recorderTraceEvents returns the error events injected at tick.
func recorderTraceEvents(tick int) []eventlog.Event {
	evs := []eventlog.Event{{
		Time: float64(tick), Component: "app-1", Type: 1,
		Severity: eventlog.SeverityWarning, Message: "background noise",
	}}
	if failAt(tick+1, recFailEvery) {
		for i := 0; i < recBurst; i++ {
			evs = append(evs, eventlog.Event{
				Time: float64(tick), Component: "disk-3", Type: 7,
				Severity: eventlog.SeverityError, Message: "io stall",
			})
		}
	}
	return evs
}

// trainRecorderDiagnoser builds the offline reference: the full trace as
// one event log plus a diagnoser trained on its ground-truth failures.
// The same diagnoser serves the recorder during replay (over the live
// mirror) and the offline comparison (over this log) — bundle suspects
// must match DiagnoseRange on the same window either way.
func trainRecorderDiagnoser(t *testing.T) (*diagnose.Diagnoser, *eventlog.Log) {
	t.Helper()
	offline := eventlog.NewLog()
	var failures []float64
	for tick := 1; tick <= recTicks; tick++ {
		for _, e := range recorderTraceEvents(tick) {
			if err := offline.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if failAt(tick, recFailEvery) {
			failures = append(failures, float64(tick))
		}
	}
	failWins, nonFailWins, err := diagnose.CollectWindowRanges(offline, failures, eventlog.ExtractConfig{
		DataWindow:       3,
		LeadTime:         0, // diagnose from the window adjacent to the failure
		MinEvents:        1,
		NonFailureStride: 7,
		NonFailureGuard:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := diagnose.TrainOnRanges(offline, failWins, nonFailWins, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d, offline
}

// replayRecorderTrace drives one full gated replay of the recorder trace
// through a fresh pipeline (mirror log, error-rate layer, ledger, tracer,
// flight recorder) and returns the recorder and tracer after Stop. A
// single shard keeps the mirror appends serialized in ingest order, and
// ScoreDepth > recTicks rules out ring eviction — together with the
// applied/evaluations gating this makes the replay bit-for-bit
// reproducible, which the determinism assertions below rely on.
func replayRecorderTrace(t *testing.T, diag *diagnose.Diagnoser) (*obs.Recorder, *obs.Tracer) {
	t.Helper()
	mirror := eventlog.NewLog()
	layer := &core.Layer{
		Name: "errrate",
		Predictor: core.PredictorFunc(func(now float64) (float64, error) {
			lo, hi := mirror.ScanWindow(now-1.5, now+1e-9)
			return float64(hi-lo) / 3, nil
		}),
		Threshold: 1,
	}
	eng := testEngine(t, defaultCoreCfg(), layer)
	led, err := obs.NewLedger(obs.LedgerConfig{LeadTime: 1, Window: 40}, "errrate")
	if err != nil {
		t.Fatal(err)
	}
	recordFailures(led, recTicks+recFailEvery, recFailEvery)
	tracer := obs.NewTracer(512) // > total trace events: every span retained
	tracer.SetSampleInterval(1)
	rec, err := obs.NewRecorder(obs.RecorderConfig{
		Scope:         "replay",
		Layers:        []string{"errrate"},
		Window:        12,
		ScoreDepth:    recTicks + recFailEvery,
		WarnThreshold: 0.75,
		Refractory:    15, // < failure period: every episode captures
		MaxBundles:    64,
		Log:           mirror,
		Tracer:        tracer,
		Ledger:        led,
		Diagnose: func(from, to float64) []diagnose.Suspect {
			// The repo-wide now+1e-9 idiom makes the upper bound inclusive,
			// so the trigger tick's own burst is in the diagnosed window.
			return diag.DiagnoseRange(mirror, from, to+1e-9)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Engine:        eng,
		Apply:         func(ev ingest.Event) error { return mirror.Append(ev.Error) },
		Clock:         tickClock(),
		QueueCapacity: 256,
		Overflow:      Block,
		Ledger:        led,
		Tracer:        tracer,
		Recorder:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := rt.Start(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	ingested := int64(0)
	for tick := 1; tick <= recTicks; tick++ {
		for _, e := range recorderTraceEvents(tick) {
			if err := rt.Ingest(ctx, ingest.Event{Kind: ingest.KindError, Time: float64(tick), Error: e}); err != nil {
				t.Fatal(err)
			}
			ingested++
		}
		waitCounter(t, "applied", rt.metrics.Applied.Value, ingested, deadline)
		rt.EvaluateNow()
		waitCounter(t, "evaluations", rt.metrics.Evaluations.Value, int64(tick), deadline)
	}
	if err := rt.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	return rec, tracer
}

// recorderFingerprints renders the retained bundle set (oldest first) as
// one replay-deterministic string.
func recorderFingerprints(rec *obs.Recorder) string {
	var sb strings.Builder
	for _, b := range rec.Bundles() {
		sb.WriteString(b.Fingerprint())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestRecorderIncidentReplay is the flight-recorder acceptance test:
// replaying a trace with injected faults produces warn bundles whose trace
// ID names a complete /tracez span and whose top suspect matches an
// offline DiagnoseRange over the same window — and the bundle set is
// byte-identical across replays and across GOMAXPROCS settings.
func TestRecorderIncidentReplay(t *testing.T) {
	diag, offline := trainRecorderDiagnoser(t)
	rec, tracer := replayRecorderTrace(t, diag)

	bundles := rec.Bundles()
	if len(bundles) == 0 {
		t.Fatal("no incident bundles captured on the faulty trace")
	}
	complete := make(map[uint64]bool)
	for _, v := range tracer.Snapshot() {
		if v.Complete {
			complete[v.ID] = true
		}
	}
	warns := 0
	for _, b := range bundles {
		if b.Trigger != obs.TriggerWarn {
			continue
		}
		warns++
		// The triggering decision correlates with a real, complete span.
		if b.TraceID == 0 || !complete[b.TraceID] {
			t.Fatalf("bundle %s trace ID %d is not a complete tracer span", b.ID, b.TraceID)
		}
		// The embedded suspects blame the burst component and agree with an
		// offline diagnosis of the same window on the full-trace log.
		if len(b.Suspects) == 0 {
			t.Fatalf("bundle %s has no suspects", b.ID)
		}
		if b.Suspects[0].Component != "disk-3" {
			t.Fatalf("bundle %s top suspect = %+v, want disk-3", b.ID, b.Suspects[0])
		}
		off := diag.DiagnoseRange(offline, b.EventsFrom, b.EventsTo+1e-9)
		if len(off) == 0 || off[0] != b.Suspects[0] {
			t.Fatalf("bundle %s suspect %+v != offline DiagnoseRange %+v over [%g, %g]",
				b.ID, b.Suspects[0], off, b.EventsFrom, b.EventsTo)
		}
		if len(b.Scores) == 0 || len(b.Events) == 0 {
			t.Fatalf("bundle %s missing score history (%d) or events (%d)",
				b.ID, len(b.Scores), len(b.Events))
		}
	}
	// One warn capture per failure episode; the repeat warning on the
	// failure tick itself lands in the refractory window.
	episodes := recTicks / recFailEvery
	if warns != episodes {
		t.Fatalf("warn bundles = %d, want %d (one per failure episode)", warns, episodes)
	}
	if got := rec.Captured(obs.TriggerWarn); got != int64(episodes) {
		t.Fatalf("Captured(warn) = %d, want %d", got, episodes)
	}
	if rec.Suppressed() == 0 {
		t.Fatal("refractory gate suppressed nothing despite repeat warnings")
	}

	// Determinism contract: identical fingerprint sets across a second
	// replay and across GOMAXPROCS 1 and 4.
	want := recorderFingerprints(rec)
	again, _ := replayRecorderTrace(t, diag)
	if got := recorderFingerprints(again); got != want {
		t.Fatalf("second replay produced a different bundle set:\n%s\nvs\n%s", got, want)
	}
	prev := stdruntime.GOMAXPROCS(1)
	serial, _ := replayRecorderTrace(t, diag)
	stdruntime.GOMAXPROCS(4)
	wide, _ := replayRecorderTrace(t, diag)
	stdruntime.GOMAXPROCS(prev)
	if got := recorderFingerprints(serial); got != want {
		t.Fatalf("GOMAXPROCS(1) replay produced a different bundle set:\n%s\nvs\n%s", got, want)
	}
	if got := recorderFingerprints(wide); got != want {
		t.Fatalf("GOMAXPROCS(4) replay produced a different bundle set:\n%s\nvs\n%s", got, want)
	}
}

// TestRecorderCaptureHistogram: pfm_incident_bundle_seconds counts every
// capture, the trigger Stop's Flush captures after the final cycle
// included. The captures feed it themselves (Recorder.OnCapture), so it
// needs no subscriber and no bundle is built for it.
func TestRecorderCaptureHistogram(t *testing.T) {
	rig := newCycleRig(t, cycleArm{name: "triggers", tracer: true, recorder: true, triggers: true})
	for i := 0; i < 40; i++ {
		rig.step(t)
	}
	rec := rig.rt.Recorder()
	if rec.Pending() == 0 {
		t.Fatal("nothing pending before Stop: the last cycle's triggers should be")
	}
	if err := rig.rt.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rec.Pending() != 0 {
		t.Fatalf("pending after Stop = %d, want 0", rec.Pending())
	}
	var sb strings.Builder
	if err := rig.rt.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var captured, observed float64
	for _, line := range strings.Split(sb.String(), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		switch {
		case strings.HasPrefix(name, "pfm_incidents_total{"):
			captured += v
		case name == "pfm_incident_bundle_seconds_count":
			observed = v
		}
	}
	if captured < 41 || observed != captured {
		t.Fatalf("pfm_incident_bundle_seconds_count = %g, Σ pfm_incidents_total = %g (want equal, ≥ 41)", observed, captured)
	}
}
