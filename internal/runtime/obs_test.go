package runtime

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
)

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_seconds", "", []float64{0.01, 0.1, 1}, nil...)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatalf("empty histogram quantile = %g, want NaN", h.Quantile(0.5))
	}
	// 10 observations in (0.01, 0.1]: the median interpolates inside that
	// bucket at rank 5/10 → 0.01 + (0.1-0.01)*5/10 = 0.055.
	for i := 0; i < 10; i++ {
		h.Observe(0.05)
	}
	if got := h.Quantile(0.5); math.Abs(got-0.055) > 1e-12 {
		t.Fatalf("p50 = %g, want 0.055", got)
	}
	// Add 10 in (0.1, 1]: p99 lands in the second bucket near its top.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	if got := h.Quantile(0.99); got <= 0.1 || got > 1 {
		t.Fatalf("p99 = %g, want inside (0.1, 1]", got)
	}
	// Observations beyond the last finite bound clamp to it.
	h2 := reg.Histogram("q2_seconds", "", []float64{0.01, 0.1, 1})
	h2.Observe(50)
	if got := h2.Quantile(0.5); got != 1 {
		t.Fatalf("overflow-bucket quantile = %g, want clamp to 1", got)
	}
	if got := h2.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Quantile(NaN) = %g, want NaN", got)
	}
}

func TestMetricsQuantileAndBuildInfoExport(t *testing.T) {
	m := NewMetrics()
	m.IngestLatency.Observe(0.002)
	m.IngestLatency.Observe(0.004)
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pfm_stage_latency_seconds_quantile gauge",
		`pfm_stage_latency_seconds_quantile{stage="ingest",quantile="0.5"}`,
		`pfm_stage_latency_seconds_quantile{stage="ingest",quantile="0.95"}`,
		`pfm_stage_latency_seconds_quantile{stage="ingest",quantile="0.99"}`,
		"# TYPE pfm_build_info gauge",
		`goversion="go`,
		`gomaxprocs="`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The build info value must be exactly 1.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "pfm_build_info{") && !strings.HasSuffix(line, " 1") {
			t.Fatalf("build info line %q, want value 1", line)
		}
	}
}

// tracedRuntime starts a runtime with tracer + ledger over one layer whose
// score follows the last applied sample value, on a manually stepped clock.
func tracedRuntime(t *testing.T, clock *atomic.Int64) (*Runtime, *obs.Ledger) {
	t.Helper()
	var score atomic.Uint64
	layer := &core.Layer{
		Name: "level",
		Predictor: core.PredictorFunc(func(float64) (float64, error) {
			return math.Float64frombits(score.Load()), nil
		}),
		Threshold: 0.5,
	}
	led, err := obs.NewLedger(obs.LedgerConfig{LeadTime: 5}, "level")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Engine: testEngine(t, defaultCoreCfg(), layer),
		Apply: func(ev ingest.Event) error {
			score.Store(math.Float64bits(ev.Value))
			return nil
		},
		Clock:         func() float64 { return float64(clock.Load()) },
		QueueCapacity: 16,
		Tracer:        obs.NewTracer(64),
		Ledger:        led,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return rt, led
}

func TestRuntimeEndToEndTracing(t *testing.T) {
	var clock atomic.Int64
	rt, _ := tracedRuntime(t, &clock)
	ctx := context.Background()
	if err := rt.Ingest(ctx, ingest.Event{Kind: ingest.KindSample, Time: 1, Variable: "load", Value: 0.9}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "event applied", func() bool { return rt.Metrics().Applied.Value() == 1 })
	rt.EvaluateNow()
	waitFor(t, "cycle completed", func() bool { return rt.Metrics().Evaluations.Value() >= 1 })
	waitFor(t, "trace completed", func() bool {
		for _, v := range rt.Tracer().Snapshot() {
			if v.Complete {
				return true
			}
		}
		return false
	})
	var done obs.TraceView
	for _, v := range rt.Tracer().Snapshot() {
		if v.Complete {
			done = v
		}
	}
	if done.Key != "load" || done.Kind != uint8(ingest.KindSample) || done.Shard != 0 {
		t.Fatalf("trace identity = %+v", done)
	}
	if done.Total <= 0 {
		t.Fatalf("trace total = %v, want > 0", done.Total)
	}
	for _, st := range []int{obs.StageQueue, obs.StageEvaluate} {
		if done.Stages[st] < 0 {
			t.Fatalf("stage %s negative: %v", obs.StageNames[st], done.Stages[st])
		}
	}
	if err := rt.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeLedgerJournaling(t *testing.T) {
	var clock atomic.Int64
	rt, led := tracedRuntime(t, &clock)
	ctx := context.Background()

	cycle := func(now int64) {
		clock.Store(now)
		before := rt.Metrics().Evaluations.Value()
		rt.EvaluateNow()
		waitFor(t, "cycle", func() bool { return rt.Metrics().Evaluations.Value() > before })
	}

	if err := rt.Ingest(ctx, ingest.Event{Kind: ingest.KindSample, Time: 1, Variable: "load", Value: 0.9}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "applied", func() bool { return rt.Metrics().Applied.Value() == 1 })

	cycle(10)             // warns at t=10 (score 0.9 ≥ 0.5)
	led.RecordFailure(12) // ground truth inside (10, 15]
	cycle(20)             // resolves the t=10 prediction; t=20 stays pending
	if err := rt.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}

	if got := led.Quality("level"); got.TP != 1 || got.FP != 0 {
		t.Fatalf("layer table = %+v, want exactly one TP", got)
	}
	if got := led.Quality(obs.CombinedLayer); got.TP != 1 {
		t.Fatalf("combined table = %+v, want one TP", got)
	}
	snap := led.Snapshot()
	// Three cycles × (layer + combined) journaled: the two explicit ones
	// plus the final drain cycle Stop runs.
	if snap.Predictions != 6 {
		t.Fatalf("journaled %d predictions, want 6", snap.Predictions)
	}
}

// TestObservabilityHandlers is the table-driven endpoint coverage: status
// codes, content types, and scrape/parse-ability of every endpoint.
func TestObservabilityHandlers(t *testing.T) {
	var clock atomic.Int64
	rt, led := tracedRuntime(t, &clock)
	defer rt.Stop(context.Background())
	ctx := context.Background()
	if err := rt.Ingest(ctx, ingest.Event{Kind: ingest.KindSample, Time: 1, Variable: "load", Value: 0.9}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "applied", func() bool { return rt.Metrics().Applied.Value() == 1 })
	clock.Store(10)
	rt.EvaluateNow()
	waitFor(t, "cycle", func() bool { return rt.Metrics().Evaluations.Value() >= 1 })
	led.RecordFailure(12)

	srv, addr, err := Serve("127.0.0.1:0", rt.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cases := []struct {
		name         string
		path         string
		wantStatus   int
		wantType     string // Content-Type prefix
		bodyContains []string
		check        func(t *testing.T, body []byte)
	}{
		{
			name: "metrics", path: "/metrics",
			wantStatus: http.StatusOK, wantType: "text/plain",
			bodyContains: []string{
				"pfm_events_ingested_total 1",
				"pfm_queue_depth 0",
				`pfm_ledger_precision{layer="level"}`,
				`pfm_ledger_outcomes{layer="combined",outcome="tp"}`,
				"pfm_build_info{",
				`pfm_stage_latency_seconds_quantile{stage="apply",quantile="0.99"}`,
			},
			check: checkScrapeParseable,
		},
		{
			name: "healthz", path: "/healthz",
			wantStatus: http.StatusOK, wantType: "application/json",
			bodyContains: []string{`"status":"ok"`},
			check: func(t *testing.T, body []byte) {
				var h Health
				if err := json.Unmarshal(body, &h); err != nil {
					t.Fatalf("healthz not JSON: %v", err)
				}
			},
		},
		{
			name: "tracez text", path: "/tracez",
			wantStatus: http.StatusOK, wantType: "text/plain",
			bodyContains: []string{"tracez:", "TRACE", "sample", "load"},
		},
		{
			name: "tracez json", path: "/tracez?format=json&n=5",
			wantStatus: http.StatusOK, wantType: "application/json",
			check: func(t *testing.T, body []byte) {
				var traces []traceJSON
				if err := json.Unmarshal(body, &traces); err != nil {
					t.Fatalf("tracez not JSON: %v", err)
				}
				if len(traces) == 0 || len(traces) > 5 {
					t.Fatalf("tracez returned %d traces", len(traces))
				}
				if traces[0].Kind != "sample" || traces[0].Key != "load" {
					t.Fatalf("trace = %+v", traces[0])
				}
			},
		},
		{
			name: "ledger", path: "/ledger",
			wantStatus: http.StatusOK, wantType: "application/json",
			bodyContains: []string{`"layer":"level"`, `"layer":"combined"`},
			check: func(t *testing.T, body []byte) {
				var lj ledgerJSON
				if err := json.Unmarshal(body, &lj); err != nil {
					t.Fatalf("ledger not JSON: %v", err)
				}
				if lj.LeadTimeSeconds != 5 || lj.Failures != 1 {
					t.Fatalf("ledger body = %+v", lj)
				}
			},
		},
		{name: "unknown", path: "/nope", wantStatus: http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get("http://" + addr + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.wantStatus, body)
			}
			if tc.wantType != "" && !strings.HasPrefix(resp.Header.Get("Content-Type"), tc.wantType) {
				t.Fatalf("content type = %q, want prefix %q", resp.Header.Get("Content-Type"), tc.wantType)
			}
			for _, want := range tc.bodyContains {
				if !strings.Contains(string(body), want) {
					t.Fatalf("body missing %q:\n%s", want, body)
				}
			}
			if tc.check != nil {
				tc.check(t, body)
			}
		})
	}
}

// checkScrapeParseable asserts the exposition is structurally valid
// Prometheus text: every non-comment line is `name{labels} value`, and every
// series name was introduced by a TYPE line.
func checkScrapeParseable(t *testing.T, body []byte) {
	t.Helper()
	typed := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = true
			if parts[3] == "histogram" {
				typed[parts[2]+"_bucket"] = true
				typed[parts[2]+"_sum"] = true
				typed[parts[2]+"_count"] = true
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
			name = name[:i]
		}
		if !typed[name] {
			t.Fatalf("series %q has no TYPE line", name)
		}
	}
}

// TestEndpointsAbsentWithoutObservers pins that /tracez and /ledger are
// only mounted when their backing stores are configured.
func TestEndpointsAbsentWithoutObservers(t *testing.T) {
	rt := startRuntime(t, func(ingest.Event) error { return nil }, 4, Block)
	defer rt.Stop(context.Background())
	srv, addr, err := Serve("127.0.0.1:0", rt.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/tracez", "/ledger"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s without backing store: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestGracefulStopMetricsConsistent pins the shutdown invariant on the
// drain path: every ingested event is accounted applied or dropped, and the
// per-shard depth gauges render zero after Stop.
func TestGracefulStopMetricsConsistent(t *testing.T) {
	rt := startRuntime(t, func(ingest.Event) error { return nil }, 8, Block)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := rt.Ingest(ctx, ingest.Event{Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics()
	if m.Ingested.Value() != m.Applied.Value()+m.Dropped() {
		t.Fatalf("ingested %d != applied %d + dropped %d",
			m.Ingested.Value(), m.Applied.Value(), m.Dropped())
	}
	if rt.QueueDepth() != 0 {
		t.Fatalf("queue depth %d after graceful stop", rt.QueueDepth())
	}
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pfm_queue_depth 0") {
		t.Fatalf("depth gauge not flushed to 0:\n%s", sb.String())
	}
}

// TestHardStopShedsBacklogConsistently pins the fix for the hard-stop
// drain: a canceled Stop context must not wait for the backlog to be
// applied — remaining events are shed, counted as reason="shutdown" drops,
// and the depth gauges flush to zero, preserving ingested = applied +
// dropped.
func TestHardStopShedsBacklogConsistently(t *testing.T) {
	g := newGatedApply()
	rt := startRuntime(t, g.apply, 8, Block)
	fillPastGate(t, rt, g, 6) // event 1 inside Apply, events 2..6 queued

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	stopDone := make(chan error, 1)
	go func() { stopDone <- rt.Stop(canceled) }()
	// Stop hard-cancels immediately; release the gate so the consumer can
	// observe the hard stop and shed the backlog.
	time.Sleep(10 * time.Millisecond)
	close(g.release)
	var stopErr error
	select {
	case stopErr = <-stopDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return after hard stop")
	}
	if stopErr == nil {
		t.Fatal("hard stop returned nil, want context error")
	}

	m := rt.Metrics()
	if m.DroppedShutdown.Value() == 0 {
		t.Fatalf("no shutdown drops recorded (applied=%d)", m.Applied.Value())
	}
	if m.Ingested.Value() != m.Applied.Value()+m.Dropped() {
		t.Fatalf("ingested %d != applied %d + dropped %d",
			m.Ingested.Value(), m.Applied.Value(), m.Dropped())
	}
	if rt.QueueDepth() != 0 {
		t.Fatalf("queue depth %d after hard stop", rt.QueueDepth())
	}
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "pfm_queue_depth 0") {
		t.Fatalf("depth gauge not flushed to 0 after hard stop:\n%s", out)
	}
	if !strings.Contains(out, `pfm_events_dropped_total{reason="shutdown"}`) {
		t.Fatalf("shutdown drop reason missing:\n%s", out)
	}
}
