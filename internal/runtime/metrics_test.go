package runtime

import (
	"context"
	"io"
	"math"
	"net/http"
	stdruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ingest"
)

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "help text", "kind", "a")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	reg.GaugeFunc("test_gauge", "a gauge", func() float64 { return 2.5 })
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE test_total counter",
		`test_total{kind="a"} 5`,
		"# TYPE test_gauge gauge",
		"test_gauge 2.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramBucketsAndRendering(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "latency", []float64{0.001, 0.01, 0.1}, "stage", "x")
	for _, v := range []float64{0.0005, 0.001, 0.05, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-5.0515) > 1e-9 {
		t.Fatalf("sum = %g", h.Sum())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{stage="x",le="0.001"} 2`, // 0.0005 and the exact bound
		`lat_seconds_bucket{stage="x",le="0.01"} 2`,
		`lat_seconds_bucket{stage="x",le="0.1"} 3`,
		`lat_seconds_bucket{stage="x",le="+Inf"} 4`,
		`lat_seconds_count{stage="x"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSharedFamilyRendersOneTypeLine(t *testing.T) {
	m := NewMetrics()
	m.DroppedOldest.Inc()
	m.DroppedNewest.Add(2)
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, "# TYPE pfm_events_dropped_total"); got != 1 {
		t.Fatalf("TYPE lines for shared family = %d, want 1\n%s", got, out)
	}
	if !strings.Contains(out, `pfm_events_dropped_total{reason="oldest"} 1`) ||
		!strings.Contains(out, `pfm_events_dropped_total{reason="newest"} 2`) {
		t.Fatalf("missing labeled drop counters in:\n%s", out)
	}
	if m.Dropped() != 3 {
		t.Fatalf("Dropped() = %d, want 3", m.Dropped())
	}
}

// TestMemStatsCacheTTL pins the 500 ms ReadMemStats cache contract: a hit
// inside the TTL returns the identical snapshot even after GC activity, an
// expired entry refreshes, and every registry shares the one process-wide
// cache (a scrape storm across planes stops the world at most once per TTL).
func TestMemStatsCacheTTL(t *testing.T) {
	c := goMemCache
	reset := func(at time.Time) {
		c.mu.Lock()
		c.at = at
		c.mu.Unlock()
	}
	reset(time.Time{}) // force a fresh read
	s1 := c.snapshot()
	// Provoke GC state changes the cache must NOT see inside the TTL.
	garbage := make([][]byte, 4)
	for i := range garbage {
		garbage[i] = make([]byte, 1<<20)
	}
	garbage = nil
	_ = garbage
	stdruntime.GC()
	if s2 := c.snapshot(); s2 != s1 {
		t.Fatalf("cache hit returned a different snapshot:\nfirst %+v\nthen  %+v", s1, s2)
	}
	// Past the TTL the next read refreshes: NumGC advanced above.
	reset(time.Now().Add(-memStatsTTL - time.Second))
	if s3 := c.snapshot(); s3.NumGC <= s1.NumGC {
		t.Fatalf("expired cache did not refresh: NumGC %d -> %d", s1.NumGC, s3.NumGC)
	}
	// Both planes share the singleton: plant a sentinel snapshot and pin
	// the TTL window open; two independent metric sets must both render it.
	c.mu.Lock()
	c.stat.NumGC = 1234567
	c.at = time.Now()
	c.mu.Unlock()
	for i, m := range []*Metrics{NewMetrics(), NewMetrics()} {
		var sb strings.Builder
		if err := m.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "pfm_go_gc_cycles_total 1.234567e+06") {
			t.Fatalf("registry %d did not serve the shared cached snapshot", i)
		}
	}
	reset(time.Time{}) // leave a clean cache for other tests
}

// TestBuildInfoVCSLabels: pfm_build_info carries revision and vcstime
// labels resolved from the build settings ("unknown" in test binaries,
// never absent).
func TestBuildInfoVCSLabels(t *testing.T) {
	var sb strings.Builder
	if err := NewMetrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`revision="`, `vcstime="`, `version="`} {
		if !strings.Contains(out, want) {
			t.Fatalf("pfm_build_info missing %s label:\n%s", want, out)
		}
	}
	version, revision, vcsTime := buildIdentity()
	if version == "" || revision == "" || vcsTime == "" {
		t.Fatalf("buildIdentity returned empty fields: %q %q %q", version, revision, vcsTime)
	}
}

// TestServerEndpoints exercises /metrics and /healthz over a real listener,
// including the 503 flip once the pipeline stops.
func TestServerEndpoints(t *testing.T) {
	rt := startRuntime(t, func(ingest.Event) error { return nil }, 4, Block)
	srv, addr, err := rt.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := rt.Ingest(context.Background(), ingest.Event{Time: 1}); err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	if code, body = get("/readyz"); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("readyz: %d %s", code, body)
	}
	if code, body = get("/livez"); code != http.StatusOK || !strings.Contains(body, `"status":"live"`) {
		t.Fatalf("livez: %d %s", code, body)
	}
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	for _, want := range []string{
		"pfm_events_ingested_total",
		"pfm_queue_depth",
		"pfm_queue_capacity 4",
		"pfm_events_dropped_total",
		"pfm_stage_latency_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	if err := rt.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body = get("/healthz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, `"status":"stopped"`) {
		t.Fatalf("healthz after stop: %d %s", code, body)
	}
	if code, body = get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after stop: %d %s", code, body)
	}
	// Liveness must survive the drain: the process still serves.
	if code, body = get("/livez"); code != http.StatusOK ||
		!strings.Contains(body, `"pipeline":"stopped"`) {
		t.Fatalf("livez after stop: %d %s", code, body)
	}
}

// TestReadinessDraining pins the intermediate readiness state: while a
// graceful Stop drains the queues through a slow Apply, readiness reports
// "draining" with 503, flipping to "stopped" when the drain lands.
func TestReadinessDraining(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	entered := make(chan struct{})
	rt := startRuntime(t, func(ingest.Event) error {
		once.Do(func() { close(entered) })
		<-release
		return nil
	}, 8, Block)
	ctx := context.Background()
	if err := rt.Ingest(ctx, ingest.Event{Time: 1}); err != nil {
		t.Fatal(err)
	}
	<-entered // Apply is now wedged mid-drain
	stopped := make(chan error, 1)
	go func() { stopped <- rt.Stop(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for rt.health().Status != "draining" {
		if time.Now().After(deadline) {
			t.Fatalf("health never reported draining: %+v", rt.health())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	if got := rt.health().Status; got != "stopped" {
		t.Fatalf("post-drain status = %q, want stopped", got)
	}
}

// TestProfilingEndpointOptIn verifies /debug/pprof/ serves only when the
// Profiling flag is set.
func TestProfilingEndpointOptIn(t *testing.T) {
	for _, enabled := range []bool{false, true} {
		rt, err := New(Config{
			Engine:    testEngine(t, defaultCoreCfg(), quietLayer()),
			Apply:     func(ingest.Event) error { return nil },
			Profiling: enabled,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		srv, addr, err := rt.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get("http://" + addr + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if enabled && resp.StatusCode != http.StatusOK {
			t.Fatalf("profiling on: /debug/pprof/ returned %d", resp.StatusCode)
		}
		if enabled && !strings.Contains(string(body), "goroutine") {
			t.Fatalf("profiling on: index missing profile list:\n%s", body)
		}
		if !enabled && resp.StatusCode == http.StatusOK {
			t.Fatal("profiling off: /debug/pprof/ still served")
		}
		srv.Close()
		if err := rt.Stop(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
