package fleet

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/runtime"
)

// scrapeSeries reads a plane's /metrics into one value per series, keyed by
// the series as the exposition names it (`name{labels}`).
func scrapeSeries(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// checkConserved holds a plane's /metrics to the conservation law, exactly —
// pfm_events_ingested_total = pfm_events_applied_total + Σ
// pfm_events_dropped_total{reason} — and each reason's count to want (a
// reason want leaves out is 0).
func checkConserved(t *testing.T, series map[string]float64, ingested, applied float64, want map[string]float64) {
	t.Helper()
	const dropped = "pfm_events_dropped_total"
	var sum float64
	for s, v := range series {
		if reason, ok := strings.CutPrefix(s, dropped+`{reason="`); ok {
			reason = strings.TrimSuffix(reason, `"}`)
			if v != want[reason] {
				t.Errorf("%s{reason=%q} = %g, want %g", dropped, reason, v, want[reason])
			}
			sum += v
		}
	}
	for reason := range want {
		if _, ok := series[dropped+`{reason="`+reason+`"}`]; !ok {
			t.Errorf("/metrics has no %s{reason=%q} series", dropped, reason)
		}
	}
	in, out := series["pfm_events_ingested_total"], series["pfm_events_applied_total"]
	if in != ingested || out != applied {
		t.Errorf("ingested %g applied %g, want %g and %g", in, out, ingested, applied)
	}
	if in != out+sum {
		t.Errorf("ingested %g != applied %g + Σ dropped %g", in, out, sum)
	}
}

// TestConservationFromMetrics: every event a plane was offered is accounted
// for on /metrics alone — applied, or dropped under a reason that says why.
// The fleet is sent, before it starts draining, a rate-limited tenant's burst,
// more than a DropNewest shard holds and an unregistered tenant's records; the
// single-tenant runtime more than a DropOldest queue holds.
func TestConservationFromMetrics(t *testing.T) {
	ctx := context.Background()
	t.Run("fleet", func(t *testing.T) {
		sp := specs("a", "r")
		sp[1].RateLimit = 2 // at a clock that stays at 0: a burst of 2
		cfg := testFleetConfig(sp, newTestClock(0))
		cfg.Shards, cfg.QueueCapacity, cfg.Overflow = 1, 4, runtime.DropNewest
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var recs []ingest.Record
		send := func(tenant string, n int) {
			for i := 0; i < n; i++ {
				recs = append(recs, ingest.Record{Event: sample(tenant, 0, 1)})
			}
		}
		send("r", 5)     // 2 admitted, 3 over the rate
		send("a", 6)     // 2 admitted into the shard's budget of 4, 4 refused
		send("ghost", 3) // no such tenant
		// A failure mark is no event: it is neither ingested nor dropped.
		recs = append(recs, ingest.Record{Failure: true, Event: ingest.Event{Tenant: "ghost"}})
		if n, err := Pump(ctx, f, NewSliceSource(recs)); err != nil || n != len(recs) {
			t.Fatalf("Pump = (%d, %v), want (%d, nil)", n, err, len(recs))
		}
		if err := f.Start(ctx); err != nil {
			t.Fatal(err)
		}
		if err := f.Stop(ctx); err != nil {
			t.Fatal(err)
		}
		checkConserved(t, scrapeSeries(t, f.Handler()), 14, 4,
			map[string]float64{"ratelimited": 3, "newest": 4, "unknown": 3})
	})
	t.Run("runtime", func(t *testing.T) {
		sel, actions := shellAction(t, &shellHooks{})
		layer := &core.Layer{Name: "l", Threshold: 0.5,
			Predictor: core.PredictorFunc(func(float64) (float64, error) { return 0, nil })}
		eng, err := core.New(nil, []*core.Layer{layer}, nil, sel, actions, nil, shellEngine)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := runtime.New(runtime.Config{Engine: eng, Apply: func(ingest.Event) error { return nil },
			QueueCapacity: 4, Overflow: runtime.DropOldest})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ { // the 6 oldest are evicted
			if err := rt.Ingest(ctx, ingest.Event{Kind: ingest.KindSample, Variable: "x", Time: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Start(ctx); err != nil {
			t.Fatal(err)
		}
		if err := rt.Stop(ctx); err != nil {
			t.Fatal(err)
		}
		checkConserved(t, scrapeSeries(t, rt.Handler()), 10, 4, map[string]float64{"oldest": 6})
	})
}
