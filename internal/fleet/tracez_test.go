package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/act"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// tracezPlanes builds both HTTP planes over traced pipelines that have each
// run one cycle over a handful of events: the single-tenant runtime's and
// the fleet's.
func tracezPlanes(t *testing.T) map[string]http.Handler {
	t.Helper()
	ctx := context.Background()

	sel, err := act.NewSelector(act.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	noop, err := act.New("noop", act.StateCleanup, act.Params{Cost: 0.1, SuccessProb: 0.9, Complexity: 0.1},
		func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	layer := &core.Layer{Name: "quiet", Predictor: core.PredictorFunc(func(float64) (float64, error) { return 0, nil }), Threshold: 0.5}
	engine, err := core.New(nil, []*core.Layer{layer}, nil, sel, []*act.Action{noop}, nil,
		core.Config{EvalInterval: 1, LeadTime: 1, WarnThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rtTracer := obs.NewTracer(8)
	rtTracer.SetSampleInterval(1)
	rt, err := runtime.New(runtime.Config{
		Engine: engine, Apply: func(ingest.Event) error { return nil }, Tracer: rtTracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Stop(ctx) })

	clock := newTestClock(0)
	cfg := testFleetConfig(specs("a", "b"), clock)
	cfg.Tracer = obs.NewTracer(8)
	cfg.Tracer.SetSampleInterval(1)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Stop(ctx) })

	for i := 0; i < 5; i++ {
		if err := rt.Ingest(ctx, ingest.Event{Kind: ingest.KindSample, Time: float64(i), Variable: "load", Value: 1}); err != nil {
			t.Fatal(err)
		}
		if err := f.Ingest(ctx, sample("a", float64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	rt.CycleBatch([]float64{5})
	if err := f.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Set(5)
	f.EvaluateCycle()
	return map[string]http.Handler{"runtime": rt.Handler(), "fleet": f.Handler()}
}

// TestTracezPlanes: both planes serve the one runtime.ServeTracez — text
// and ?format=json — and ?n= is caller-supplied, so a huge, negative or
// malformed n must neither fail nor size an allocation: the answer is
// bounded by the ring (8 here), the default by 20.
func TestTracezPlanes(t *testing.T) {
	for plane, h := range tracezPlanes(t) {
		for _, tc := range []struct {
			query string
			want  int // traces returned: 5 published, ring of 8
		}{
			{"", 5}, {"?n=2", 2}, {"?n=1000000000", 5}, {"?n=99999999999999999999", 5}, {"?n=-4", 5}, {"?n=x", 5},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez"+tc.query, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s /tracez%s: status %d", plane, tc.query, rec.Code)
			}
			text := rec.Body.String()
			if got := strings.Count(text, "\n") - 3; got != tc.want || !strings.Contains(text, "tracez:") || !strings.Contains(text, "sample") {
				t.Errorf("%s /tracez%s: %d trace lines, want %d:\n%s", plane, tc.query, got, tc.want, text)
			}

			sep := "?"
			if tc.query != "" {
				sep = "&"
			}
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez"+tc.query+sep+"format=json", nil))
			var traces []struct {
				ID    uint64 `json:"id"`
				Kind  string `json:"kind"`
				State string `json:"state"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
				t.Fatalf("%s /tracez%s json: %v\n%s", plane, tc.query, err, rec.Body.String())
			}
			if len(traces) != tc.want {
				t.Errorf("%s /tracez%s json: %d traces, want %d", plane, tc.query, len(traces), tc.want)
			}
			for _, tr := range traces {
				if tr.ID == 0 || tr.Kind != "sample" || tr.State != "done" {
					t.Errorf("%s /tracez%s json: trace %+v, want a complete sample span", plane, tc.query, tr)
				}
			}
		}
	}
}
