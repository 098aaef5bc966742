package runtime

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/pfmmodel"
	"repro/internal/predict"
)

// Health is the /healthz and /readyz response body, on the single-tenant
// and the fleet plane alike.
type Health struct {
	// Status is "ok" while serving, "draining" once a graceful Stop has
	// begun (queues flushing through Apply), and "stopped" after the
	// drain completes. Readiness returns 503 for both non-ok states;
	// liveness (/livez) stays 200 for the life of the process.
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Tenants       int     `json:"tenants,omitempty"` // fleet plane only
	Shards        int     `json:"shards"`
	QueueDepth    int     `json:"queueDepth"`    // summed across shards
	QueueCapacity int     `json:"queueCapacity"` // summed across shards
	Evaluations   int64   `json:"evaluations"`
	// LastCycleAgoSeconds is the age of the newest act decision; -1
	// before the first cycle completes.
	LastCycleAgoSeconds float64 `json:"lastCycleAgoSeconds"`
}

// health snapshots readiness state.
func (r *Runtime) health() Health {
	h := r.shell.Health()
	h.Shards = 1 // one queue here; the fleet plane reports its shard count
	h.QueueDepth = r.QueueDepth()
	h.QueueCapacity = r.ring.Capacity()
	h.Evaluations = r.metrics.Evaluations.Value()
	return h
}

// KindLabel names an event kind byte for trace rendering (obs.WriteText).
func KindLabel(k uint8) string {
	switch ingest.Kind(k) {
	case ingest.KindError:
		return "error"
	case ingest.KindSample:
		return "sample"
	default:
		return strconv.Itoa(int(k))
	}
}

// traceJSON is one trace in /tracez?format=json.
type traceJSON struct {
	ID      uint64           `json:"id"`
	Kind    string           `json:"kind"`
	Key     string           `json:"key"`
	Shard   int              `json:"shard"`
	State   string           `json:"state"` // "done" | "applied" | "dropped"
	TotalNs int64            `json:"total_ns"`
	Stages  map[string]int64 `json:"stages_ns"`
}

func toTraceJSON(v obs.TraceView) traceJSON {
	state := "applied"
	switch {
	case v.Dropped:
		state = "dropped"
	case v.Complete:
		state = "done"
	}
	stages := make(map[string]int64, obs.NumStages)
	for i, d := range v.Stages {
		// Incomplete traces omit the cycle stages they never reached.
		if d == 0 && i > obs.StageApply && !v.Complete {
			continue
		}
		stages[obs.StageNames[i]] = int64(d)
	}
	return traceJSON{
		ID: v.ID, Kind: KindLabel(v.Kind), Key: v.Key, Shard: v.Shard,
		State: state, TotalNs: int64(v.Total), Stages: stages,
	}
}

// serveTracez renders the /tracez plane over a tracer: the slowest recent
// end-to-end traces as a human text table by default, JSON with
// ?format=json, count via ?n= (default 20; Slowest clamps it to the ring).
func serveTracez(w http.ResponseWriter, req *http.Request, tr *obs.Tracer) {
	n := 20
	if v, err := strconv.Atoi(req.URL.Query().Get("n")); err == nil && v > 0 {
		n = v
	}
	traces := tr.Slowest(n)
	if req.URL.Query().Get("format") == "json" {
		out := make([]traceJSON, len(traces))
		for i, v := range traces {
			out[i] = toTraceJSON(v)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "tracez: %d slowest of the %d most recent traces\n\n", len(traces), tr.Capacity())
	_ = obs.WriteText(w, traces, KindLabel)
}

// TableJSON renders a contingency table with its derived metrics; metric
// pointers are nil while their denominator is empty (JSON cannot carry NaN).
type TableJSON struct {
	TP        int      `json:"tp"`
	FP        int      `json:"fp"`
	TN        int      `json:"tn"`
	FN        int      `json:"fn"`
	Precision *float64 `json:"precision,omitempty"`
	Recall    *float64 `json:"recall,omitempty"`
	FPR       *float64 `json:"fpr,omitempty"`
	F1        *float64 `json:"f1,omitempty"`
}

// ToTableJSON renders c for /ledger and the fleet's /fleet rows.
func ToTableJSON(c predict.ContingencyTable) TableJSON {
	finite := func(v float64) *float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		return &v
	}
	return TableJSON{
		TP: c.TP, FP: c.FP, TN: c.TN, FN: c.FN,
		Precision: finite(c.Precision()), Recall: finite(c.Recall()),
		FPR: finite(c.FPR()), F1: finite(c.FMeasure()),
	}
}

// ledgerLayerJSON is one layer in the /ledger response.
type ledgerLayerJSON struct {
	Layer      string    `json:"layer"`
	Rolling    TableJSON `json:"rolling"`
	Cumulative TableJSON `json:"cumulative"`
	Pending    int       `json:"pending"`
}

// ledgerJSON is the /ledger response body.
type ledgerJSON struct {
	LeadTimeSeconds float64           `json:"leadTimeSeconds"`
	SlackSeconds    float64           `json:"slackSeconds"`
	WindowSeconds   float64           `json:"windowSeconds"`
	Watermark       float64           `json:"watermark"`
	Predictions     int64             `json:"predictions"`
	Failures        int64             `json:"failures"`
	Layers          []ledgerLayerJSON `json:"layers"`
	// Model compares the Section 5 CTMC under the combined layer's
	// measured cumulative quality against the paper's Table 2 reference;
	// absent until the table can parameterize the chain.
	Model *obs.ModelAssessment `json:"model,omitempty"`
}

// serveLedger renders the prediction-quality ledger as JSON.
func (r *Runtime) serveLedger(w http.ResponseWriter, _ *http.Request) {
	snap := r.cfg.Ledger.Snapshot()
	out := ledgerJSON{
		LeadTimeSeconds: snap.LeadTime,
		SlackSeconds:    snap.Slack,
		WindowSeconds:   snap.Window,
		Watermark:       snap.Watermark,
		Predictions:     snap.Predictions,
		Failures:        snap.Failures,
		Layers:          make([]ledgerLayerJSON, len(snap.Layers)),
	}
	for i, lq := range snap.Layers {
		out.Layers[i] = ledgerLayerJSON{
			Layer:      lq.Layer,
			Rolling:    ToTableJSON(lq.Rolling),
			Cumulative: ToTableJSON(lq.Cumulative),
			Pending:    lq.Pending,
		}
	}
	if a, err := obs.AssessModel(r.cfg.Ledger.Cumulative(obs.CombinedLayer), pfmmodel.DefaultParams()); err == nil {
		out.Model = &a
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// IncidentSummary is one bundle row in the /incidents list view.
type IncidentSummary struct {
	ID          string          `json:"id"`
	Scope       string          `json:"scope,omitempty"`
	Trigger     obs.TriggerKind `json:"trigger"`
	Time        float64         `json:"time"`
	Detail      string          `json:"detail,omitempty"`
	Confidence  float64         `json:"confidence"`
	Action      string          `json:"action,omitempty"`
	TraceID     uint64          `json:"trace_id,omitempty"`
	EventsTotal int             `json:"events_total"`
	ScoreRows   int             `json:"score_rows"` // the bundle's score rows: its trigger's own, on a fleet's overflow recorder
	TopSuspect  string          `json:"top_suspect,omitempty"`
}

// SummarizeIncident projects a bundle onto its list row.
func SummarizeIncident(b *obs.IncidentBundle) IncidentSummary {
	s := IncidentSummary{
		ID: b.ID, Scope: b.Scope, Trigger: b.Trigger, Time: b.Time,
		Detail: b.Detail, Confidence: b.Confidence, Action: b.Action,
		TraceID: b.TraceID, EventsTotal: b.EventsTotal, ScoreRows: len(b.Scores),
	}
	if len(b.Suspects) > 0 {
		s.TopSuspect = b.Suspects[0].Component
	}
	return s
}

// IncidentSource is a flight recorder as the plane reads it — /incidents its
// bundles, the incident metric families (RegisterRecorderMetrics) its counts
// and capture times: obs.Recorder, or a fleet's obs.ScopedRecorder.
type IncidentSource interface {
	Bundles() []*obs.IncidentBundle
	Bundle(id string) *obs.IncidentBundle
	Captured(kind obs.TriggerKind) int64
	Suppressed() int64
	OnCapture(fn func(seconds float64))
}

// serveIncidents renders the /incidents plane: the newest-last summary
// list by default, one full bundle with ?id=.
func serveIncidents(w http.ResponseWriter, req *http.Request, src IncidentSource) {
	w.Header().Set("Content-Type", "application/json")
	if id := req.URL.Query().Get("id"); id != "" {
		b := src.Bundle(id)
		if b == nil {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintf(w, "{\"error\":\"no bundle %q (evicted or never captured)\"}\n", id)
			return
		}
		_ = json.NewEncoder(w).Encode(b)
		return
	}
	bundles := src.Bundles()
	out := make([]IncidentSummary, len(bundles))
	for i, b := range bundles {
		out[i] = SummarizeIncident(b)
	}
	_ = json.NewEncoder(w).Encode(out)
}

// Plane is what the base observability plane serves. Runtime and
// fleet.Fleet each build one and add their own endpoints to its mux.
type Plane struct {
	Metrics *Metrics
	Health  func() Health
	// Tracer enables /tracez, Incidents enables /incidents; nil leaves the
	// endpoint unregistered (404).
	Tracer    *obs.Tracer
	Incidents IncidentSource
}

// Mux registers the base endpoints both planes serve:
//
//	GET /metrics   — Prometheus text exposition of the pipeline metrics
//	GET /healthz   — JSON readiness (200 while status is "ok", 503 once
//	                 draining or stopped); /readyz is an alias
//	GET /livez     — JSON liveness: 200 for the life of the process,
//	                 whatever the drain state — restarting a draining pod
//	                 would turn every graceful shutdown into a kill
//	GET /tracez    — slowest recent end-to-end traces (text table, or JSON
//	                 with ?format=json; ?n= sets the count)
//	GET /incidents — flight-recorder bundles: summary list, or one full
//	                 bundle with ?id=
func (p Plane) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = p.Metrics.WritePrometheus(w)
	})
	ready := func(w http.ResponseWriter, _ *http.Request) {
		h := p.Health()
		w.Header().Set("Content-Type", "application/json")
		if h.Status != "ok" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(h)
	}
	mux.HandleFunc("/healthz", ready)
	mux.HandleFunc("/readyz", ready)
	mux.HandleFunc("/livez", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"live\",\"pipeline\":%q}\n", p.Health().Status)
	})
	if p.Tracer != nil {
		mux.HandleFunc("/tracez", func(w http.ResponseWriter, req *http.Request) {
			serveTracez(w, req, p.Tracer)
		})
	}
	if p.Incidents != nil {
		mux.HandleFunc("/incidents", func(w http.ResponseWriter, req *http.Request) {
			serveIncidents(w, req, p.Incidents)
		})
	}
	return mux
}

// Serve starts an observability server for h on addr (e.g. ":9600"; ":0"
// picks a free port). It returns the server and the bound address; shut it
// down with srv.Shutdown or srv.Close.
func Serve(addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

// Handler serves the base plane (Plane.Mux: /metrics, /healthz, /readyz,
// /livez, /tracez with Config.Tracer, /incidents with Config.Recorder) plus:
//
//	GET /ledger    — prediction-quality ledger snapshot (with Config.Ledger)
//	GET /layers    — per-layer predictor lifecycle status: state, serving
//	                 version, drift/retrain/swap counters (with
//	                 Config.Lifecycle)
func (r *Runtime) Handler() http.Handler {
	p := Plane{Metrics: r.metrics, Health: r.health, Tracer: r.cfg.Tracer}
	if r.cfg.Recorder != nil {
		p.Incidents = r.cfg.Recorder
	}
	mux := p.Mux()
	if r.cfg.Ledger != nil {
		mux.HandleFunc("/ledger", r.serveLedger)
	}
	if r.cfg.Lifecycle != nil {
		mux.HandleFunc("/layers", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(r.cfg.Lifecycle.States())
		})
	}
	return mux
}
