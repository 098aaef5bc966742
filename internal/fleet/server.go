package fleet

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// Tenant health states, ordered roughly by how much attention they need.
const (
	StatusIdle    = "idle"    // never saw an event or a failure
	StatusOK      = "ok"      // receiving events, no active warning
	StatusWarning = "warning" // last cycle warned of an impending failure
	StatusStale   = "stale"   // event stream silent past staleAfter
	StatusFailed  = "failed"  // failure recorded within the failure hold
)

// statusOf derives a tenant's health state at domain time now.
func (f *Fleet) statusOf(tn *tenant, now float64) string {
	if lf := loadTime(&tn.lastFailure); !math.IsNaN(lf) && now-lf <= f.failureHold {
		return StatusFailed
	}
	le := loadTime(&tn.lastEvent)
	if tn.events.Load() == 0 {
		return StatusIdle
	}
	if now-le > staleAfter {
		return StatusStale
	}
	if tn.seat.LastWarned.Load() {
		return StatusWarning
	}
	return StatusOK
}

// TenantView is one tenant's row in the /fleet listing.
type TenantView struct {
	ID          string  `json:"id"`
	Criticality float64 `json:"criticality"`
	Shard       int     `json:"shard"`
	Status      string  `json:"status"`
	Events      int64   `json:"events"`
	Failures    int64   `json:"failures"`
	Warnings    int64   `json:"warnings"`
	Actions     int64   `json:"actions"`
	// LastEventAge is domain seconds since the tenant's newest event; nil
	// while idle.
	LastEventAge *float64 `json:"lastEventAge,omitempty"`
	// Confidence is the last combined-layer confidence; nil before the
	// first cycle (or while abstaining).
	Confidence *float64 `json:"confidence,omitempty"`
	// Versions lists the serving predictor version per layer, in template
	// order.
	Versions []uint64 `json:"versions"`
	// DedicatedLedger is false when the tenant's quality rows are folded
	// into the overflow scope by the cardinality cap.
	DedicatedLedger bool `json:"dedicatedLedger"`
	// DedicatedRecorder is false when the tenant's incident bundles are
	// folded into the overflow recorder by the cardinality cap.
	DedicatedRecorder bool `json:"dedicatedRecorder"`
	// Incidents counts flight-recorder bundles captured on the tenant's
	// scope across all trigger kinds (overflow totals when
	// DedicatedRecorder is false); nil when the fleet runs without a
	// recorder.
	Incidents *int64 `json:"incidents,omitempty"`
	// Quality is the tenant's rolling combined-layer contingency table
	// (from its own scope, or the shared overflow scope when folded);
	// omitted when the fleet runs without a ledger.
	Quality *runtime.TableJSON `json:"quality,omitempty"`
}

// RollupView is the fleet-wide aggregate in the /fleet response.
type RollupView struct {
	Tenants  int            `json:"tenants"`
	Shards   int            `json:"shards"`
	ByStatus map[string]int `json:"byStatus"`
	// WeightedAvailability is Σ criticality·[tenant not failed] / Σ
	// criticality — the service-criticality availability rollup: losing
	// one critical tenant moves it more than losing several minor ones.
	WeightedAvailability float64 `json:"weightedAvailability"`
	// WeightedF1 is the criticality-weighted mean rolling combined-layer
	// F-measure over tenants whose table has one; nil before any tenant
	// accumulates quality.
	WeightedF1 *float64 `json:"weightedF1,omitempty"`
	// FoldedTenants counts tenants sharing the overflow ledger scope.
	FoldedTenants int64 `json:"foldedTenants"`
	// Incidents is the fleet-wide count of captured incident bundles and
	// IncidentsSuppressed the refractory-suppressed trigger count; both
	// stay 0 when the fleet runs without a recorder.
	Incidents           int64 `json:"incidents"`
	IncidentsSuppressed int64 `json:"incidentsSuppressed"`
	// FoldedRecorderTenants counts tenants sharing the overflow recorder.
	FoldedRecorderTenants int64 `json:"foldedRecorderTenants"`
	Cycles                int64 `json:"cycles"`
	QueueDepth            int   `json:"queueDepth"`
	// Generation is the membership generation; add/remove/resize bump it.
	Generation int64 `json:"generation"`
	// ActBudget echoes the per-cycle countermeasure cap (0 = unlimited);
	// ActionsDeferred counts warn decisions the budget deferred.
	ActBudget       int   `json:"actBudget"`
	ActionsDeferred int64 `json:"actionsDeferred"`
	// EventsRateLimited counts events shed at admission over their tenant's
	// rate limit (pfm_events_dropped_total{reason="ratelimited"}).
	EventsRateLimited int64 `json:"eventsRateLimited"`
	EventsHandedOff   int64 `json:"eventsHandedOff"`
}

// Rollup aggregates fleet health at domain time now.
func (f *Fleet) Rollup(now float64) RollupView {
	mem := f.mem.Load()
	r := RollupView{
		Tenants:           len(mem.tenants),
		Shards:            len(mem.shards),
		ByStatus:          make(map[string]int, 5),
		Cycles:            f.Cycles(),
		QueueDepth:        f.QueueDepth(),
		Generation:        mem.gen,
		ActBudget:         f.cfg.ActBudget,
		ActionsDeferred:   f.actDeferred.Value(),
		EventsRateLimited: f.metrics.DroppedRateLimited.Value(),
		EventsHandedOff:   f.handoffN.Value(),
	}
	if f.cfg.Ledger != nil {
		r.FoldedTenants = f.cfg.Ledger.Folded()
	}
	if f.cfg.Recorder != nil {
		for _, k := range obs.TriggerKinds {
			r.Incidents += f.cfg.Recorder.Captured(k)
		}
		r.IncidentsSuppressed = f.cfg.Recorder.Suppressed()
		r.FoldedRecorderTenants = f.cfg.Recorder.Folded()
	}
	var critSum, critUp, f1Sum, f1Crit float64
	for _, tn := range mem.tenants {
		st := f.statusOf(tn, now)
		r.ByStatus[st]++
		critSum += tn.spec.Criticality
		if st != StatusFailed {
			critUp += tn.spec.Criticality
		}
		if led := tn.ledger; led != nil {
			if fm := led.Quality(obs.CombinedLayer).FMeasure(); !math.IsNaN(fm) {
				f1Sum += fm * tn.spec.Criticality
				f1Crit += tn.spec.Criticality
			}
		}
	}
	if critSum > 0 {
		r.WeightedAvailability = critUp / critSum
	} else {
		r.WeightedAvailability = 1
	}
	if f1Crit > 0 {
		v := f1Sum / f1Crit
		r.WeightedF1 = &v
	}
	return r
}

// fleetJSON is the /fleet response body.
type fleetJSON struct {
	Rollup  RollupView   `json:"rollup"`
	Tenants []TenantView `json:"tenants"`
}

// view renders one tenant's row.
func (f *Fleet) view(tn *tenant, now float64) TenantView {
	v := TenantView{
		ID:              tn.spec.ID,
		Criticality:     tn.spec.Criticality,
		Shard:           tn.shardIndex(),
		Status:          f.statusOf(tn, now),
		Events:          tn.events.Load(),
		Failures:        tn.failures.Load(),
		Warnings:        tn.seat.Warnings.Load(),
		Actions:         tn.seat.Actions.Load(),
		Versions:        make([]uint64, len(tn.seat.Tail.Layers)),
		DedicatedLedger: tn.seat.Tail.Ledger != nil,
	}
	if le := loadTime(&tn.lastEvent); !math.IsNaN(le) {
		age := now - le
		v.LastEventAge = &age
	}
	if c := math.Float64frombits(tn.seat.LastConf.Load()); !math.IsNaN(c) && f.Cycles() > 0 {
		v.Confidence = &c
	}
	for i, l := range tn.seat.Tail.Layers {
		v.Versions[i] = l.Version()
	}
	if led := tn.ledger; led != nil {
		t := runtime.ToTableJSON(led.Quality(obs.CombinedLayer))
		v.Quality = &t
	}
	if rec := tn.rec; rec != nil {
		v.DedicatedRecorder = tn.seat.Tail.Recorder != nil
		var n int64
		for _, k := range obs.TriggerKinds {
			n += rec.Captured(k)
		}
		v.Incidents = &n
	}
	return v
}

// TenantStatus returns one tenant's current row (ok == false for an
// unknown ID).
func (f *Fleet) TenantStatus(tenantID string) (TenantView, bool) {
	tn, ok := f.mem.Load().byID[tenantID]
	if !ok {
		return TenantView{}, false
	}
	return f.view(tn, f.now()), true
}

// serveFleet renders the aggregate fleet plane: the rollup plus every
// tenant row (?tenant=ID narrows to one tenant, ?status=failed filters).
func (f *Fleet) serveFleet(w http.ResponseWriter, req *http.Request) {
	now := f.now()
	mem := f.mem.Load()
	out := fleetJSON{Rollup: f.Rollup(now)}
	if id := req.URL.Query().Get("tenant"); id != "" {
		tn, ok := mem.byID[id]
		if !ok {
			http.Error(w, "unknown tenant", http.StatusNotFound)
			return
		}
		out.Tenants = []TenantView{f.view(tn, now)}
	} else {
		want := req.URL.Query().Get("status")
		out.Tenants = make([]TenantView, 0, len(mem.tenants))
		for _, tn := range mem.tenants {
			v := f.view(tn, now)
			if want == "" || v.Status == want {
				out.Tenants = append(out.Tenants, v)
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// health snapshots readiness state: the shell's status, uptime and
// last-cycle age plus the fleet's shape. QueueCapacity is the sum of the
// shards' admission budgets (each tenant is capped at one budget too).
func (f *Fleet) health() runtime.Health {
	mem := f.mem.Load()
	h := f.shell.Health()
	h.Tenants = len(mem.tenants)
	h.Shards = len(mem.shards)
	h.QueueDepth = f.QueueDepth()
	h.QueueCapacity = len(mem.shards) * f.cfg.QueueCapacity
	h.Evaluations = f.Cycles()
	return h
}

// serveTenants admits a tenant into the running fleet: POST /fleet/tenants
// with a TenantSpec JSON body. 201 on success, 409 for a duplicate ID, 400
// for an invalid spec.
func (f *Fleet) serveTenants(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var spec TenantSpec
	if err := json.NewDecoder(io.LimitReader(req.Body, 1<<16)).Decode(&spec); err != nil {
		http.Error(w, "bad tenant spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := f.AddTenant(spec); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrDuplicateTenant) {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	v, _ := f.TenantStatus(spec.ID)
	_ = json.NewEncoder(w).Encode(v)
}

// serveTenant retires one tenant: DELETE /fleet/tenants/{id}. 200 on
// success, 404 for an unknown ID.
func (f *Fleet) serveTenant(w http.ResponseWriter, req *http.Request) {
	id := strings.TrimPrefix(req.URL.Path, "/fleet/tenants/")
	if req.Method != http.MethodDelete {
		http.Error(w, "DELETE only", http.StatusMethodNotAllowed)
		return
	}
	if id == "" {
		http.Error(w, "missing tenant id", http.StatusBadRequest)
		return
	}
	if err := f.RemoveTenant(id); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrUnknownTenant) {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]string{"removed": id})
}

// serveResize changes the shard count: POST /fleet/resize with
// {"shards": N}. The response reports how many queued events the handoff
// re-homed (lifetime total).
func (f *Fleet) serveResize(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var body struct {
		Shards int `json:"shards"`
	}
	if err := json.NewDecoder(io.LimitReader(req.Body, 1<<12)).Decode(&body); err != nil {
		http.Error(w, "bad resize body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := f.Resize(body.Shards); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]int64{
		"shards":     int64(f.Shards()),
		"generation": f.Generation(),
		"handedOff":  f.handoffN.Value(),
	})
}

// Handler serves the base plane (runtime.Plane.Mux: /metrics, /healthz,
// /readyz, /livez, /tracez with Config.Tracer — ?n=, ?format=json as on the
// single-tenant plane — and /incidents across tenants with Config.Recorder)
// plus the fleet view and admin verbs:
//
//	GET    /fleet              — rollup + per-tenant health/quality/versions
//	                             (?tenant=ID for one row, ?status=S filters)
//	POST   /fleet/tenants      — admit a tenant (TenantSpec JSON body)
//	DELETE /fleet/tenants/{id} — retire a tenant (backlog shed, scopes freed)
//	POST   /fleet/resize       — change the shard count ({"shards": N})
func (f *Fleet) Handler() http.Handler {
	p := runtime.Plane{Metrics: f.metrics, Health: f.health, Tracer: f.cfg.Tracer}
	if f.cfg.Recorder != nil {
		p.Incidents = f.cfg.Recorder
	}
	mux := p.Mux()
	mux.HandleFunc("/fleet", f.serveFleet)
	mux.HandleFunc("/fleet/tenants", f.serveTenants)
	mux.HandleFunc("/fleet/tenants/", f.serveTenant)
	mux.HandleFunc("/fleet/resize", f.serveResize)
	return mux
}
