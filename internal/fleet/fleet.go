package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	stdruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/act"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// ErrFleet is wrapped by all package errors.
var ErrFleet = errors.New("fleet: invalid operation")

// ErrUnknownTenant is returned by Ingest/RecordFailure for an unregistered
// tenant ID.
var ErrUnknownTenant = fmt.Errorf("%w: unknown tenant", ErrFleet)

// ErrDuplicateTenant is returned by New/AddTenant for a tenant ID that is
// already registered.
var ErrDuplicateTenant = fmt.Errorf("%w: duplicate tenant", ErrFleet)

// Event and Record are the ingest package's, named here for bench/pfmbench
// until it moves to ingest (ROADMAP 10(b)).
type (
	Event  = ingest.Event
	Record = ingest.Record
)

// TenantState is a tenant's predictor-visible monitoring state (e.g. its
// mirrored error log and SAR series), owned by the fleet's locking: Apply
// runs under the shared side of the state lock on the tenant's shard,
// evaluation under the exclusive side.
type TenantState any

// TenantSpec registers one tenant.
type TenantSpec struct {
	// ID must be unique, non-empty, and free of '|', newline, and 0x1f
	// (the trace formats use them as separators).
	ID string
	// Criticality weights the tenant in the fleet availability rollup and
	// in the act-budget priority queue (the Noisy-OR paper's
	// service-criticality idea: losing a critical service hurts more).
	// Zero defaults to 1.
	Criticality float64
	// RateLimit caps the tenant's admission rate in events per domain second
	// (token bucket on the fleet's Clock, burst of one second's credit and at
	// least 1). A push that finds the bucket empty is shed at once — counted
	// ingested and dropped with reason "ratelimited" — and never parks, so a
	// misbehaving tenant loses only its own events and no queue waits on the
	// clock. 0 means unlimited.
	RateLimit float64
}

// Config parameterizes a fleet. Every tenant's engine fuses its layers
// with core's default combiner, the share of layers voting failure-prone; a
// per-tenant combiner returns with its first caller, the noisy-OR
// arbitration of ROADMAP item 4(c).
type Config struct {
	// Tenants is the initial fleet membership. The fleet is elastic:
	// AddTenant/RemoveTenant admit and retire tenants while it runs, and
	// Resize changes the shard count with a queue handoff (the
	// consistent-hash ring moves only ~1/Shards of tenants).
	Tenants []TenantSpec
	// Layers are the shared layer templates instantiated per tenant.
	Layers []LayerTemplate
	// NewState builds a tenant's monitoring state.
	NewState func(t TenantSpec) (TenantState, error)
	// Apply integrates one event into its tenant's state. Events of one
	// tenant apply serialized and in order; different tenants may apply
	// concurrently (on different shards). Apply never overlaps layer
	// scoring — same locking contract as runtime.Config.Apply.
	Apply func(st TenantState, ev ingest.Event) error
	// Engine is the per-tenant MEA configuration; its EvalInterval is the
	// domain cadence the caller runs EvaluateCycle at.
	Engine core.Config
	// NewActions optionally supplies a tenant's countermeasure set. Nil
	// installs a no-op "observe" action — the fleet plane is then a pure
	// monitoring/prediction tier.
	NewActions func(t TenantSpec) (*act.Selector, []*act.Action, error)

	// Shards is the number of ingest shard queues/consumers (default
	// min(GOMAXPROCS, 8)); Resize changes it live. QueueCapacity (default
	// 1024) is one number used twice: the most events one tenant's sub-queue
	// holds, and the most a shard holds across all of its tenants. A shard
	// therefore fills before any one tenant's cap can bind: the cap does not
	// reserve room for the others, and under Block one hot tenant can hold a
	// whole shard's budget while its neighbours' pushes park (the drain
	// still interleaves them, deficit round robin). Overflow is the
	// full-queue policy (default Block).
	Shards        int
	QueueCapacity int
	Overflow      runtime.OverflowPolicy
	// Workers sizes the shared evaluation pool (default GOMAXPROCS; 1
	// runs inline). The cycle body hands it index ranges, so a worker
	// beyond the first costs a few cache-line transfers a cycle, not one
	// per tenant.
	Workers int
	// BatchSize is the cross-tenant amortization unit: shard consumers
	// drain up to BatchSize events per lock acquisition, and a cycle scores
	// one layer over a BatchSize-tenant range per tile — batch scorers one
	// call per tile — and acts BatchSize tenants per range (default 64). A
	// fleet no larger than one BatchSize acts on one goroutine.
	BatchSize int
	// ActBudget caps how many tenants may execute a countermeasure per
	// evaluation cycle. When more warn decisions select an action than the
	// budget allows, a criticality-weighted priority queue (criticality ×
	// confidence, ties by tenant ID) decides which tenants act; the rest
	// are deferred — warned and journaled, but not executed — and counted
	// on pfm_fleet_act_deferred_total. 0 means unlimited.
	ActBudget int
	// Clock reads the domain time a cycle evaluates at and the token buckets
	// refill on (default: seconds since Start).
	Clock func() float64

	// Tracer samples end-to-end event spans (nil disables); Ledger keeps
	// per-tenant prediction quality under its cardinality cap (nil disables
	// journaling).
	Tracer *obs.Tracer
	Ledger *obs.ScopedLedger
	// Recorder multiplexes per-tenant flight recorders under the same
	// cardinality cap/overflow-fold discipline as Ledger: each tenant's
	// act stage feeds its scope, warn-trigger thresholds are weighted by
	// tenant criticality (critical tenants capture bundles at lower
	// confidence), and bundles surface on /incidents and in /fleet rows.
	// Nil disables incident capture.
	Recorder *obs.ScopedRecorder
	// JournalLayers journals per-layer rows for every tenant with a
	// dedicated ledger scope (combined decisions are always journaled).
	JournalLayers bool
}

// staleAfter marks a tenant "stale" when no event arrived for this many
// domain seconds.
const staleAfter = 900

// tenant is one registered tenant's runtime slice.
type tenant struct {
	spec  TenantSpec
	q     *tenantQueue
	state TenantState
	// seat is the tenant's row in the cycle body: its engine, its decision
	// tallies and its act tail — its layers, its journal when it has a
	// dedicated ledger scope (JournalLayers says whether per-layer rows go
	// in; the tail advances it), its scoped flight recorder (nil without
	// Config.Recorder).
	seat runtime.Seat
	// ledger is the tenant's ledger scope (nil without Config.Ledger): its
	// own journal — then seat.Tail.Ledger too, written in the act fan-out —
	// or the overflow journal it is folded into (seat.Tail.Fold), which
	// takes failures as they arrive and one combined bucket a cycle from
	// finishCycle.
	ledger *obs.Ledger
	recOwn bool // seat.Tail.Recorder is dedicated (not the overflow fold)

	events      atomic.Int64
	deferred    atomic.Int64 // act-budget deferrals
	failures    atomic.Int64
	lastEvent   atomic.Uint64 // Float64bits; NaN until the first event
	lastFailure atomic.Uint64 // Float64bits; NaN until the first failure
}

// shardIndex returns the shard currently draining the tenant's sub-queue.
func (tn *tenant) shardIndex() int { return tn.q.owner.Load().shard }

func storeTime(a *atomic.Uint64, t float64) { a.Store(math.Float64bits(t)) }
func loadTime(a *atomic.Uint64) float64     { return math.Float64frombits(a.Load()) }

// membership is one immutable generation of the fleet's shape: who the
// tenants are and which shard queues exist. Readers (Ingest, Rollup, the
// cycle) load it once and work against a consistent snapshot;
// Add/Remove/Resize install a successor atomically.
type membership struct {
	gen     int64
	tenants []*tenant // the cycle's rows, in order
	byID    map[string]*tenant
	ring    *ring
	shards  []*shardQueue
}

// withTenants returns the successor generation over the same ring and
// shards with the given tenant list (not yet indexed; see install).
func (m *membership) withTenants(tenants []*tenant) *membership {
	next := &membership{
		gen:     m.gen + 1,
		tenants: tenants,
		byID:    make(map[string]*tenant, len(tenants)),
		ring:    m.ring,
		shards:  m.shards,
	}
	for _, tn := range tenants {
		next.byID[tn.spec.ID] = tn
	}
	return next
}

// Fleet is the multi-tenant MEA runtime. Construct with New, drive with
// Start/Ingest (or Pump), change shape with AddTenant/RemoveTenant/Resize,
// observe via Handler, finish with Stop.
type Fleet struct {
	cfg     Config
	mem     atomic.Pointer[membership]
	metrics *runtime.Metrics
	// failureHold keeps a tenant "failed" for this many domain seconds after
	// a recorded failure: the warning lead time, at least 300.
	failureHold float64
	// shell owns the goroutines (shard consumers, pool) and the stop
	// protocol; cycle is the cycle body over the tenants' seats, and states
	// their states in the same order, handed to the layer scorers — both set
	// between cycles (install).
	shell  *runtime.Shell
	cycle  runtime.CycleCore
	states []TenantState
	// overflow is the ledger's overflow journal once a tenant has folded
	// into it (set between cycles, never cleared: it outlives its members).
	overflow *obs.Ledger

	// adminMu serializes membership changes (AddTenant/RemoveTenant/
	// Resize) with each other and with Start/Stop.
	adminMu sync.Mutex

	// stateMu guards every tenant's state: shard consumers apply chunks
	// under the shared side, cycle evaluation under the exclusive side.
	stateMu sync.RWMutex

	// acct counts events admitted and events settled, fleet-wide — handoffs
	// move queued items between shards, so Barrier's accounting lives above
	// the shard level.
	acct settlement

	handoffN    *runtime.Counter // queued events re-homed by membership changes
	actDeferred *runtime.Counter
	evalErrors  []*runtime.Counter // per layer template: scores that errored (abstained)
	shardDrops  []*runtime.Counter // per shard index, reused across resizes
	shardMetN   int                // shard indices with registered gauges

	actCands []*tenant // budget-pass scratch, used inside a cycle
}

// New validates the configuration and assembles the fleet (not yet
// running; call Start).
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("%w: no tenants", ErrFleet)
	}
	if len(cfg.Layers) == 0 {
		return nil, fmt.Errorf("%w: no layer templates", ErrFleet)
	}
	if cfg.NewState == nil || cfg.Apply == nil {
		return nil, fmt.Errorf("%w: nil NewState/Apply", ErrFleet)
	}
	if cfg.QueueCapacity < 0 || cfg.Shards < 0 || cfg.Workers < 0 || cfg.BatchSize < 0 || cfg.ActBudget < 0 {
		return nil, fmt.Errorf("%w: negative sizing", ErrFleet)
	}
	if cfg.Shards == 0 {
		cfg.Shards = stdruntime.GOMAXPROCS(0)
		if cfg.Shards > 8 {
			cfg.Shards = 8
		}
	}
	if cfg.QueueCapacity == 0 {
		cfg.QueueCapacity = 1024
	}
	if cfg.Workers == 0 {
		cfg.Workers = stdruntime.GOMAXPROCS(0)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	for i, tmpl := range cfg.Layers {
		if tmpl.Name == "" || (tmpl.Score == nil && tmpl.ScoreBatch == nil) {
			return nil, fmt.Errorf("%w: layer template %d needs a name and a scorer", ErrFleet, i)
		}
	}
	f := &Fleet{cfg: cfg, metrics: runtime.NewMetrics(), failureHold: math.Max(cfg.Engine.LeadTime, 300)}
	f.shell = runtime.NewShell(runtime.ShellConfig{
		Err:     ErrFleet,
		Workers: cfg.Workers,
		Tracer:  cfg.Tracer,
		Cycle:   &f.cycle,
		CloseQueues: func() {
			// Under adminMu: Resize changes the shard set.
			f.adminMu.Lock()
			defer f.adminMu.Unlock()
			for _, q := range f.mem.Load().shards {
				q.close()
			}
		},
		// Capture any triggers the final cycle raised and deliver the tail
		// to subscribers.
		Quiesced: cfg.Recorder.Flush,
	})
	if cfg.Clock == nil {
		f.cfg.Clock = func() float64 { return f.shell.Uptime().Seconds() }
	}
	f.cycle = runtime.CycleCore{
		Shell: f.shell, Metrics: f.metrics, Tracer: cfg.Tracer, State: &f.stateMu,
		Recorder: cfg.Recorder, Clock: f.now, Layers: len(cfg.Layers), Span: cfg.BatchSize,
		Score: f.scoreTile, Finish: f.finishCycle,
	}
	if cfg.ActBudget > 0 {
		f.cycle.Resolve = f.resolveBudget
	}
	mem := &membership{
		gen:    1,
		byID:   make(map[string]*tenant, len(cfg.Tenants)),
		ring:   newRing(cfg.Shards, defaultVnodes),
		shards: make([]*shardQueue, cfg.Shards),
	}
	for i, spec := range cfg.Tenants {
		tn, err := f.buildTenant(mem.byID, i, spec)
		if err != nil {
			return nil, err
		}
		mem.tenants = append(mem.tenants, tn)
		mem.byID[tn.spec.ID] = tn
	}
	reg := f.metrics.Registry()
	f.handoffN = reg.Counter("pfm_fleet_handoff_total",
		"Queued events re-homed onto another shard by membership changes.")
	f.actDeferred = reg.Counter("pfm_fleet_act_deferred_total",
		"Warn decisions whose countermeasure was deferred by the act budget.")
	f.evalErrors = make([]*runtime.Counter, len(cfg.Layers))
	for li, tmpl := range cfg.Layers {
		f.evalErrors[li] = reg.Counter("pfm_layer_eval_errors_total",
			"Layer evaluations that returned an error (scored as abstain).", "layer", tmpl.Name)
	}
	for s := range mem.shards {
		mem.shards[s] = f.newShardQueueAt(s)
	}
	for _, tn := range mem.tenants {
		tn.q = newTenantQueue(tn, cfg.QueueCapacity)
		mem.shards[mem.ring.shardOf(tn.spec.ID)].attach(tn.q)
	}
	f.install(mem)
	// Gauges register after the first membership store: their closures read
	// the current generation.
	reg.GaugeFunc("pfm_fleet_tenants", "Registered tenants.",
		func() float64 { return float64(len(f.mem.Load().tenants)) })
	reg.GaugeFunc("pfm_fleet_generation", "Membership generation (bumped by add/remove/resize).",
		func() float64 { return float64(f.mem.Load().gen) })
	reg.GaugeFunc("pfm_fleet_act_budget", "Per-cycle countermeasure budget (0 = unlimited).",
		func() float64 { return float64(cfg.ActBudget) })
	reg.GaugeFunc("pfm_fleet_weighted_availability",
		"Criticality-weighted fraction of tenants not currently failed.",
		func() float64 { return f.Rollup(f.now()).WeightedAvailability })
	f.registerShardGauges(cfg.Shards)
	if cfg.Ledger != nil {
		reg.GaugeFunc("pfm_fleet_ledger_folded",
			"Tenants sharing the overflow ledger scope (cardinality cap).",
			func() float64 { return float64(cfg.Ledger.Folded()) })
	}
	if rec := cfg.Recorder; rec != nil {
		runtime.RegisterRecorderMetrics(reg, rec)
		reg.GaugeFunc("pfm_fleet_recorder_folded",
			"Tenants sharing the overflow flight recorder (cardinality cap).",
			func() float64 { return float64(rec.Folded()) })
	}
	return f, nil
}

// newShardQueueAt builds the queue for shard index s, reusing the shard's
// drop counter when the index existed in an earlier generation.
func (f *Fleet) newShardQueueAt(s int) *shardQueue {
	reg := f.metrics.Registry()
	for len(f.shardDrops) <= s {
		f.shardDrops = append(f.shardDrops, reg.Counter("pfm_fleet_shard_dropped_total",
			"Events dropped per fleet ingest shard (every reason but unknown: those name no shard).", "shard", strconv.Itoa(len(f.shardDrops))))
	}
	return newShardQueue(f.cfg.Overflow, f.cfg.QueueCapacity, f.metrics, f.shardDrops[s],
		f.cfg.Tracer, &f.acct, f.now, s)
}

// registerShardGauges registers depth gauges for shard indices [shardMetN,
// n). A gauge reads the live generation, so it reports 0 for an index the
// fleet has since shrunk away from.
func (f *Fleet) registerShardGauges(n int) {
	reg := f.metrics.Registry()
	for s := f.shardMetN; s < n; s++ {
		idx := s
		reg.GaugeFunc("pfm_fleet_shard_queue_depth", "Events waiting per fleet ingest shard.", func() float64 {
			mem := f.mem.Load()
			if idx < len(mem.shards) {
				return float64(mem.shards[idx].depth())
			}
			return 0
		}, "shard", strconv.Itoa(s))
	}
	if n > f.shardMetN {
		f.shardMetN = n
	}
}

// buildTenant assembles one tenant's state, layers, engine and journal
// scope. byID is the membership the tenant is validated against.
func (f *Fleet) buildTenant(byID map[string]*tenant, i int, spec TenantSpec) (*tenant, error) {
	if spec.ID == "" || strings.ContainsAny(spec.ID, "|\n\x1f") {
		return nil, fmt.Errorf("%w: tenant %d has invalid ID %q", ErrFleet, i, spec.ID)
	}
	if _, dup := byID[spec.ID]; dup {
		return nil, fmt.Errorf("%w %q", ErrDuplicateTenant, spec.ID)
	}
	if spec.Criticality < 0 || math.IsNaN(spec.Criticality) || math.IsInf(spec.Criticality, 0) {
		return nil, fmt.Errorf("%w: tenant %q criticality %g", ErrFleet, spec.ID, spec.Criticality)
	}
	if spec.RateLimit < 0 || math.IsNaN(spec.RateLimit) || math.IsInf(spec.RateLimit, 0) {
		return nil, fmt.Errorf("%w: tenant %q rate limit %g", ErrFleet, spec.ID, spec.RateLimit)
	}
	if spec.Criticality == 0 {
		spec.Criticality = 1
	}
	st, err := f.cfg.NewState(spec)
	if err != nil {
		return nil, fmt.Errorf("tenant %q state: %w", spec.ID, err)
	}
	tn := &tenant{spec: spec, state: st}
	storeTime(&tn.lastEvent, math.NaN())
	storeTime(&tn.lastFailure, math.NaN())
	tail := &tn.seat.Tail
	tail.Layers = make([]*core.Layer, len(f.cfg.Layers))
	for li, tmpl := range f.cfg.Layers {
		tail.Layers[li] = tmpl.instantiate(st)
	}
	tail.Detail = spec.ID
	selector, actions, err := f.tenantActions(spec)
	if err != nil {
		return nil, fmt.Errorf("tenant %q actions: %w", spec.ID, err)
	}
	tn.seat.Engine, err = core.New(nil, tail.Layers, nil, selector, actions, nil, f.cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("tenant %q engine: %w", spec.ID, err)
	}
	if f.cfg.Ledger != nil {
		tn.ledger = f.cfg.Ledger.Scope(spec.ID)
		if f.cfg.Ledger.Dedicated(spec.ID) {
			tail.Ledger = tn.ledger
			tail.JournalLayers = f.cfg.JournalLayers
			tail.Advance = true
		} else {
			tail.Fold = true
		}
	}
	if f.cfg.Recorder != nil {
		tail.Recorder = f.cfg.Recorder.Scope(spec.ID, obs.RecorderScopeConfig{
			WarnThreshold: criticalityWarnThreshold(f.cfg.Recorder.Config().WarnThreshold, spec.Criticality),
			Ledger:        tn.ledger,
		})
		tn.recOwn = f.cfg.Recorder.Dedicated(spec.ID)
	}
	return tn, nil
}

// criticalityWarnThreshold weights the template warn-trigger gate by tenant
// criticality: a criticality-2 tenant escalates warnings into incident
// bundles at half the confidence a baseline tenant needs, clamped so the
// gate stays inside the confidence range. base 0 (template warn trigger
// fires on every warning) is preserved.
func criticalityWarnThreshold(base, criticality float64) float64 {
	if base <= 0 {
		return 0
	}
	eff := base / criticality
	if eff < 0.05 {
		eff = 0.05
	}
	if eff > 1 {
		eff = 1
	}
	return eff
}

// tenantActions resolves a tenant's countermeasure set (default: one no-op
// observe action, making the fleet a pure prediction plane).
func (f *Fleet) tenantActions(spec TenantSpec) (*act.Selector, []*act.Action, error) {
	if f.cfg.NewActions != nil {
		return f.cfg.NewActions(spec)
	}
	sel, err := act.NewSelector(act.DefaultWeights())
	if err != nil {
		return nil, nil, err
	}
	observe, err := act.New("observe", act.StateCleanup,
		act.Params{SuccessProb: 1}, func() error { return nil })
	if err != nil {
		return nil, nil, err
	}
	return sel, []*act.Action{observe}, nil
}

// now returns the fleet's domain time (the default clock reads 0 before
// Start).
func (f *Fleet) now() float64 { return f.cfg.Clock() }

// Metrics returns the fleet's metric set.
func (f *Fleet) Metrics() *runtime.Metrics { return f.metrics }

// Shards returns the number of ingest shards.
func (f *Fleet) Shards() int { return len(f.mem.Load().shards) }

// Generation returns the membership generation (starts at 1; every
// AddTenant/RemoveTenant/Resize bumps it).
func (f *Fleet) Generation() int64 { return f.mem.Load().gen }

// ShardOf returns the shard the tenant's events are routed to, and whether
// the tenant is registered.
func (f *Fleet) ShardOf(tenantID string) (int, bool) {
	tn, ok := f.mem.Load().byID[tenantID]
	if !ok {
		return 0, false
	}
	return tn.shardIndex(), true
}

// QueueDepth returns the ingest backlog summed across shards.
func (f *Fleet) QueueDepth() int {
	total := 0
	for _, q := range f.mem.Load().shards {
		total += q.depth()
	}
	return total
}

// Cycles returns the number of completed evaluation cycles.
func (f *Fleet) Cycles() int64 { return f.shell.Cycles() }

// Start launches the shard consumers. ctx cancellation hard-stops the fleet;
// use Stop for graceful shutdown.
func (f *Fleet) Start(ctx context.Context) error {
	// Under adminMu, so a concurrent Resize either sees the fleet started
	// (and launches its new shards' consumers itself) or leaves them to us.
	f.adminMu.Lock()
	defer f.adminMu.Unlock()
	shards := f.mem.Load().shards
	return f.shell.Start(ctx, len(shards), func(s int) { f.consume(shards[s]) })
}

// AddTenant admits a tenant into the (possibly running) fleet: its state,
// layers, engine and observability scopes are built, its sub-queue attaches
// to the shard the current ring generation assigns, and the next membership
// generation installs atomically — Ingest accepts its events as soon as
// AddTenant returns.
func (f *Fleet) AddTenant(spec TenantSpec) error {
	f.adminMu.Lock()
	defer f.adminMu.Unlock()
	if f.shell.Stopping() {
		return fmt.Errorf("%w: fleet is stopping", ErrFleet)
	}
	mem := f.mem.Load()
	tn, err := f.buildTenant(mem.byID, len(mem.tenants), spec)
	if err != nil {
		return err
	}
	tn.q = newTenantQueue(tn, f.cfg.QueueCapacity)
	mem.shards[mem.ring.shardOf(tn.spec.ID)].attach(tn.q)
	f.install(mem.withTenants(append(append(make([]*tenant, 0, len(mem.tenants)+1), mem.tenants...), tn)))
	return nil
}

// install publishes a generation with a changed tenant list, and its tenants
// as the cycle's rows, between cycles.
func (f *Fleet) install(next *membership) {
	f.cycle.Between(func() {
		f.cycle.Seats = make([]*runtime.Seat, len(next.tenants))
		f.states = make([]TenantState, len(next.tenants))
		for i, tn := range next.tenants {
			f.cycle.Seats[i], f.states[i] = &tn.seat, tn.state
			if tn.seat.Tail.Fold {
				f.overflow = tn.ledger
			}
		}
		f.mem.Store(next)
	})
}

// RemoveTenant retires a tenant: the next membership generation (without
// it) installs atomically, its queued backlog is shed (counted dropped,
// reason "removed"), and its ledger/recorder scopes are released so /metrics
// and /fleet stop reporting the ghost. Events already drained into an
// in-flight chunk still apply; later Ingest calls return ErrUnknownTenant.
func (f *Fleet) RemoveTenant(id string) error {
	f.adminMu.Lock()
	defer f.adminMu.Unlock()
	mem := f.mem.Load()
	tn, ok := mem.byID[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	rest := make([]*tenant, 0, len(mem.tenants)-1)
	for _, t := range mem.tenants {
		if t != tn {
			rest = append(rest, t)
		}
	}
	f.install(mem.withTenants(rest))
	tn.q.closeAndDrain()
	f.cfg.Ledger.Release(id)
	f.cfg.Recorder.Release(id)
	return nil
}

// Resize changes the shard count live. A new ring generation installs
// atomically; the handoff pass then re-homes only the tenants whose shard
// assignment moved (~1/shards of the fleet on a grow-by-one), carrying
// their queued backlog with them without copying or reordering — per-tenant
// FIFO order is preserved across the move. Shrunk-away shards close once
// their members are gone; their consumers exit after draining.
func (f *Fleet) Resize(shards int) error {
	if shards < 1 {
		return fmt.Errorf("%w: shards %d", ErrFleet, shards)
	}
	f.adminMu.Lock()
	defer f.adminMu.Unlock()
	if f.shell.Stopping() {
		return fmt.Errorf("%w: fleet is stopping", ErrFleet)
	}
	mem := f.mem.Load()
	if shards == len(mem.shards) {
		return nil
	}
	newShards := make([]*shardQueue, shards)
	n := copy(newShards, mem.shards)
	for s := n; s < shards; s++ {
		q := f.newShardQueueAt(s)
		newShards[s] = q
		if f.shell.Started() {
			f.shell.Go(func() { f.consume(q) })
		}
	}
	f.registerShardGauges(shards)
	next := &membership{
		gen:     mem.gen + 1,
		tenants: mem.tenants,
		byID:    mem.byID,
		ring:    newRing(shards, defaultVnodes),
		shards:  newShards,
	}
	f.mem.Store(next)
	moved := 0
	for _, tn := range next.tenants {
		moved += moveQueue(tn.q, newShards[next.ring.shardOf(tn.spec.ID)])
	}
	f.handoffN.Add(int64(moved))
	for s := shards; s < len(mem.shards); s++ {
		mem.shards[s].close()
	}
	return nil
}

// Ingest offers one tenant event under the configured overflow policy.
func (f *Fleet) Ingest(ctx context.Context, ev ingest.Event) error {
	err := f.ingest(ctx, f.mem.Load().byID[ev.Tenant], &ev)
	if err == ErrUnknownTenant {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, ev.Tenant)
	}
	return err
}

// ingest offers *ev to the tenant its ID resolved to, nil for none: that, and
// a tenant retired since it was resolved, is counted ingested and dropped
// (reason "unknown") and answered with ErrUnknownTenant itself, unwrapped —
// Pump skips such a record without building an error for it. *ev is copied
// once, into its queue slot.
func (f *Fleet) ingest(ctx context.Context, tn *tenant, ev *ingest.Event) error {
	if tn != nil {
		if err := tn.q.push(ctx, ev); err != errTenantRemoved {
			return err
		}
	}
	f.metrics.Ingested.Inc()
	f.metrics.DroppedUnknown.Inc()
	return ErrUnknownTenant
}

// RecordFailure journals one observed ground-truth failure of a tenant at
// domain time t (ledger input and health signal, not monitoring input).
func (f *Fleet) RecordFailure(tenantID string, t float64) error {
	tn, ok := f.mem.Load().byID[tenantID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, tenantID)
	}
	tn.recordFailure(t)
	return nil
}

// recordFailure is RecordFailure once the tenant is resolved.
func (tn *tenant) recordFailure(t float64) {
	tn.failures.Add(1)
	for {
		old := tn.lastFailure.Load()
		prev := math.Float64frombits(old)
		if !math.IsNaN(prev) && prev >= t {
			break
		}
		if tn.lastFailure.CompareAndSwap(old, math.Float64bits(t)) {
			break
		}
	}
	tn.ledger.RecordFailure(t)
}

// consume drains one shard through the drain body (runtime.DrainCore): each
// chunk of up to BatchSize events, taken in deficit round robin, applies
// under one acquisition of the state lock's shared side, so shards apply in
// parallel and never beside a cycle.
func (f *Fleet) consume(q *shardQueue) {
	d := runtime.DrainCore[item]{
		Shell: f.shell, Metrics: f.metrics, Tracer: f.cfg.Tracer, State: f.stateMu.RLocker(),
		Drops: q.drops, Batch: f.cfg.BatchSize,
		Wait: q.wait, Take: q.take, Settle: q.settled, Apply: f.apply, Span: q.span,
	}
	d.Run()
}

// apply integrates one drained event into its tenant's state and counts it
// on the tenant.
func (f *Fleet) apply(it *item) error {
	ev := it.event()
	err := f.cfg.Apply(it.tn.state, ev)
	it.tn.events.Add(1)
	storeTime(&it.tn.lastEvent, ev.Time)
	return err
}

// EvaluateCycle runs one MEA cycle over every tenant in the current
// membership generation, at the clock's reading, on the calling goroutine,
// and returns once it is done. It is the single-tenant runtime's cycle body,
// runtime.CycleCore.Run, with the tenants' seats as its rows at one instant;
// the fleet supplies the row scorer (scoreTile) and two hooks: the
// act-budget pass (resolveBudget, with an ActBudget only) and finishCycle —
// the folded tenants' one ledger bucket, counted in the act ranges, so no
// two workers meet on the overflow journal, and that journal's watermark
// advance. Every tenant's engine votes over the templates' thresholds, so
// the body counts each row's votes from the score matrix. Concurrent calls
// serialize; membership swaps serialize against the whole cycle. After Stop
// has begun it runs none.
//
// Determinism: scoring writes disjoint matrix slots, the act fan-outs touch
// disjoint tenant state, the budget pass orders on a deterministic key, and
// the overflow bucket holds counts — so for a fixed ingested prefix (see
// Barrier) the cycle's observable outcome is independent of Shards, Workers,
// BatchSize, and GOMAXPROCS.
func (f *Fleet) EvaluateCycle() { f.cycle.Run(nil) }

// scoreTile is the fleet's row scorer: layer li's template over tenants
// [lo,hi) at the cycle's instant. A batch scorer runs once on the range, a
// per-tenant scorer once per tenant in it. A scorer's error abstains its rows
// (NaN) — a batch scorer's the whole range — and is counted per row on
// pfm_layer_eval_errors_total, as core.Layer.ScoreBatch counts it on the
// single-tenant plane.
func (f *Fleet) scoreTile(li, lo, hi int, nows, out []float64) {
	tmpl, states, now := f.cfg.Layers[li], f.states[lo:hi], nows[0]
	if tmpl.ScoreBatch != nil {
		if err := tmpl.ScoreBatch(states, now, out); err != nil {
			f.evalErrors[li].Add(int64(len(out)))
			for i := range out {
				out[i] = math.NaN()
			}
		}
		return
	}
	for i, st := range states {
		s, err := tmpl.Score(st, now)
		if err != nil {
			f.evalErrors[li].Inc()
			s = math.NaN()
		}
		out[i] = s
	}
}

// finishCycle runs after the cycle's last act tail: it journals the combined
// rows of every tenant folded into the overflow ledger scope as one bucket —
// the rows their act tails would have written one by one, counted in the act
// ranges instead (a fleet with nobody folded touches nothing) — then
// advances the overflow journal's watermark. Each dedicated scope's tail
// advanced its own.
func (f *Fleet) finishCycle(now float64, warned, quiet int) {
	f.overflow.RecordPredictions(obs.CombinedLayer, now, warned, quiet)
	f.overflow.Advance(now)
}

// resolveBudget commits the cycle's pending countermeasures in
// criticality×confidence priority order up to ActBudget and drops the rest
// (deferred: warned and journaled, not executed). Runs serially inside the
// cycle; the ordering key is deterministic, so so is the commit set.
func (f *Fleet) resolveBudget() {
	cands := f.actCands[:0]
	for _, tn := range f.mem.Load().tenants {
		if tn.seat.Pact != (core.PendingAct{}) {
			cands = append(cands, tn)
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		pa := cands[a].spec.Criticality * cands[a].seat.Dec.Confidence
		pb := cands[b].spec.Criticality * cands[b].seat.Dec.Confidence
		if pa != pb {
			return pa > pb
		}
		return cands[a].spec.ID < cands[b].spec.ID
	})
	for i, tn := range cands {
		if i < f.cfg.ActBudget {
			tn.seat.Pact.Commit(&tn.seat.Dec)
		} else {
			tn.seat.Pact.Drop()
			tn.deferred.Add(1)
			f.actDeferred.Inc()
		}
		tn.seat.Pact = core.PendingAct{}
	}
	f.actCands = cands[:0] // keep the scratch capacity across cycles
}

// Barrier blocks until every event admitted before the call has been fully
// processed (applied or shed) — the quiescence point deterministic replay
// evaluates at. The caller must pause ingest for the guarantee to hold:
// Barrier waits until as many events have settled as had been admitted when
// it was called, and counts do not say which. With ingest running, events
// admitted after the call and settled on a fast shard count towards it, so
// Barrier may return while an earlier event is still queued on a slow one;
// it does not wait for an instant with nothing pending fleet-wide.
//
// A rate limit never holds Barrier up: an event over its tenant's rate is
// shed at admission, so whatever was admitted drains without waiting on the
// clock.
func (f *Fleet) Barrier(ctx context.Context) error {
	admitted := f.acct.admitted.Value()
	return runtime.AwaitSettled(ctx, func() bool { return f.acct.settled.Value() >= admitted })
}

// Stop shuts the fleet down by the shared stop protocol (runtime.Shell):
// reject new ingest, drain every shard through Apply, run one final cycle,
// release the pool, let background retrains land and flush the recorders. If
// ctx expires first the fleet is hard-stopped and ctx's error returned.
func (f *Fleet) Stop(ctx context.Context) error { return f.shell.Stop(ctx) }

// Running reports whether the fleet is started and not yet stopping.
func (f *Fleet) Running() bool { return f.shell.Running() }
