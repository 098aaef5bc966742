package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric. The tables below are the program's half of
// the contract whose other half is BENCHMARK.json; main_test.go holds the
// two against each other.
type metricDef struct {
	name, unit string
	higher     bool    // e2e only: larger is better
	bound      float64 // e2e only: share of the median it may worsen by
}

// e2eDefs are the end-to-end metrics every workload reports untraced.
var e2eDefs = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "events_per_s", unit: "events/s", higher: true, bound: 0.25},
	{name: "apply_latency_p50_us", unit: "us", bound: 0.25},
	{name: "cycle_p50_us", unit: "us", bound: 0.25},
	{name: "allocs_per_event", unit: "allocs/event", bound: 0.15},
	{name: "state_mb", unit: "MB", bound: 0.1},
}

// layerDefs are the per-layer metrics every workload reports traced.
var layerDefs = []metricDef{
	// Spans around the harness's own calls and callbacks, this workload.
	{name: "runtime.columnar.decode_ns_per_event", unit: "ns/event"},
	{name: "fleet.listen.next_ns_per_event", unit: "ns/event"},
	{name: "fleet.ingest.call_ns_per_event", unit: "ns/event"},
	{name: "runtime.ingest.call_ns_per_event", unit: "ns/event"},
	{name: "apply.busy_ns_per_event", unit: "ns/event"},
	{name: "barrier.wait_ns_per_cycle", unit: "ns/cycle"},
	{name: "cycle.total_ns_per_cycle", unit: "ns/cycle"},
	{name: "layer.hsmm.busy_ns_per_cycle", unit: "ns/cycle"},
	{name: "layer.ubf.busy_ns_per_cycle", unit: "ns/cycle"},
	{name: "layer.errors.busy_ns_per_cycle", unit: "ns/cycle"},
	{name: "layer.memory.busy_ns_per_cycle", unit: "ns/cycle"},
	{name: "layer.load.busy_ns_per_cycle", unit: "ns/cycle"},
	{name: "cycle.overhead_ns_per_cycle", unit: "ns/cycle"},
	{name: "act.busy_ns_per_action", unit: "ns/action"},
	{name: "fleet.decision_latency_p50_ms", unit: "ms"},
	{name: "fleet.decision_latency_p99_ms", unit: "ms"},
	{name: "gen.late_p99_us", unit: "us"},
	{name: "gen.late_max_us", unit: "us"},
	{name: "queue.depth_max", unit: "count"},
	{name: "cpu.ns_per_event", unit: "ns/event"},
	{name: "cpu.unattributed_ns_per_event", unit: "ns/event"},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "failed_share", unit: "ratio"},
	// End-to-end metrics this box cannot repeat within a tenth, moved here
	// with their names unchanged; measured on the untraced repetitions.
	{name: "apply_latency_p99_us", unit: "us"},
	{name: "cycle_p99_us", unit: "us"},
	// Stage-isolation replays and whole-job figures, the same in every
	// workload's traced run.
	{name: "scaling.gomaxprocs1_events_per_s", unit: "events/s"},
	{name: "fleet.listen.only_cpu_ns_per_event", unit: "ns/event"},
	{name: "fleet.listen.only_events_per_s", unit: "events/s"},
	{name: "fleet.listen.only_allocs_per_event", unit: "allocs/event"},
	{name: "fleet.wire.decode_ns_per_event", unit: "ns/event"},
	{name: "fleet.wire.decode_allocs_per_event", unit: "allocs/event"},
	{name: "fleet.wire.encode_ns_per_event", unit: "ns/event"},
	{name: "fleet.wire.bytes_per_event", unit: "bytes/event"},
	{name: "fleet.tail.parse_ns_per_event", unit: "ns/event"},
	{name: "fleet.tail.bytes_per_event", unit: "bytes/event"},
	{name: "runtime.columnar.bytes_per_event", unit: "bytes/event"},
	{name: "fleet.ring.route_ns_per_event", unit: "ns/event"},
	{name: "fleet.queue.noop_ns_per_event", unit: "ns/event"},
	{name: "runtime.queue.noop_ns_per_event", unit: "ns/event"},
	{name: "runtime.ring.push_drain_ns_per_event", unit: "ns/event"},
	{name: "eventlog.append_ns_per_event", unit: "ns/event"},
	{name: "eventlog.scan_window_ns_per_call", unit: "ns/call"},
	{name: "eventlog.sliding_window_ns_per_call", unit: "ns/call"},
	{name: "timeseries.append_ns_per_sample", unit: "ns/sample"},
	{name: "timeseries.window_trend_ns_per_call", unit: "ns/call"},
	{name: "hsmm.score_ns_per_seq", unit: "ns/seq"},
	{name: "ubf.predict_ns_per_row", unit: "ns/row"},
	{name: "hsmm.fit_s", unit: "s"},
	{name: "ubf.train_s", unit: "s"},
	{name: "eventlog.extract_ns_per_event", unit: "ns/event"},
	{name: "core.evaluate_batch_ns_per_cycle", unit: "ns/cycle"},
	{name: "core.act_ns_per_decision", unit: "ns/decision"},
	{name: "meta.stacker_ns_per_score", unit: "ns/score"},
	{name: "act.select_ns_per_call", unit: "ns/call"},
	{name: "obs.ledger.record_ns_per_row", unit: "ns/row"},
	{name: "obs.ledger.advance_ns_per_call", unit: "ns/call"},
	{name: "obs.tracer.publish_ns_per_event", unit: "ns/event"},
	{name: "obs.recorder.observe_ns_per_cycle", unit: "ns/cycle"},
	{name: "fleet.cycle.ns_per_tenant", unit: "ns/tenant"},
	{name: "fleet.cycle.allocs_per_cycle", unit: "allocs/cycle"},
	{name: "scp.sim_s_per_simday", unit: "s/simday"},
	{name: "scp.multi_s_per_tenant_day", unit: "s/tenantday"},
	{name: "f1_combined", unit: "ratio"},
	{name: "hsmm_auc", unit: "ratio"},
	{name: "casestudy_s", unit: "s"},
}

// value is one reported metric: the median of its samples — or, for a
// timing, their best decile — with their range and count beside it.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"` // sorted; kept when there are several
}

// results is one run of one workload: untraced (end-to-end metrics) or
// traced (per-layer metrics).
type results struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Problems  []string         `json:"problems,omitempty"`

	defs []metricDef
}

func newResults(workload string, seed int64, traced bool) *results {
	r := &results{Workload: workload, Seed: seed, Traced: traced, Metrics: make(map[string]value), defs: e2eDefs}
	if traced {
		r.defs = layerDefs
	}
	return r
}

func (r *results) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// setSamples reports the median of xs under name, which this kind of run
// must declare and must not have reported yet.
func (r *results) setSamples(name string, xs []float64) { r.report(name, xs, false) }

// setBest reports the best decile of xs under name: the 90th percentile
// where higher is better, else the 10th. This box's speed flips second by
// second, which only ever slows a repetition down, so the fast end of the
// repetitions repeats from run to run where their median follows the
// weather; one step in from the very best keeps a lucky repetition out.
func (r *results) setBest(name string, xs []float64) { r.report(name, xs, true) }

func (r *results) report(name string, xs []float64, best bool) {
	unit, higher := "", false
	for _, d := range r.defs {
		if d.name == name {
			unit, higher = d.unit, d.higher
		}
	}
	if unit == "" {
		r.problem("metric %q is not declared for this kind of run", name)
		return
	}
	if _, dup := r.Metrics[name]; dup {
		r.problem("metric %q reported twice", name)
		return
	}
	if len(xs) == 0 {
		r.problem("metric %q has no samples", name)
		return
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v := value{Value: median(s), Unit: unit, Min: s[0], Max: s[len(s)-1], N: len(s)}
	if best {
		rank := int(math.Round(0.1 * float64(len(s)-1)))
		if higher {
			rank = len(s) - 1 - rank
		}
		v.Value = s[rank]
	}
	if len(s) > 1 {
		v.Samples = s
	}
	r.Metrics[name] = v
}

func (r *results) set(name string, v float64) { r.setSamples(name, []float64{v}) }

// finish checks that every declared metric was reported and settles the
// verdict.
func (r *results) finish() {
	for _, d := range r.defs {
		if _, ok := r.Metrics[d.name]; !ok {
			r.problem("metric %q was not reported", d.name)
		}
	}
	r.Correct = len(r.Problems) == 0
}
