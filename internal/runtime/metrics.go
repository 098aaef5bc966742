package runtime

import (
	"fmt"
	"io"
	"math"
	stdruntime "runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Counter is a monotonically increasing atomic counter. It is padded to
// a cache line: hot-path counters are allocated back to back (Ingested is
// bumped by producers while Applied is bumped by the drain consumers), and
// without the padding those adjacent atomics false-share a line, which
// shows up as several ns per event on the ingest fast path.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n ≥ 0.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket latency histogram with atomic cells. Bucket
// boundaries are upper bounds in seconds; observations above the last
// bound land in the implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// Observe records one value (seconds).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the bucket where the cumulative count crosses the target rank —
// the standard histogram_quantile estimate. Observations beyond the last
// finite bound clamp to that bound. NaN while the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	counts := make([]int64, len(h.counts))
	total := int64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	cum := int64(0)
	for i, bound := range h.bounds {
		if c := counts[i]; c > 0 && float64(cum+c) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			return lower + (bound-lower)*(rank-float64(cum))/float64(c)
		}
		cum += counts[i]
	}
	return h.bounds[len(h.bounds)-1]
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefBuckets are the default latency buckets [s]: 1µs … 10s.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

// metric is one labeled series inside a family.
type metric struct {
	labels string // rendered `{k="v",…}` or ""
	c      *Counter
	g      func() float64
	h      *Histogram
}

// family groups series sharing a metric name (one TYPE line per family).
type family struct {
	name, help, typ string
	series          []*metric
}

// Registry holds metric families and renders them as Prometheus text.
// Registration is mutex-guarded; the hot path (Inc/Observe) is atomic.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels formats k,v pairs as `{k="v",…}`; empty input renders "".
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("runtime: labels must be key,value pairs")
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", labels[i], labels[i+1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// register appends a series to its family, creating the family on first use
// with that registration's help and type: one HELP and one TYPE line per
// family, whatever later registrations of the same name pass.
func (r *Registry) register(name, help, typ string, m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	f.series = append(f.series, m)
}

// Counter registers a counter series; labels are key,value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", &metric{labels: renderLabels(labels), c: c})
	return c
}

// GaugeFunc registers a gauge evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, "gauge", &metric{labels: renderLabels(labels), g: fn})
}

// CounterFunc registers a counter series whose value is read at scrape
// time — for monotone counts owned by another subsystem (layer handles,
// the lifecycle manager) that the registry must not double-track.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, "counter", &metric{labels: renderLabels(labels), g: fn})
}

// Histogram registers a histogram series with the given bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	r.register(name, help, "histogram", &metric{labels: renderLabels(labels), h: h})
	return h
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	r.mu.Unlock()
	for _, name := range order {
		r.mu.Lock()
		f := r.families[name]
		series := append([]*metric(nil), f.series...)
		r.mu.Unlock()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, m := range series {
			var err error
			switch {
			case m.c != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, m.labels, m.c.Value())
			case m.g != nil:
				_, err = fmt.Fprintf(w, "%s%s %g\n", f.name, m.labels, m.g())
			case m.h != nil:
				err = writeHistogram(w, f.name, m.labels, m.h)
			}
			if err != nil {
				return err
			}
		}
		if f.typ == "histogram" {
			if err := writeQuantiles(w, f.name, series); err != nil {
				return err
			}
		}
	}
	return nil
}

// exportQuantiles are the quantile gauges derived from every histogram
// family in the exposition.
var exportQuantiles = []struct {
	q     float64
	label string
}{{0.5, "0.5"}, {0.95, "0.95"}, {0.99, "0.99"}}

// writeQuantiles renders a derived gauge family `<name>_quantile` with
// p50/p95/p99 estimates interpolated from each histogram's buckets.
func writeQuantiles(w io.Writer, name string, series []*metric) error {
	qname := name + "_quantile"
	if _, err := fmt.Fprintf(w, "# HELP %s Quantiles interpolated from %s buckets.\n# TYPE %s gauge\n",
		qname, name, qname); err != nil {
		return err
	}
	for _, m := range series {
		if m.h == nil {
			continue
		}
		inner := strings.TrimSuffix(strings.TrimPrefix(m.labels, "{"), "}")
		sep := ""
		if inner != "" {
			sep = ","
		}
		for _, eq := range exportQuantiles {
			if _, err := fmt.Fprintf(w, "%s{%s%squantile=%q} %g\n",
				qname, inner, sep, eq.label, m.h.Quantile(eq.q)); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders cumulative buckets plus _sum and _count.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if err := writeBucket(w, name, inner, fmt.Sprintf("%g", bound), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if err := writeBucket(w, name, inner, "+Inf", cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
	return err
}

// writeBucket renders one cumulative le bucket, merging the series labels.
func writeBucket(w io.Writer, name, innerLabels, le string, cum int64) error {
	sep := ""
	if innerLabels != "" {
		sep = ","
	}
	_, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, innerLabels, sep, le, cum)
	return err
}

// Metrics is the runtime's observability surface: every stage of the
// pipeline feeds these counters and histograms; Registry renders them for
// scraping.
type Metrics struct {
	reg *Registry

	// Ingest stage.
	Ingested        *Counter // events presented to Ingest (not rejected-for-closed)
	Applied         *Counter // events delivered to the Apply callback
	ApplyErrors     *Counter // Apply calls that returned an error
	DroppedOldest   *Counter // evicted by DropOldest
	DroppedNewest   *Counter // rejected at the door by DropNewest
	DroppedCanceled *Counter // abandoned by context cancellation while blocked
	DroppedShutdown *Counter // backlog shed unapplied by a hard stop
	// The fleet's three: a retired tenant's backlog, pushes over the
	// tenant's rate limit, shed at admission, and records naming no
	// registered tenant (counted ingested, then dropped). The runtime
	// leaves them at 0.
	DroppedRemoved     *Counter
	DroppedRateLimited *Counter
	DroppedUnknown     *Counter

	// Evaluate + act stages.
	Evaluations *Counter // completed MEA cycles
	Warnings    *Counter // cycles that raised a failure warning
	Actions     *Counter // countermeasures executed or scheduled
	Suppressed  *Counter // actions vetoed by the oscillation guard

	// Per-stage latency.
	IngestLatency *Histogram // queue admission (Ingest call) [s]
	ApplyLatency  *Histogram // state application per event [s]
	EvalLatency   *Histogram // layer scoring per cycle [s]
	ActLatency    *Histogram // serialized act decision per cycle [s]
}

// NewMetrics builds the runtime metric set on a fresh registry.
func NewMetrics() *Metrics {
	reg := NewRegistry()
	m := &Metrics{
		reg:                reg,
		Ingested:           reg.Counter("pfm_events_ingested_total", "Events presented to the ingest stage."),
		Applied:            reg.Counter("pfm_events_applied_total", "Events applied to predictor state."),
		ApplyErrors:        reg.Counter("pfm_events_apply_errors_total", "Apply callbacks that returned an error."),
		DroppedOldest:      reg.Counter("pfm_events_dropped_total", "Events dropped, by reason: overflow policy, cancellation, shutdown, tenant removal, rate limit, unknown tenant.", "reason", "oldest"),
		DroppedNewest:      reg.Counter("pfm_events_dropped_total", "", "reason", "newest"),
		DroppedCanceled:    reg.Counter("pfm_events_dropped_total", "", "reason", "canceled"),
		DroppedShutdown:    reg.Counter("pfm_events_dropped_total", "", "reason", "shutdown"),
		DroppedRemoved:     reg.Counter("pfm_events_dropped_total", "", "reason", "removed"),
		DroppedRateLimited: reg.Counter("pfm_events_dropped_total", "", "reason", "ratelimited"),
		DroppedUnknown:     reg.Counter("pfm_events_dropped_total", "", "reason", "unknown"),
		Evaluations:        reg.Counter("pfm_evaluations_total", "Completed Monitor-Evaluate-Act cycles."),
		Warnings:           reg.Counter("pfm_warnings_total", "Failure warnings raised."),
		Actions:            reg.Counter("pfm_actions_total", "Countermeasures executed or scheduled."),
		Suppressed:         reg.Counter("pfm_actions_suppressed_total", "Actions vetoed by the oscillation guard."),
		IngestLatency:      reg.Histogram("pfm_stage_latency_seconds", "Per-stage latency.", nil, "stage", "ingest"),
		ApplyLatency:       reg.Histogram("pfm_stage_latency_seconds", "", nil, "stage", "apply"),
		EvalLatency:        reg.Histogram("pfm_stage_latency_seconds", "", nil, "stage", "evaluate"),
		ActLatency:         reg.Histogram("pfm_stage_latency_seconds", "", nil, "stage", "act"),
	}
	version, revision, vcsTime := buildIdentity()
	reg.GaugeFunc("pfm_build_info",
		"Build metadata carried in labels; the value is always 1.",
		func() float64 { return 1 },
		"version", version,
		"revision", revision,
		"vcstime", vcsTime,
		"goversion", stdruntime.Version(),
		"gomaxprocs", strconv.Itoa(stdruntime.GOMAXPROCS(0)))
	registerGoMemMetrics(reg)
	return m
}

// registerGoMemMetrics exposes the Go heap and GC gauges that make the
// columnar store's allocation profile observable next to the pipeline
// counters: steady heap, flat GC-cycle rate and negligible pause totals
// are the runbook's confirmation that the hot path is allocation-free.
// They read obs's process snapshot, which the flight recorder's captures
// share, so the stop-the-world ReadMemStats runs at most once per its TTL
// whatever scrapes and captures ask.
func registerGoMemMetrics(reg *Registry) {
	reg.GaugeFunc("pfm_go_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 { return float64(obs.ReadRuntimeSnapshot().HeapAlloc) })
	reg.CounterFunc("pfm_go_gc_cycles_total",
		"Completed GC cycles (runtime.MemStats.NumGC).",
		func() float64 { return float64(obs.ReadRuntimeSnapshot().NumGC) })
	reg.CounterFunc("pfm_go_gc_pause_seconds_total",
		"Cumulative GC stop-the-world pause time (runtime.MemStats.PauseTotalNs).",
		func() float64 { return float64(obs.ReadRuntimeSnapshot().PauseTotalNs) / 1e9 })
}

// buildIdentity resolves the build metadata stamped into the binary: the
// main-module version ("(devel)" for plain `go build` trees) plus the
// vcs.revision and vcs.time settings embedded by builds inside a checkout
// ("unknown" when the info is absent, e.g. `go test` binaries).
func buildIdentity() (version, revision, vcsTime string) {
	version, revision, vcsTime = "unknown", "unknown", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	if bi.Main.Version != "" {
		version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			revision = s.Value
		case "vcs.time":
			vcsTime = s.Value
		}
	}
	return
}

// Dropped returns the total events dropped across all reasons.
func (m *Metrics) Dropped() int64 {
	return m.DroppedOldest.Value() + m.DroppedNewest.Value() + m.DroppedCanceled.Value() +
		m.DroppedShutdown.Value() + m.DroppedRemoved.Value() + m.DroppedRateLimited.Value() +
		m.DroppedUnknown.Value()
}

// Registry exposes the underlying registry (to register app-level series
// such as queue depth gauges next to the pipeline metrics).
func (m *Metrics) Registry() *Registry { return m.reg }

// WritePrometheus renders all metrics in Prometheus text format.
func (m *Metrics) WritePrometheus(w io.Writer) error { return m.reg.WritePrometheus(w) }
