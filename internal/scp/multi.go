package scp

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// Multi-tenant trace generation: a MultiSystem runs N independent SCP
// simulators — one per monitored tenant — with per-tenant seeds and a
// Zipf-skewed load profile (a few hot tenants carry most of the traffic,
// the production shape a fleet runtime must amortize). Drain merges every
// tenant's new error events, SAR samples, and ground-truth failures into
// one time-ordered interleaved trace, the fixture format of the fleet
// tests, cmd/loggen -tenants, and pfmd -fleet.

// TraceKind discriminates merged trace records.
type TraceKind int

const (
	// TraceError is one error-log event of a tenant.
	TraceError TraceKind = iota
	// TraceSample is one SAR monitoring-variable sample of a tenant.
	TraceSample
	// TraceFailure marks one ground-truth failure of a tenant (Eq. 2
	// violation) — ledger input, not monitoring input.
	TraceFailure
)

// TraceRecord is one tenant-labeled record of a merged multi-tenant trace.
type TraceRecord struct {
	Tenant string
	Kind   TraceKind
	Time   float64
	// Error-event fields (TraceError).
	Component string
	Type      int
	Severity  int
	Message   string
	// Sample fields (TraceSample).
	Variable string
	Value    float64
}

// MultiConfig parameterizes a tenant fleet simulation.
type MultiConfig struct {
	// Tenants is the fleet size (>= 1).
	Tenants int
	// BaseSeed derives per-tenant seeds (tenant i runs with BaseSeed+i),
	// so a fleet trace is reproducible tenant by tenant.
	BaseSeed int64
	// Skew is the Zipf exponent s of the per-tenant load profile: tenant
	// rank r (1-based) is scaled by r^-s, normalized so the mean scale is
	// 1. Zero means a uniform fleet; 1 is the classic heavy-skew shape.
	Skew float64
}

// A tenant's output is streamsPerTenant streams, each already in time
// order: its error log, its SAR series in SARVariables order, its failure
// times. Stream k of tenant i has rank i*streamsPerTenant+k, and Drain's
// order is a merge of all streams on the key (time, rank).
const (
	streamLog        = 0
	streamSAR        = 1 // first of sarCount series
	streamFail       = streamSAR + sarCount
	streamsPerTenant = streamFail + 1
)

// streamCursor is Drain's progress in one stream: records before pos are
// emitted, end is the stream's length when the current Drain began.
type streamCursor struct {
	pos, end int
}

// streamHead is one stream's next record in Drain's merge heap.
type streamHead struct {
	t    float64
	rank int
}

func (a streamHead) before(b streamHead) bool {
	return a.t < b.t || (a.t == b.t && a.rank < b.rank)
}

// MultiSystem is a fleet of independently seeded SCP simulators advancing
// on a common clock. Like System it is not goroutine-safe; NewMulti and Run
// use several goroutines inside and return once they are done.
type MultiSystem struct {
	ids     []string
	systems []*System
	weights []float64
	cursors []streamCursor // indexed by stream rank
	heads   []streamHead   // Drain's heap, kept for its capacity
}

// ZipfWeights returns n rank weights r^-s normalized to mean 1 — the load
// (and criticality) profile shared by MultiSystem, loggen, and pfmd -fleet.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	for i := range w {
		w[i] *= float64(n) / sum
	}
	return w
}

// TenantID names tenant i ("t0000", "t0001", …): fixed width keeps merged
// traces and /fleet listings sortable.
func TenantID(i int) string { return fmt.Sprintf("t%04d", i) }

// NewMulti builds the fleet. Tenant i runs DefaultConfig with Seed =
// BaseSeed+i and BaseLoad scaled by its Zipf weight (capacity and spike profile are left
// alone, so hot tenants genuinely run closer to saturation and fail more).
func NewMulti(cfg MultiConfig) (*MultiSystem, error) {
	if cfg.Tenants < 1 {
		return nil, fmt.Errorf("%w: tenants %d", ErrSCP, cfg.Tenants)
	}
	if cfg.Skew < 0 || math.IsNaN(cfg.Skew) || math.IsInf(cfg.Skew, 0) {
		return nil, fmt.Errorf("%w: zipf skew %g", ErrSCP, cfg.Skew)
	}
	base := DefaultConfig()
	m := &MultiSystem{
		ids:     make([]string, cfg.Tenants),
		systems: make([]*System, cfg.Tenants),
		weights: ZipfWeights(cfg.Tenants, cfg.Skew),
		cursors: make([]streamCursor, cfg.Tenants*streamsPerTenant),
	}
	err := forTenants(cfg.Tenants, func(i int) error {
		tc := base
		tc.Seed = cfg.BaseSeed + int64(i)
		tc.BaseLoad = base.BaseLoad * m.weights[i]
		// Keep even the coldest tenant plausibly loaded and the hottest
		// below a permanently failed state.
		if tc.BaseLoad < 0.05*base.Capacity {
			tc.BaseLoad = 0.05 * base.Capacity
		}
		if tc.BaseLoad > 0.95*base.Capacity {
			tc.BaseLoad = 0.95 * base.Capacity
		}
		sys, err := New(tc)
		if err != nil {
			return fmt.Errorf("tenant %d: %w", i, err)
		}
		m.ids[i] = TenantID(i)
		m.systems[i] = sys
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// forTenants runs fn(i) for every tenant on up to GOMAXPROCS goroutines
// and returns the error of the lowest failing i. It is deterministic under
// the par contract: tenant i has its own seed and fn(i) writes only what
// belongs to tenant i.
func forTenants(n int, fn func(i int) error) error {
	errs := make([]error, n)
	par.For(n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// IDs returns the tenant identifiers in rank order (hottest first under a
// positive skew).
func (m *MultiSystem) IDs() []string { return append([]string(nil), m.ids...) }

// Weights returns the per-tenant load scales (mean 1).
func (m *MultiSystem) Weights() []float64 { return append([]float64(nil), m.weights...) }

// System returns tenant i's simulator, for a caller that steers it between
// Runs on the goroutine that runs it.
func (m *MultiSystem) System(i int) *System { return m.systems[i] }

// Run advances every tenant by duration simulated seconds.
func (m *MultiSystem) Run(duration float64) error {
	return forTenants(len(m.systems), func(i int) error {
		if err := m.systems[i].Run(duration); err != nil {
			return fmt.Errorf("tenant %s: %w", m.ids[i], err)
		}
		return nil
	})
}

// Drain emits every record produced since the previous Drain as one merged
// trace, ordered by time with ties broken by tenant rank then by record
// kind (errors, samples in SARVariables order, failures) — a deterministic
// interleaving for any fleet size. Call after each Run slice for wall-paced
// replay, or once after a full Run for a complete fixture.
//
// It is a k-way merge: every stream is in time order already, so the new
// records are counted, the result allocated once at that size, and filled
// from a heap of stream heads keyed (time, rank) — what a stable sort by
// time of the streams laid end to end in rank order gives.
func (m *MultiSystem) Drain() []TraceRecord {
	heads := m.heads[:0]
	total := 0
	for i, sys := range m.systems {
		for k := 0; k < streamsPerTenant; k++ {
			rank := i*streamsPerTenant + k
			c := &m.cursors[rank]
			c.end = sys.streamLen(k)
			if c.pos < c.end {
				total += c.end - c.pos
				heads = append(heads, streamHead{t: sys.streamTime(k, c.pos), rank: rank})
			}
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}
	out := make([]TraceRecord, total)
	for n := range out {
		rank := heads[0].rank
		i, k := rank/streamsPerTenant, rank%streamsPerTenant
		sys, c := m.systems[i], &m.cursors[rank]
		out[n].Tenant = m.ids[i]
		sys.streamRecord(k, c.pos, &out[n])
		if c.pos++; c.pos < c.end {
			heads[0].t = sys.streamTime(k, c.pos)
		} else {
			last := len(heads) - 1
			heads[0] = heads[last]
			heads = heads[:last]
		}
		siftDown(heads, 0)
	}
	m.heads = heads
	return out
}

// siftDown restores the min-heap below position i.
func siftDown(h []streamHead, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// streamLen returns the length of the tenant's stream k.
func (s *System) streamLen(k int) int {
	switch k {
	case streamLog:
		return s.log.Len()
	case streamFail:
		return len(s.failures)
	default:
		return s.sarSeries[k-streamSAR].Len()
	}
}

// streamTime returns the time of record pos of stream k.
func (s *System) streamTime(k, pos int) float64 {
	switch k {
	case streamLog:
		return s.log.TimeAt(pos)
	case streamFail:
		return s.failures[pos].Time
	default:
		return s.sarSeries[k-streamSAR].At(pos).T
	}
}

// streamRecord fills r, zero but for its Tenant, with record pos of
// stream k.
func (s *System) streamRecord(k, pos int, r *TraceRecord) {
	switch k {
	case streamLog:
		e := s.log.At(pos)
		r.Kind, r.Time = TraceError, e.Time
		r.Component, r.Type, r.Severity, r.Message = e.Component, e.Type, int(e.Severity), e.Message
	case streamFail:
		r.Kind, r.Time = TraceFailure, s.failures[pos].Time
	default:
		p := s.sarSeries[k-streamSAR].At(pos)
		r.Kind, r.Time = TraceSample, p.T
		r.Variable, r.Value = SARVariables[k-streamSAR], p.V
	}
}
