package scp

import (
	"fmt"
	"math"
	"sort"
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

// tenantCursor tracks how much of one tenant's output Drain has emitted.
type tenantCursor struct {
	log  int
	fail int
	sar  map[string]int
}

// MultiSystem is a fleet of independently seeded SCP simulators advancing
// on a common clock.
type MultiSystem struct {
	ids     []string
	systems []*System
	weights []float64
	cursors []tenantCursor
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
		cursors: make([]tenantCursor, cfg.Tenants),
	}
	for i := 0; i < cfg.Tenants; i++ {
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
			return nil, fmt.Errorf("tenant %d: %w", i, err)
		}
		m.ids[i] = TenantID(i)
		m.systems[i] = sys
		m.cursors[i].sar = make(map[string]int, len(SARVariables))
	}
	return m, nil
}

// IDs returns the tenant identifiers in rank order (hottest first under a
// positive skew).
func (m *MultiSystem) IDs() []string { return append([]string(nil), m.ids...) }

// Weights returns the per-tenant load scales (mean 1).
func (m *MultiSystem) Weights() []float64 { return append([]float64(nil), m.weights...) }

// Run advances every tenant by duration simulated seconds.
func (m *MultiSystem) Run(duration float64) error {
	for i, sys := range m.systems {
		if err := sys.Run(duration); err != nil {
			return fmt.Errorf("tenant %s: %w", m.ids[i], err)
		}
	}
	return nil
}

// Drain emits every record produced since the previous Drain as one merged
// trace, ordered by time with ties broken by tenant rank then by record
// kind (errors, samples, failures) — a deterministic interleaving for any
// fleet size. Call after each Run slice for wall-paced replay, or once
// after a full Run for a complete fixture.
func (m *MultiSystem) Drain() []TraceRecord {
	var out []TraceRecord
	for i, sys := range m.systems {
		cur := &m.cursors[i]
		id := m.ids[i]
		log := sys.Log()
		for n := log.Len(); cur.log < n; cur.log++ {
			e := log.At(cur.log)
			out = append(out, TraceRecord{
				Tenant: id, Kind: TraceError, Time: e.Time,
				Component: e.Component, Type: e.Type,
				Severity: int(e.Severity), Message: e.Message,
			})
		}
		for _, name := range SARVariables {
			series, err := sys.SAR(name)
			if err != nil {
				continue
			}
			for n := series.Len(); cur.sar[name] < n; cur.sar[name]++ {
				p := series.At(cur.sar[name])
				out = append(out, TraceRecord{
					Tenant: id, Kind: TraceSample, Time: p.T,
					Variable: name, Value: p.V,
				})
			}
		}
		for times := sys.FailureTimes(); cur.fail < len(times); cur.fail++ {
			out = append(out, TraceRecord{Tenant: id, Kind: TraceFailure, Time: times[cur.fail]})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Time < out[b].Time })
	return out
}
