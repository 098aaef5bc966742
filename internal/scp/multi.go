package scp

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/ingest"
	"repro/internal/par"
)

// Multi-tenant trace generation: a MultiSystem runs N independent SCP
// simulators — one per monitored tenant — with per-tenant seeds and a
// Zipf-skewed load profile (a few hot tenants carry most of the traffic,
// the production shape a fleet runtime must amortize). Drain merges every
// tenant's new error events, SAR samples, and ground-truth failures into
// one time-ordered interleaved trace of ingest.Records, the fixture format
// of the fleet tests, cmd/loggen -tenants, and pfmd -fleet.

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

// tenantHead is one tenant's next record in a Drain heap: the earliest of
// its stream heads, ties to the lower stream k.
type tenantHead struct {
	t         float64
	tenant, k int32
}

func (a tenantHead) before(b tenantHead) bool {
	return a.t < b.t || (a.t == b.t && a.tenant < b.tenant)
}

// MultiSystem is a fleet of independently seeded SCP simulators advancing
// on a common clock. Like System it is not goroutine-safe; NewMulti and Run
// use several goroutines inside and return once they are done.
type MultiSystem struct {
	ids     []string
	systems []*System
	weights []float64
	drained []int // records of each stream (by rank) emitted so far

	// Drain's scratch, kept for its capacity. For each of its time ranges
	// r, with S streams: lo[r*S+s] is stream s's first record in the
	// range (lo[(r+1)*S+s] its end), pos and headT the range's cursor and
	// next record time in each stream (+Inf once spent), heads the range's
	// heap of tenant heads, and starts[r] the range's offset in the trace.
	lo, pos, starts []int
	headT           []float64
	heads           []tenantHead
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
		drained: make([]int, cfg.Tenants*streamsPerTenant),
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
// Every stream is in time order already, so the trace is cut at times into
// up to GOMAXPROCS ranges of at least one SAR interval each — a binary
// search in each stream, so records of one instant share a range — whose
// records are counted, the result allocated once at that size, and each
// range filled into its own part of it on a par worker by a merge over a
// heap of tenant heads keyed (time, tenant), a pop emitting all of the
// tenant's records at that time; a tenant's head is the least (time, k) of
// its stream heads. That is what a stable sort by time of the streams laid
// end to end in rank order gives, at any GOMAXPROCS.
func (m *MultiSystem) Drain() []ingest.Record {
	ns := len(m.drained)
	first, last := math.Inf(1), math.Inf(-1)
	for i, sys := range m.systems {
		for k := 0; k < streamsPerTenant; k++ {
			if from, end := m.drained[i*streamsPerTenant+k], sys.streamLen(k); from < end {
				first = math.Min(first, sys.streamTime(k, from))
				last = math.Max(last, sys.streamTime(k, end-1))
			}
		}
	}
	// A range spans at least one SAR interval. An instant's samples, eight
	// a tenant and most of a drain's records, never straddle a cut, so a
	// drain shorter than two intervals (pfmd -fleet's per-cadence slice)
	// has one instant that carries most of it and nothing to balance.
	ranges := 1
	if span := (last - first) / m.systems[0].cfg.SARInterval; span >= 2 {
		ranges = par.Workers(int(math.Min(span, math.MaxInt32)))
	}
	nt := len(m.systems)
	lo, starts := resize(m.lo, (ranges+1)*ns), resize(m.starts, ranges+1)
	m.lo, m.starts = lo, starts
	m.pos, m.headT, m.heads = resize(m.pos, ranges*ns), resize(m.headT, ranges*ns), resize(m.heads, ranges*nt)
	clear(starts)
	for i, sys := range m.systems {
		for k := 0; k < streamsPerTenant; k++ {
			s, end := i*streamsPerTenant+k, sys.streamLen(k)
			lo[s], lo[ranges*ns+s] = m.drained[s], end
			for r := 1; r < ranges; r++ {
				at, cut := lo[(r-1)*ns+s], first+(last-first)*float64(r)/float64(ranges)
				lo[r*ns+s] = at + sort.Search(end-at, func(j int) bool { return sys.streamTime(k, at+j) >= cut })
			}
			for r := 0; r < ranges; r++ {
				starts[r+1] += lo[(r+1)*ns+s] - lo[r*ns+s]
			}
			m.drained[s] = end
		}
	}
	for r := 1; r <= ranges; r++ {
		starts[r] += starts[r-1]
	}
	out := make([]ingest.Record, starts[ranges])
	if ranges == 1 {
		m.fill(0, out) // without par's closures, which escape
	} else {
		par.For(ranges, func(r int) { m.fill(r, out[starts[r]:starts[r+1]]) })
	}
	return out
}

// resize returns s at length n, reusing its storage when it is large enough.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// fill merges Drain's time range r into out, which holds exactly its
// records.
func (m *MultiSystem) fill(r int, out []ingest.Record) {
	ns, nt := len(m.drained), len(m.systems)
	end := m.lo[(r+1)*ns : (r+2)*ns]
	pos := m.pos[r*ns : (r+1)*ns]
	headT := m.headT[r*ns : (r+1)*ns]
	heads := m.heads[r*nt : r*nt : (r+1)*nt]
	copy(pos, m.lo[r*ns:(r+1)*ns])
	next := func(sys *System, k, s int) {
		headT[s] = math.Inf(1)
		if pos[s] < end[s] {
			headT[s] = sys.streamTime(k, pos[s])
		}
	}
	for i, sys := range m.systems {
		for k := 0; k < streamsPerTenant; k++ {
			next(sys, k, i*streamsPerTenant+k)
		}
		if h := headOf(i, headT); !math.IsInf(h.t, 1) {
			heads = append(heads, h)
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}
	for n := 0; n < len(out); {
		// The root tenant's records at its head time, stream by stream:
		// no stream below its head's k has one.
		i, t := int(heads[0].tenant), heads[0].t
		sys := m.systems[i]
		for k := int(heads[0].k); k < streamsPerTenant; k++ {
			for s := i*streamsPerTenant + k; headT[s] == t; n++ {
				out[n].Event.Tenant = m.ids[i]
				sys.streamRecord(k, pos[s], &out[n])
				pos[s]++
				next(sys, k, s)
			}
		}
		if heads[0] = headOf(i, headT); math.IsInf(heads[0].t, 1) {
			last := len(heads) - 1
			heads[0] = heads[last]
			heads = heads[:last]
		}
		siftDown(heads, 0)
	}
}

// headOf returns tenant i's head from the stream head times headT (by
// rank); its time is +Inf once every stream of the tenant is spent.
func headOf(i int, headT []float64) tenantHead {
	t := headT[i*streamsPerTenant : (i+1)*streamsPerTenant]
	k := 0
	for j := 1; j < len(t); j++ {
		if t[j] < t[k] {
			k = j
		}
	}
	return tenantHead{t: t[k], tenant: int32(i), k: int32(k)}
}

// siftDown restores the min-heap below position i.
func siftDown(h []tenantHead, i int) {
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

// streamRecord fills r, zero but for its Event's Tenant, with record pos of
// stream k.
func (s *System) streamRecord(k, pos int, r *ingest.Record) {
	ev := &r.Event
	switch k {
	case streamLog:
		ev.Error = s.log.At(pos)
		ev.Kind, ev.Time = ingest.KindError, ev.Error.Time
	case streamFail:
		r.Failure, ev.Time = true, s.failures[pos].Time
	default:
		p := s.sarSeries[k-streamSAR].At(pos)
		ev.Kind, ev.Time = ingest.KindSample, p.T
		ev.Variable, ev.Value = SARVariables[k-streamSAR], p.V
	}
}
