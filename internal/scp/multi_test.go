package scp

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/ingest"
)

// TestZipfWeights checks shape and normalization of the skew profile.
func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(8, 1)
	sum := 0.0
	for i, v := range w {
		if v <= 0 {
			t.Fatalf("weight %d = %g", i, v)
		}
		if i > 0 && v > w[i-1] {
			t.Fatalf("weights not monotone: w[%d]=%g > w[%d]=%g", i, v, i-1, w[i-1])
		}
		sum += v
	}
	if math.Abs(sum-8) > 1e-9 {
		t.Fatalf("weights sum to %g, want 8 (mean 1)", sum)
	}
	for i, v := range ZipfWeights(5, 0) {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("uniform skew: weight %d = %g, want 1", i, v)
		}
	}
}

// TestMultiSystemDeterministicTrace runs the same fleet twice and compares
// the merged traces record by record, and checks basic invariants: records
// time-ordered, every tenant present, hot tenants louder than cold ones.
func TestMultiSystemDeterministicTrace(t *testing.T) {
	build := func() []ingest.Record {
		m, err := NewMulti(MultiConfig{Tenants: 6, BaseSeed: 42, Skew: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Two Run/Drain slices must concatenate into the same trace a
		// single drain would produce.
		if err := m.Run(2 * 3600); err != nil {
			t.Fatal(err)
		}
		trace := m.Drain()
		if err := m.Run(2 * 3600); err != nil {
			t.Fatal(err)
		}
		return append(trace, m.Drain()...)
	}
	a, b := build(), build()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("trace lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	perTenant := map[string]int{}
	for i, r := range a {
		perTenant[r.Event.Tenant]++
		// Time order holds within each drained slice; across the slice
		// boundary records restart at the slice's start time.
		if i > 0 && a[i].Event.Time < a[i-1].Event.Time && a[i-1].Event.Time < 2*3600 {
			t.Fatalf("record %d out of order: %g after %g", i, a[i].Event.Time, a[i-1].Event.Time)
		}
	}
	if len(perTenant) != 6 {
		t.Fatalf("trace covers %d tenants, want 6", len(perTenant))
	}
	// SAR cadence is load-independent, but error traffic tracks load: the
	// hottest tenant must out-chatter the coldest in the error log.
	m, err := NewMulti(MultiConfig{Tenants: 6, BaseSeed: 42, Skew: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.IDs()); got != 6 {
		t.Fatalf("IDs() has %d entries", got)
	}
	if w := m.Weights(); w[0] <= w[5] {
		t.Fatalf("skewed weights not decreasing: %v", w)
	}
}

// TestMultiSystemValidation pins constructor errors.
func TestMultiSystemValidation(t *testing.T) {
	if _, err := NewMulti(MultiConfig{Tenants: 0}); err == nil {
		t.Fatal("zero tenants accepted")
	}
	if _, err := NewMulti(MultiConfig{Tenants: 2, Skew: math.NaN()}); err == nil {
		t.Fatal("NaN skew accepted")
	}
	if _, err := NewMulti(MultiConfig{Tenants: 2, Skew: -1}); err == nil {
		t.Fatal("negative skew accepted")
	}
}

// refDrain is Drain as it was before it became a merge, kept as the
// reference: lay every tenant's new records end to end (errors, each SAR
// series in SARVariables order, failures) and stable-sort them by time.
type refDrain struct {
	log, fail []int
	sar       []map[string]int
}

func newRefDrain(tenants int) *refDrain {
	r := &refDrain{log: make([]int, tenants), fail: make([]int, tenants), sar: make([]map[string]int, tenants)}
	for i := range r.sar {
		r.sar[i] = map[string]int{}
	}
	return r
}

func (r *refDrain) drain(t *testing.T, m *MultiSystem) []ingest.Record {
	t.Helper()
	var out []ingest.Record
	for i, sys := range m.systems {
		id := m.ids[i]
		log := sys.Log()
		for n := log.Len(); r.log[i] < n; r.log[i]++ {
			e := log.At(r.log[i])
			out = append(out, ingest.Record{Event: ingest.Event{
				Tenant: id, Kind: ingest.KindError, Time: e.Time,
				Error: eventlog.Event{
					Time: e.Time, Component: e.Component, Type: e.Type,
					Severity: e.Severity, Message: e.Message,
				},
			}})
		}
		for _, name := range SARVariables {
			series, err := sys.SAR(name)
			if err != nil {
				t.Fatal(err)
			}
			for n := series.Len(); r.sar[i][name] < n; r.sar[i][name]++ {
				p := series.At(r.sar[i][name])
				out = append(out, ingest.Record{Event: ingest.Event{
					Tenant: id, Kind: ingest.KindSample, Time: p.T,
					Variable: name, Value: p.V,
				}})
			}
		}
		for times := sys.FailureTimes(); r.fail[i] < len(times); r.fail[i]++ {
			out = append(out, ingest.Record{Event: ingest.Event{Tenant: id, Time: times[r.fail[i]]}, Failure: true})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Event.Time < out[b].Event.Time })
	return out
}

func sameRecords(t *testing.T, what string, got, want []ingest.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d differs:\n got %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
}

// TestDrainMatchesStableSort holds the merge equal, record for record, to
// the stable sort it replaced: one Drain after a full Run, and Run in
// unequal slices with a Drain after each — two of them with no Run between,
// so the second is empty — for 1, 2 and 200 tenants.
func TestDrainMatchesStableSort(t *testing.T) {
	if len(SARVariables) != sarCount {
		t.Fatalf("SARVariables has %d names, the sar* constants count %d", len(SARVariables), sarCount)
	}
	for _, tenants := range []int{1, 2, 200} {
		cfg := MultiConfig{Tenants: tenants, BaseSeed: 9, Skew: 1}
		m, err := NewMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(2 * 3600); err != nil {
			t.Fatal(err)
		}
		whole := m.Drain()
		sameRecords(t, fmt.Sprintf("%d tenants, one drain", tenants), whole, newRefDrain(tenants).drain(t, m))

		if m, err = NewMulti(cfg); err != nil {
			t.Fatal(err)
		}
		ref := newRefDrain(tenants)
		var sliced []ingest.Record
		for step, d := range []float64{7, 1793, 0, 61, 3600, 1739} {
			if d > 0 {
				if err := m.Run(d); err != nil {
					t.Fatal(err)
				}
			}
			got := m.Drain()
			if d == 0 && len(got) != 0 {
				t.Fatalf("%d tenants: drain without a run gave %d records", tenants, len(got))
			}
			sameRecords(t, fmt.Sprintf("%d tenants, slice %d", tenants, step), got, ref.drain(t, m))
			sliced = append(sliced, got...)
		}
		// Slicing the Run moves no record: the slices joined are the one drain.
		sameRecords(t, fmt.Sprintf("%d tenants, slices joined", tenants), sliced, whole)
	}
}

// TestDrainTies builds streams by hand so that one instant holds records
// of both tenants and of every kind of each, and checks the order Drain
// promises: time, then tenant rank, then errors, samples in SARVariables
// order, failures.
func TestDrainTies(t *testing.T) {
	m, err := NewMulti(MultiConfig{Tenants: 2, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range m.systems {
		for _, at := range []float64{30, 60, 60, 90} {
			if err := sys.log.Append(eventlog.Event{Time: at, Component: "lb", Type: EventOverload, Severity: eventlog.SeverityWarning, Message: "overload"}); err != nil {
				t.Fatal(err)
			}
		}
		for _, at := range []float64{60, 120} {
			for k, series := range sys.sarSeries {
				if err := series.Append(at, float64(k)); err != nil {
					t.Fatal(err)
				}
			}
		}
		sys.failures = append(sys.failures, FailureRecord{Time: 60}, FailureRecord{Time: 90})
	}
	got := m.Drain()
	sameRecords(t, "ties", got, newRefDrain(2).drain(t, m))

	var want []string
	want = append(want, "30 t0000 error", "30 t0001 error")
	for _, id := range m.ids {
		want = append(want, "60 "+id+" error", "60 "+id+" error")
		for _, name := range SARVariables {
			want = append(want, "60 "+id+" "+name)
		}
		want = append(want, "60 "+id+" failure")
	}
	want = append(want, "90 t0000 error", "90 t0000 failure", "90 t0001 error", "90 t0001 failure")
	for _, id := range m.ids {
		for _, name := range SARVariables {
			want = append(want, "120 "+id+" "+name)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		what := map[ingest.Kind]string{ingest.KindError: "error", ingest.KindSample: r.Event.Variable}[r.Event.Kind]
		if r.Failure {
			what = "failure"
		}
		if s := fmt.Sprintf("%g %s %s", r.Event.Time, r.Event.Tenant, what); s != want[i] {
			t.Fatalf("record %d is %q, want %q", i, s, want[i])
		}
	}
}

// TestMultiSystemParallelMatchesSerial holds NewMulti and Run to the par
// contract: the records are the same on one P (par's inline serial loop) as
// on four, where tenants are built and run on several goroutines.
func TestMultiSystemParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	build := func(procs int) []ingest.Record {
		runtime.GOMAXPROCS(procs)
		m, err := NewMulti(MultiConfig{Tenants: 40, BaseSeed: 5, Skew: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(1800); err != nil {
			t.Fatal(err)
		}
		trace := m.Drain()
		if err := m.Run(1800); err != nil {
			t.Fatal(err)
		}
		return append(trace, m.Drain()...)
	}
	serial := build(1)
	if len(serial) == 0 {
		t.Fatal("empty trace")
	}
	sameRecords(t, "GOMAXPROCS 4 against 1", build(4), serial)
}

// TestMultiSystemLowestTenantError checks that of several failing tenants
// the lowest-ranked is reported, whichever goroutine fails first.
func TestMultiSystemLowestTenantError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	for round := 0; round < 20; round++ {
		err := forTenants(64, func(i int) error {
			if i == 41 || i == 5 || i == 17 {
				return fmt.Errorf("tenant %d: %w", i, ErrSCP)
			}
			return nil
		})
		if err == nil || !errors.Is(err, ErrSCP) || !strings.HasPrefix(err.Error(), "tenant 5:") {
			t.Fatalf("round %d: got %v, want tenant 5's error", round, err)
		}
	}
	m, err := NewMulti(MultiConfig{Tenants: 8, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(-1); err == nil || !strings.HasPrefix(err.Error(), "tenant t0000:") {
		t.Fatalf("Run(-1): got %v, want tenant t0000's error", err)
	}
}
