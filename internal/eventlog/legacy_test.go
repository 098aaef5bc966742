package eventlog

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// aosLog is the pre-columnar array-of-structs store, kept verbatim as the
// reference implementation: the parity properties below drive random
// traces through both stores and demand bitwise-identical results, so the
// columnar rewrite is pinned to the exact semantics the rest of the
// system was built against.
type aosLog struct {
	events []Event
}

func (l *aosLog) Append(e Event) error {
	if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) {
		return ErrLog
	}
	if n := len(l.events); n > 0 && e.Time < l.events[n-1].Time {
		return ErrLog
	}
	if e.Severity < SeverityInfo || e.Severity > SeverityCritical {
		return ErrLog
	}
	l.events = append(l.events, e)
	return nil
}

func (l *aosLog) Len() int { return len(l.events) }

func (l *aosLog) Window(from, to float64) []Event {
	lo := sort.Search(len(l.events), func(i int) bool { return l.events[i].Time >= from })
	hi := sort.Search(len(l.events), func(i int) bool { return l.events[i].Time >= to })
	if lo == hi {
		return nil
	}
	return append([]Event(nil), l.events[lo:hi]...)
}

// aosSequence mirrors newSequence over a copied window.
func aosSequence(events []Event, label bool) Sequence {
	s := Sequence{Times: make([]float64, len(events)), Types: make([]int, len(events)), Label: label}
	if len(events) == 0 {
		return s
	}
	base := events[0].Time
	for i, e := range events {
		s.Times[i] = e.Time - base
		s.Types[i] = e.Type
	}
	return s
}

// aosExtract mirrors the Fig. 6 extraction over the AoS store.
func aosExtract(l *aosLog, failureTimes []float64, cfg ExtractConfig) (failure, nonFailure []Sequence) {
	guard := cfg.NonFailureGuard
	if guard == 0 {
		guard = cfg.DataWindow + cfg.LeadTime
	}
	ft := append([]float64(nil), failureTimes...)
	sort.Float64s(ft)
	for _, tf := range ft {
		end := tf - cfg.LeadTime
		events := l.Window(end-cfg.DataWindow, end)
		if len(events) < cfg.MinEvents || len(events) == 0 {
			continue
		}
		failure = append(failure, aosSequence(events, true))
	}
	first := l.events[0].Time
	last := l.events[len(l.events)-1].Time
	for start := first; start+cfg.DataWindow <= last; start += cfg.NonFailureStride {
		end := start + cfg.DataWindow
		if tooCloseToFailure(end+cfg.LeadTime, ft, guard) {
			continue
		}
		events := l.Window(start, end)
		if len(events) < cfg.MinEvents || len(events) == 0 {
			continue
		}
		nonFailure = append(nonFailure, aosSequence(events, false))
	}
	return failure, nonFailure
}

// randomTrace yields a reproducible random event stream exercising burst
// timestamps, repeated and fresh strings, and the full severity range.
func randomTrace(seed int64) []Event {
	g := stats.NewRNG(seed)
	n := 10 + g.Intn(120)
	events := make([]Event, 0, n)
	t := 0.0
	comps := []string{"mem", "lb", "svc", "comp-0", "comp-1", "comp-2"}
	msgs := []string{"overload", "memory threshold crossed", "swap pressure", "background report", "component error"}
	for i := 0; i < n; i++ {
		if g.Float64() > 0.3 { // 30% same-timestamp bursts
			t += g.ExpFloat64() * 15
		}
		events = append(events, Event{
			Time:      t,
			Component: comps[g.Intn(len(comps))],
			Type:      g.Intn(12),
			Severity:  Severity(1 + g.Intn(4)),
			Message:   msgs[g.Intn(len(msgs))],
		})
	}
	return events
}

func bothStores(t *testing.T, seed int64) (*Log, *aosLog) {
	t.Helper()
	col, aos := NewLog(), &aosLog{}
	for _, e := range randomTrace(seed) {
		if err := col.Append(e); err != nil {
			t.Fatal(err)
		}
		if err := aos.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	return col, aos
}

func sequencesEqual(a, b []Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Label != b[i].Label || len(a[i].Times) != len(b[i].Times) || len(a[i].Types) != len(b[i].Types) {
			return false
		}
		for j := range a[i].Times {
			// Bitwise equality: both sides must compute base-subtraction
			// identically, not just approximately.
			if math.Float64bits(a[i].Times[j]) != math.Float64bits(b[i].Times[j]) || a[i].Types[j] != b[i].Types[j] {
				return false
			}
		}
	}
	return true
}

// Property: columnar and AoS stores agree event-for-event and
// window-for-window on random traces.
func TestColumnarAoSStoreParity(t *testing.T) {
	f := func(seed int64, fromRaw, spanRaw float64) bool {
		col, aos := bothStores(t, seed)
		if col.Len() != aos.Len() {
			return false
		}
		for i := range aos.events {
			if col.At(i) != aos.events[i] {
				return false
			}
		}
		last := aos.events[len(aos.events)-1].Time
		from := math.Mod(math.Abs(fromRaw), last+10) - 5
		span := math.Mod(math.Abs(spanRaw), last+10)
		lo, hi := col.ScanWindow(from, from+span)
		aw := aos.Window(from, from+span)
		if hi-lo != len(aw) {
			return false
		}
		for i := range aw {
			if col.At(lo+i) != aw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: Extract produces bitwise-identical sequences from both
// stores — the acceptance bar for swapping the backing layout under the
// HSMM training path.
func TestColumnarAoSExtractParity(t *testing.T) {
	f := func(seed int64, failFrac float64) bool {
		col, aos := bothStores(t, seed)
		last := aos.events[len(aos.events)-1].Time
		frac := math.Abs(math.Mod(failFrac, 1))
		failures := []float64{last * frac, last * 0.9}
		cfg := ExtractConfig{DataWindow: 60, LeadTime: 15, MinEvents: 1, NonFailureStride: 45}
		cf, cn, err := Extract(col, failures, cfg)
		if err != nil {
			return false
		}
		af, an := aosExtract(aos, failures, cfg)
		return sequencesEqual(cf, af) && sequencesEqual(cn, an)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
