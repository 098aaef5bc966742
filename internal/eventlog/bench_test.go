package eventlog

import (
	"testing"
)

// benchLog builds an n-event log with the component/message cardinality of
// the SCP simulator, and a failure time every 1000 events.
func benchLog(b *testing.B, n int) (*Log, []float64) {
	b.Helper()
	col := NewLog()
	col.Grow(n)
	comps := []string{"mem", "lb", "svc", "comp-0", "comp-1", "comp-2", "comp-3"}
	msgs := []string{"overload", "memory threshold crossed", "swap pressure", "background report", "component error"}
	var failures []float64
	for i := 0; i < n; i++ {
		e := Event{
			Time:      float64(i) * 0.7,
			Component: comps[i%len(comps)],
			Type:      i % 11,
			Severity:  Severity(1 + i%4),
			Message:   msgs[i%len(msgs)],
		}
		if err := col.Append(e); err != nil {
			b.Fatal(err)
		}
		if i%1000 == 999 {
			failures = append(failures, e.Time)
		}
	}
	return col, failures
}

// BenchmarkEventlogExtract times the Fig. 6 extraction on the columnar
// store: ExtractInto at steady state, zero allocations.
func BenchmarkEventlogExtract(b *testing.B) {
	const n = 100_000
	col, failures := benchLog(b, n)
	cfg := ExtractConfig{DataWindow: 300, LeadTime: 60, MinEvents: 1, NonFailureStride: 240}

	b.Run("columnar", func(b *testing.B) {
		fail, nonFail, err := ExtractInto(col, failures, cfg, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		events := 0
		for _, s := range fail {
			events += s.Len()
		}
		for _, s := range nonFail {
			events += s.Len()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fail, nonFail, err = ExtractInto(col, failures, cfg, fail, nonFail)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if events > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		}
	})
}

// BenchmarkWindowScan times a diagnosis-style scan — locate a window, count
// severe events — on the columnar store (ScanWindow + severity column pass).
func BenchmarkWindowScan(b *testing.B) {
	const n = 100_000
	col, _ := benchLog(b, n)
	span := 600.0
	last := col.TimeAt(col.Len() - 1)

	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		events := 0
		for i := 0; i < b.N; i++ {
			from := float64(i%97) / 97 * (last - span)
			lo, hi := col.ScanWindow(from, from+span)
			events += hi - lo
			if c := col.CountSevere(lo, hi, SeverityError); c < 0 {
				b.Fatal("impossible")
			}
		}
		b.StopTimer()
		if b.N > 0 && events > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		}
	})
}

// BenchmarkLogAppend measures the simulator-side append cost: columnar
// interned appends.
func BenchmarkLogAppend(b *testing.B) {
	comps := []string{"mem", "lb", "svc", "comp-0"}
	msgs := []string{"overload", "component error"}
	b.Run("columnar", func(b *testing.B) {
		l := NewLog()
		l.Grow(b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := l.Append(Event{
				Time: float64(i), Component: comps[i%len(comps)], Type: i % 7,
				Severity: SeverityError, Message: msgs[i%len(msgs)],
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
