package eventlog

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// randomLog builds a random but valid log from a seed.
func randomLog(seed int64) *Log {
	g := stats.NewRNG(seed)
	l := NewLog()
	t := 0.0
	n := 5 + g.Intn(60)
	for i := 0; i < n; i++ {
		t += g.ExpFloat64() * 10
		_ = l.Append(Event{
			Time:      t,
			Component: string(rune('a' + g.Intn(4))),
			Type:      g.Intn(8),
			Severity:  Severity(1 + g.Intn(4)),
			Message:   "m",
		})
	}
	return l
}

// Property: adjacent windows partition the full range.
func TestWindowPartitionProperty(t *testing.T) {
	f := func(seed int64, splitFrac float64) bool {
		l := randomLog(seed)
		lo := l.At(0).Time - 1
		hi := l.At(l.Len()-1).Time + 1
		frac := math.Abs(math.Mod(splitFrac, 1))
		mid := lo + (hi-lo)*frac
		l0, l1 := l.ScanWindow(lo, mid)
		r0, r1 := l.ScanWindow(mid, hi)
		return l0 == 0 && l1 == r0 && r1 == l.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: extracted sequences are re-based (start at 0) with
// non-decreasing times.
func TestExtractSequenceInvariants(t *testing.T) {
	f := func(seed int64) bool {
		l := randomLog(seed)
		mid := (l.At(0).Time + l.At(l.Len()-1).Time) / 2
		fail, nonFail, err := Extract(l, []float64{mid}, ExtractConfig{
			DataWindow:       40,
			LeadTime:         10,
			MinEvents:        1,
			NonFailureStride: 25,
		})
		if err != nil {
			return false
		}
		for _, s := range append(fail, nonFail...) {
			if s.Len() == 0 {
				return false
			}
			if s.Times[0] != 0 {
				return false
			}
			for i := 1; i < s.Len(); i++ {
				if s.Times[i] < s.Times[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
