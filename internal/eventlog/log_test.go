package eventlog

import (
	"testing"
)

func ev(t float64, comp string, typ int, sev Severity) Event {
	return Event{Time: t, Component: comp, Type: typ, Severity: sev, Message: "m"}
}

func buildLog(t *testing.T, events ...Event) *Log {
	t.Helper()
	l := NewLog()
	for _, e := range events {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestAppendValidation(t *testing.T) {
	l := NewLog()
	if err := l.Append(ev(1, "a", 1, SeverityError)); err != nil {
		t.Fatal(err)
	}
	// Equal timestamps are fine (bursts), decreasing are not.
	if err := l.Append(ev(1, "a", 2, SeverityError)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(ev(0.5, "a", 3, SeverityError)); err == nil {
		t.Fatal("decreasing time accepted")
	}
	if err := l.Append(Event{Time: 2, Component: "a", Type: 1, Severity: 99, Message: "m"}); err == nil {
		t.Fatal("bad severity accepted")
	}
	if err := l.Append(Event{Time: 2, Component: "a", Type: 1, Severity: SeverityInfo, Message: "a|b"}); err == nil {
		t.Fatal("reserved character accepted")
	}
}

func TestWindowAndFilter(t *testing.T) {
	l := buildLog(t,
		ev(1, "a", 1, SeverityInfo),
		ev(2, "b", 2, SeverityError),
		ev(3, "c", 3, SeverityCritical),
	)
	lo, hi := l.ScanWindow(2, 3)
	if hi-lo != 1 || l.At(lo).Component != "b" {
		t.Fatalf("ScanWindow(2, 3) = [%d, %d)", lo, hi)
	}
}

// TestScanWindowBounds pins the window primitive's boundary semantics
// ([from, to), empty and out-of-range spans included) against a plain scan
// over the events.
func TestScanWindowBounds(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		if err := l.Append(Event{Time: float64(i), Component: "c", Type: i, Severity: SeverityInfo}); err != nil {
			t.Fatal(err)
		}
	}
	for _, span := range [][2]float64{{0, 10}, {2, 7}, {3, 3}, {-5, 2}, {9, 50}, {20, 30}} {
		lo, hi := l.ScanWindow(span[0], span[1])
		if lo > hi || hi > l.Len() {
			t.Fatalf("[%g,%g): ScanWindow = [%d,%d) of %d", span[0], span[1], lo, hi, l.Len())
		}
		for i := 0; i < l.Len(); i++ {
			in := l.At(i).Time >= span[0] && l.At(i).Time < span[1]
			if in != (i >= lo && i < hi) {
				t.Fatalf("[%g,%g): ScanWindow = [%d,%d), event %d in-window %v", span[0], span[1], lo, hi, i, in)
			}
		}
	}
}

// TestGrow pins the preallocation contract: one Grow, no further
// reallocation for n appends, existing events intact.
func TestGrow(t *testing.T) {
	l := NewLog()
	if err := l.Append(Event{Time: 1, Component: "c", Type: 1, Severity: SeverityInfo}); err != nil {
		t.Fatal(err)
	}
	l.Grow(100)
	if free := cap(l.times) - len(l.times); free < 100 {
		t.Fatalf("free capacity after Grow(100) = %d, want >= 100", free)
	}
	base := &l.times[0]
	for i := 0; i < 100; i++ {
		if err := l.Append(Event{Time: float64(2 + i), Component: "c", Type: i, Severity: SeverityInfo}); err != nil {
			t.Fatal(err)
		}
	}
	if &l.times[0] != base {
		t.Fatal("appends within grown capacity reallocated the backing store")
	}
	if l.Len() != 101 || l.At(0).Time != 1 {
		t.Fatalf("log corrupted by Grow: len=%d first=%+v", l.Len(), l.At(0))
	}
	l.Grow(-1) // no-op, must not panic
}
