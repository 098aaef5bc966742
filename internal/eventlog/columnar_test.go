package eventlog

import (
	"testing"
)

func denseLog(t testing.TB, n int) *Log {
	t.Helper()
	l := NewLog()
	l.Grow(n)
	comps := []string{"mem", "lb", "svc", "comp-0", "comp-1"}
	for i := 0; i < n; i++ {
		if err := l.Append(Event{
			Time:      float64(i) * 0.5,
			Component: comps[i%len(comps)],
			Type:      i % 9,
			Severity:  Severity(1 + i%4),
			Message:   "m",
		}); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestScanWindowZeroAllocs pins the hot window primitive to zero
// allocations at steady state.
func TestScanWindowZeroAllocs(t *testing.T) {
	l := denseLog(t, 4096)
	var lo, hi int
	allocs := testing.AllocsPerRun(200, func() {
		lo, hi = l.ScanWindow(100, 1500)
	})
	if allocs != 0 {
		t.Fatalf("ScanWindow allocates %.1f/op, want 0", allocs)
	}
	if hi <= lo {
		t.Fatalf("ScanWindow returned empty range [%d,%d)", lo, hi)
	}
}

// TestSlidingWindowIntoZeroAllocs pins the online-scoring sequence path:
// after buffer warm-up, per-cycle window extraction allocates nothing.
func TestSlidingWindowIntoZeroAllocs(t *testing.T) {
	l := denseLog(t, 4096)
	var s Sequence
	SlidingWindowInto(l, 2000, 300, &s) // warm the buffers
	allocs := testing.AllocsPerRun(200, func() {
		SlidingWindowInto(l, 2000, 300, &s)
	})
	if allocs != 0 {
		t.Fatalf("SlidingWindowInto allocates %.1f/op, want 0", allocs)
	}
	if s.Len() == 0 || s.Times[0] != 0 {
		t.Fatalf("sequence malformed: len=%d", s.Len())
	}
}

// TestExtractIntoZeroAllocs pins the column-native Extract: with recycled
// sequence slices and a pre-sorted failure list, repeated extraction over
// the same log allocates nothing.
func TestExtractIntoZeroAllocs(t *testing.T) {
	l := denseLog(t, 4096)
	failures := []float64{500, 1200, 1900}
	cfg := ExtractConfig{DataWindow: 120, LeadTime: 30, MinEvents: 1, NonFailureStride: 90}
	fail, nonFail, err := ExtractInto(l, failures, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fail) == 0 || len(nonFail) == 0 {
		t.Fatalf("extraction empty: %d/%d", len(fail), len(nonFail))
	}
	allocs := testing.AllocsPerRun(50, func() {
		fail, nonFail, err = ExtractInto(l, failures, cfg, fail, nonFail)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ExtractInto allocates %.1f/op at steady state, want 0", allocs)
	}
	// Recycled output still matches a fresh extraction.
	ff, fn, err := Extract(l, failures, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sequencesEqual(fail, ff) || !sequencesEqual(nonFail, fn) {
		t.Fatal("recycled ExtractInto output diverged from fresh Extract")
	}
}

// TestArenaBatchesMatchOneByOne: the arena-backed batches — SlidingWindows,
// and Extract with nothing to recycle — hold, bit for bit, what the
// one-sequence-at-a-time paths produce (SlidingWindow per time; ExtractInto
// into buffers it must grow), cost a fixed number of allocations however
// many sequences they return, and clip every sequence's capacity, so an
// append to one cannot write into the next.
func TestArenaBatchesMatchOneByOne(t *testing.T) {
	l := denseLog(t, 4096)
	times := []float64{-5, 0, 0.25, 1, 150, 151, 900, 2047.5, 2048, 5000}
	windows := SlidingWindows(l, times, 100)
	for i, tm := range times {
		if want := SlidingWindow(l, tm, 100); !sequencesEqual([]Sequence{windows[i]}, []Sequence{want}) {
			t.Fatalf("window at %g differs from SlidingWindow", tm)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { SlidingWindows(l, times, 100) }); allocs != 3 {
		t.Fatalf("SlidingWindows allocates %.1f/op, want 3 (arena times, types, windows)", allocs)
	}

	failures := []float64{500, 1200, 1900}
	cfg := ExtractConfig{DataWindow: 120, LeadTime: 30, MinEvents: 1, NonFailureStride: 90}
	fail, nonFail, err := Extract(l, failures, cfg)
	if err != nil {
		t.Fatal(err)
	}
	grownFail, grownNon, err := ExtractInto(l, failures, cfg, make([]Sequence, 0, 1), make([]Sequence, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(fail) == 0 || len(nonFail) < 10 || !sequencesEqual(fail, grownFail) || !sequencesEqual(nonFail, grownNon) {
		t.Fatalf("arena Extract (%d/%d) differs from ExtractInto's grown buffers", len(fail), len(nonFail))
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _, _ = Extract(l, failures, cfg) }); allocs != 4 {
		t.Fatalf("Extract allocates %.1f/op, want 4 (two slices, arena times, types)", allocs)
	}

	for name, seqs := range map[string][]Sequence{"windows": windows, "failure": fail, "non-failure": nonFail} {
		for i := 0; i+1 < len(seqs); i++ {
			s := seqs[i]
			if cap(s.Times) != len(s.Times) || cap(s.Types) != len(s.Types) {
				t.Fatalf("%s %d: capacity %d/%d for length %d", name, i, cap(s.Times), cap(s.Types), s.Len())
			}
		}
		next := append([]float64(nil), seqs[1].Times...)
		_ = append(seqs[0].Times, -1)
		if !sequencesEqual([]Sequence{{Times: next, Types: seqs[1].Types, Label: seqs[1].Label}}, seqs[1:2]) {
			t.Fatalf("%s: an append to one sequence reached the next", name)
		}
	}
}

// TestAtZeroAllocs: materializing events borrows dictionary strings, so
// even the compatibility accessor is allocation-free per event.
func TestAtZeroAllocs(t *testing.T) {
	l := denseLog(t, 256)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < l.Len(); i++ {
			e := l.At(i)
			if e.Severity == 0 {
				t.Fatal("bad event")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("At allocates %.1f per full scan, want 0", allocs)
	}
}

func TestSlice(t *testing.T) {
	l := denseLog(t, 100)
	sub := l.Slice(10, 25)
	lo, hi := l.ScanWindow(10, 25)
	if sub.Len() != hi-lo {
		t.Fatalf("Slice len %d, want %d", sub.Len(), hi-lo)
	}
	for i := 0; i < sub.Len(); i++ {
		if sub.At(i) != l.At(lo+i) {
			t.Fatalf("Slice event %d = %+v, want %+v", i, sub.At(i), l.At(lo+i))
		}
	}
	// The slice is independent: appending to it must not disturb the parent.
	if err := sub.Append(Event{Time: 1e6, Component: "new-comp", Type: 1, Severity: SeverityInfo, Message: "x"}); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 100 {
		t.Fatal("Slice aliases parent columns")
	}
	if sub.At(sub.Len()-1).Component != "new-comp" {
		t.Fatal("append to slice lost")
	}
}

func TestTypeBitset(t *testing.T) {
	var b TypeBitset
	if b.Has(0) || b.Has(100) || b.Has(-1) {
		t.Fatal("empty set has members")
	}
	b.Add(0)
	b.Add(63)
	b.Add(64)
	b.Add(200)
	b.Add(-5) // ignored
	for _, want := range []int{0, 63, 64, 200} {
		if !b.Has(want) {
			t.Fatalf("missing %d", want)
		}
	}
	b.Reset()
	if b.Has(0) || b.Has(64) || b.Has(200) {
		t.Fatal("Reset did not clear")
	}
}

// TestColumnCapacityLockstep: growth keeps all five columns at the same
// capacity so a later bulk append never reallocates a subset.
func TestColumnCapacityLockstep(t *testing.T) {
	l := denseLog(t, 3000)
	if c := cap(l.times); cap(l.types) != c || cap(l.sevs) != c || cap(l.comps) != c || cap(l.msgs) != c {
		t.Fatalf("column capacities diverged: %d/%d/%d/%d/%d",
			cap(l.times), cap(l.types), cap(l.sevs), cap(l.comps), cap(l.msgs))
	}
	if cap(l.times)%logChunk != 0 {
		t.Fatalf("capacity %d not chunk-rounded", cap(l.times))
	}
}
