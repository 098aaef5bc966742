package timeseries

import (
	"math"
	"testing"
)

func mustSeries(t *testing.T, name string, pts ...Point) *Series {
	t.Helper()
	s := New(name)
	for _, p := range pts {
		if err := s.Append(p.T, p.V); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestAppendOrdering(t *testing.T) {
	s := New("x")
	if err := s.Append(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, 11); err == nil {
		t.Fatal("duplicate time accepted")
	}
	if err := s.Append(0.5, 9); err == nil {
		t.Fatal("decreasing time accepted")
	}
	if err := s.Append(math.NaN(), 1); err == nil {
		t.Fatal("NaN time accepted")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestGrowReservesOnly: Grow keeps the points and their count, and the
// appends it reserved for allocate nothing.
func TestGrowReservesOnly(t *testing.T) {
	s := mustSeries(t, "x", Point{1, 10}, Point{2, 20})
	s.Grow(100)
	if s.Len() != 2 || s.At(1) != (Point{2, 20}) {
		t.Fatalf("Grow changed the series: len %d, last %v", s.Len(), s.At(1))
	}
	next := 3.0
	allocs := testing.AllocsPerRun(50, func() {
		_ = s.Append(next, next)
		next++
	})
	if allocs != 0 {
		t.Fatalf("append after Grow allocates %v", allocs)
	}
}

func TestLastAndAt(t *testing.T) {
	s := mustSeries(t, "x", Point{1, 10}, Point{2, 20})
	last, ok := s.Last()
	if !ok || last.V != 20 {
		t.Fatalf("Last = %v, %v", last, ok)
	}
	if s.At(0).V != 10 {
		t.Fatal("At(0) wrong")
	}
	empty := New("e")
	if _, ok := empty.Last(); ok {
		t.Fatal("empty Last should be not-ok")
	}
}

func TestWindow(t *testing.T) {
	s := mustSeries(t, "x", Point{1, 1}, Point{2, 2}, Point{3, 3}, Point{4, 4})
	w := s.Window(2, 4)
	if w.Len() != 2 || w.At(0).T != 2 || w.At(1).T != 3 {
		t.Fatalf("Window(2,4) = %v", w.points)
	}
	// The window is a view with clipped capacity: an Append to it must not
	// write into its parent.
	if err := w.Append(3.5, 35); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 3 || s.Len() != 4 || s.At(3) != (Point{4, 4}) {
		t.Fatalf("Append to the window reached its parent: %v", s.points)
	}
	if s.Window(10, 20).Len() != 0 {
		t.Fatal("out-of-range window not empty")
	}
	// Window on an empty series.
	if New("e").Window(0, 1).Len() != 0 {
		t.Fatal("empty series window not empty")
	}
}

func TestValueAtZeroOrderHold(t *testing.T) {
	s := mustSeries(t, "x", Point{1, 10}, Point{3, 30})
	if _, ok := s.ValueAt(0.5); ok {
		t.Fatal("value before first observation should be not-ok")
	}
	if v, ok := s.ValueAt(1); !ok || v != 10 {
		t.Fatalf("ValueAt(1) = %g, %v", v, ok)
	}
	if v, _ := s.ValueAt(2.9); v != 10 {
		t.Fatalf("ValueAt(2.9) = %g, want hold of 10", v)
	}
	if v, _ := s.ValueAt(100); v != 30 {
		t.Fatalf("ValueAt(100) = %g", v)
	}
}

func TestLinearTrend(t *testing.T) {
	s := mustSeries(t, "x", Point{0, 1}, Point{1, 3}, Point{2, 5})
	slope, intercept, err := s.LinearTrend()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 {
		t.Fatalf("trend = %g, %g", slope, intercept)
	}
	if _, _, err := New("e").LinearTrend(); err == nil {
		t.Fatal("empty trend accepted")
	}
}

// TestWindowReadsZeroAlloc pins Window's inlining: a view that is only read
// (Len, Mean, LinearTrend, Last) stays on the caller's stack, so windowing
// a series and reading the window allocates nothing. If a toolchain stops
// inlining Window, this fails: restructure Window, do not loosen the pin.
func TestWindowReadsZeroAlloc(t *testing.T) {
	s := New("x")
	for i := 0; i < 200; i++ {
		if err := s.Append(float64(i), float64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		w := s.Window(10, 60)
		slope, _, _ := w.LinearTrend()
		last, _ := w.Last()
		sink += float64(w.Len()) + w.Mean() + slope + last.V
	})
	if allocs != 0 {
		t.Fatalf("Window + reads allocate %.1f/op, want 0", allocs)
	}
	_ = sink
}

// TestMean: the mean sums the values in time order, as stats.Mean does over
// a copy of them, and is NaN on an empty series or window.
func TestMean(t *testing.T) {
	s := mustSeries(t, "x", Point{1, 0.1}, Point{2, 0.7}, Point{3, 1e-3}, Point{4, 3.3})
	vals := []float64{0.7, 1e-3, 3.3}
	want := ((vals[0] + vals[1]) + vals[2]) / float64(len(vals))
	if got := s.Window(2, 5).Mean(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	if !math.IsNaN(s.Window(10, 20).Mean()) || !math.IsNaN(New("e").Mean()) {
		t.Fatal("empty mean not NaN")
	}
}
