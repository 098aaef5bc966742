// Package timeseries provides the time-series representation shared by the
// monitoring layer and the symptom-based failure predictors: append-only
// series of (time, value) points with windowing, trend estimation, and
// feature extraction for learning.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ErrSeries is wrapped by all series errors.
var ErrSeries = errors.New("timeseries: invalid operation")

// Point is one observation.
type Point struct {
	T float64 // observation time [s]
	V float64 // observed value
}

// Series is an append-only, time-ordered sequence of observations of one
// monitored variable.
type Series struct {
	Name   string
	points []Point
}

// New returns an empty series for the named variable.
func New(name string) *Series {
	return &Series{Name: name}
}

// Append adds an observation; time must strictly increase.
func (s *Series) Append(t, v float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("%w: time %g", ErrSeries, t)
	}
	if n := len(s.points); n > 0 && t <= s.points[n-1].T {
		return fmt.Errorf("%w: time %g not after %g", ErrSeries, t, s.points[n-1].T)
	}
	s.points = append(s.points, Point{T: t, V: v})
	return nil
}

// Grow reserves room for at least n more observations, so a producer that
// knows how many it will append (a simulator leg of known length) appends
// without regrowing and copying the points. It changes capacity only.
func (s *Series) Grow(n int) {
	if n > 0 {
		s.points = slices.Grow(s.points, n)
	}
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.points) }

// At returns the i-th observation.
func (s *Series) At(i int) Point { return s.points[i] }

// Last returns the most recent observation and whether one exists.
func (s *Series) Last() (Point, bool) {
	if len(s.points) == 0 {
		return Point{}, false
	}
	return s.points[len(s.points)-1], true
}

// Mean returns the mean of the observed values, summed in time order (NaN
// for an empty series): stats.Mean over the values, without copying them
// out.
func (s *Series) Mean() float64 {
	if len(s.points) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, p := range s.points {
		sum += p.V
	}
	return sum / float64(len(s.points))
}

// Window returns the sub-series with times in the half-open interval
// [from, to). It is a view of s, not a copy: it shares s's points and holds
// what s held when Window was called. Its capacity is clipped to its length,
// so an Append to the view copies the points out instead of writing into s.
//
// Window is small enough to inline, so a caller that only reads the view
// (Len, Mean, LinearTrend, Last) keeps it on its own stack: the searches
// live in span for that reason (TestWindowReadsZeroAlloc).
func (s *Series) Window(from, to float64) *Series {
	return &Series{Name: s.Name, points: s.span(from, to)}
}

// span returns the points with times in [from, to), capacity clipped.
func (s *Series) span(from, to float64) []Point {
	lo := sort.Search(len(s.points), func(i int) bool { return s.points[i].T >= from })
	hi := sort.Search(len(s.points), func(i int) bool { return s.points[i].T >= to })
	return s.points[lo:hi:hi]
}

// ValueAt returns the latest observed value at or before t (zero-order
// hold), and whether any observation exists at or before t.
func (s *Series) ValueAt(t float64) (float64, bool) {
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].T > t })
	if i == 0 {
		return 0, false
	}
	return s.points[i-1].V, true
}

// LinearTrend fits v ≈ slope·t + intercept by ordinary least squares.
// It returns an error for fewer than two points or constant time.
func (s *Series) LinearTrend() (slope, intercept float64, err error) {
	n := len(s.points)
	if n < 2 {
		return 0, 0, fmt.Errorf("%w: trend needs ≥ 2 points", ErrSeries)
	}
	var st, sv, stt, stv float64
	for _, p := range s.points {
		st += p.T
		sv += p.V
		stt += p.T * p.T
		stv += p.T * p.V
	}
	fn := float64(n)
	den := fn*stt - st*st
	if den == 0 {
		return 0, 0, fmt.Errorf("%w: degenerate time axis", ErrSeries)
	}
	slope = (fn*stv - st*sv) / den
	intercept = (sv - slope*st) / fn
	return slope, intercept, nil
}
