package eventlog

import (
	"fmt"
	"math"
	"sort"
)

// Sequence is an event-driven temporal error sequence (Fig. 4): event type
// IDs with their timestamps, re-based so the first event is at time zero.
// Label records whether the sequence preceded a failure (training truth).
type Sequence struct {
	Times []float64 // re-based, non-decreasing
	Types []int
	Label bool
}

// Len returns the number of events in the sequence.
func (s Sequence) Len() int { return len(s.Types) }

// Delays returns the inter-event delays (len-1 values); useful for
// duration-distribution fitting.
func (s Sequence) Delays() []float64 {
	if len(s.Times) < 2 {
		return nil
	}
	out := make([]float64, len(s.Times)-1)
	for i := 1; i < len(s.Times); i++ {
		out[i-1] = s.Times[i] - s.Times[i-1]
	}
	return out
}

// sequenceInto writes the re-based sequence for the column index range
// [lo, hi) straight from the log's columns into s, reusing s.Times/s.Types
// capacity when sufficient. No intermediate []Event exists: times and
// types stream column→column, which is both the zero-alloc steady state
// and the cache-friendly access pattern.
func (l *Log) sequenceInto(s *Sequence, lo, hi int, label bool) {
	n := hi - lo
	if cap(s.Times) < n {
		s.Times = make([]float64, n)
	} else {
		s.Times = s.Times[:n]
	}
	if cap(s.Types) < n {
		s.Types = make([]int, n)
	} else {
		s.Types = s.Types[:n]
	}
	s.Label = label
	if n == 0 {
		return
	}
	base := l.times[lo]
	times := l.times[lo:hi]
	types := l.types[lo:hi]
	for i, t := range times {
		s.Times[i] = t - base
	}
	for i, t := range types {
		s.Types[i] = int(t)
	}
}

// ExtractConfig parameterizes the Fig. 6 sequence extraction.
type ExtractConfig struct {
	// DataWindow is Δtd, the length of the error-data window [s].
	DataWindow float64
	// LeadTime is Δtl, the gap between the end of the data window and the
	// failure it predicts [s].
	LeadTime float64
	// MinEvents drops sequences with fewer events (too little signal).
	MinEvents int
	// NonFailureStride is the sampling stride for non-failure windows [s].
	NonFailureStride float64
	// NonFailureGuard is the minimum distance a non-failure window's
	// prediction point may sit from any failure [s]; it defaults to
	// DataWindow + LeadTime when zero.
	NonFailureGuard float64
}

// Validate checks the configuration.
func (c ExtractConfig) Validate() error {
	if c.DataWindow <= 0 || math.IsNaN(c.DataWindow) {
		return fmt.Errorf("%w: data window Δtd = %g", ErrLog, c.DataWindow)
	}
	if c.LeadTime < 0 || math.IsNaN(c.LeadTime) {
		return fmt.Errorf("%w: lead time Δtl = %g", ErrLog, c.LeadTime)
	}
	if c.MinEvents < 0 {
		return fmt.Errorf("%w: min events %d", ErrLog, c.MinEvents)
	}
	if c.NonFailureStride <= 0 || math.IsNaN(c.NonFailureStride) {
		return fmt.Errorf("%w: non-failure stride %g", ErrLog, c.NonFailureStride)
	}
	if c.NonFailureGuard < 0 {
		return fmt.Errorf("%w: non-failure guard %g", ErrLog, c.NonFailureGuard)
	}
	return nil
}

// Extract implements the Fig. 6 training-set construction. For every
// failure at time t_f it emits the failure sequence of errors within
// [t_f − Δtl − Δtd, t_f − Δtl). Non-failure sequences are windows of length
// Δtd sampled on a stride whose prediction point (window end + Δtl) is at
// least the guard distance away from every failure.
func Extract(l *Log, failureTimes []float64, cfg ExtractConfig) (failure, nonFailure []Sequence, err error) {
	return ExtractInto(l, failureTimes, cfg, nil, nil)
}

// ExtractInto is Extract reusing the caller's sequence slices: the
// returned failure/nonFailure slices recycle the given ones (and the
// Times/Types buffers of their elements) when capacity allows, so
// repeated extraction over a growing log — the retrain-window capture
// path — reaches a zero-allocation steady state. Given nothing to recycle
// (nils, as Extract passes), it sizes the result first and backs every
// sequence with one arena (see SlidingWindows).
func ExtractInto(l *Log, failureTimes []float64, cfg ExtractConfig, failure, nonFailure []Sequence) ([]Sequence, []Sequence, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if l.Len() == 0 {
		return nil, nil, fmt.Errorf("%w: empty log", ErrLog)
	}
	ft := failureTimes
	if !sort.Float64sAreSorted(ft) {
		ft = append([]float64(nil), failureTimes...)
		sort.Float64s(ft)
	}

	if cap(failure) == 0 && cap(nonFailure) == 0 {
		var nf, nn, events int
		l.extractWindows(ft, cfg, func(lo, hi int, label bool) {
			events += hi - lo
			if label {
				nf++
			} else {
				nn++
			}
		})
		if nf > 0 {
			failure = make([]Sequence, 0, nf)
		}
		if nn > 0 {
			nonFailure = make([]Sequence, 0, nn)
		}
		a := newArena(events)
		l.extractWindows(ft, cfg, func(lo, hi int, label bool) {
			if label {
				failure = append(failure, a.take(l, lo, hi, true))
			} else {
				nonFailure = append(nonFailure, a.take(l, lo, hi, false))
			}
		})
		return failure, nonFailure, nil
	}

	failure, nonFailure = failure[:0], nonFailure[:0]
	l.extractWindows(ft, cfg, func(lo, hi int, label bool) {
		if label {
			failure = appendSequence(failure, l, lo, hi, true)
		} else {
			nonFailure = appendSequence(nonFailure, l, lo, hi, false)
		}
	})
	return failure, nonFailure, nil
}

// extractWindows calls visit with the column range and label of every
// sequence Extract emits, in emission order: the failure windows of the
// sorted failure times ft, then the non-failure windows.
func (l *Log) extractWindows(ft []float64, cfg ExtractConfig, visit func(lo, hi int, label bool)) {
	guard := cfg.NonFailureGuard
	if guard == 0 {
		guard = cfg.DataWindow + cfg.LeadTime
	}
	for _, tf := range ft {
		end := tf - cfg.LeadTime
		start := end - cfg.DataWindow
		lo, hi := l.ScanWindow(start, end)
		if hi-lo < cfg.MinEvents || lo == hi {
			continue
		}
		visit(lo, hi, true)
	}

	first := l.times[0]
	last := l.times[l.Len()-1]
	for start := first; start+cfg.DataWindow <= last; start += cfg.NonFailureStride {
		end := start + cfg.DataWindow
		predictionPoint := end + cfg.LeadTime
		if tooCloseToFailure(predictionPoint, ft, guard) {
			continue
		}
		lo, hi := l.ScanWindow(start, end)
		if hi-lo < cfg.MinEvents || lo == hi {
			continue
		}
		visit(lo, hi, false)
	}
}

// appendSequence extends seqs with the sequence for [lo, hi), reusing the
// buffers of a recycled element when one is available past len.
func appendSequence(seqs []Sequence, l *Log, lo, hi int, label bool) []Sequence {
	var s Sequence
	if len(seqs) < cap(seqs) {
		s = seqs[:len(seqs)+1][len(seqs)]
	}
	l.sequenceInto(&s, lo, hi, label)
	return append(seqs, s)
}

// arena backs many sequences with one Times and one Types array, sized up
// front by the caller.
type arena struct {
	times []float64
	types []int
}

// newArena returns an arena with room for n events.
func newArena(n int) arena {
	return arena{times: make([]float64, 0, n), types: make([]int, 0, n)}
}

// take carves the sequence for the column range [lo, hi) out of the arena.
// Its capacity is clipped to its length, so an append to it copies it out
// instead of writing into the sequence carved after it.
func (a *arena) take(l *Log, lo, hi int, label bool) Sequence {
	from, to := len(a.times), len(a.times)+hi-lo
	a.times, a.types = a.times[:to], a.types[:to]
	s := Sequence{Times: a.times[from:to:to], Types: a.types[from:to:to]}
	l.sequenceInto(&s, lo, hi, label)
	return s
}

// tooCloseToFailure reports whether t lies within guard of any failure time
// in the sorted slice ft.
func tooCloseToFailure(t float64, ft []float64, guard float64) bool {
	i := sort.SearchFloat64s(ft, t)
	if i < len(ft) && ft[i]-t < guard {
		return true
	}
	if i > 0 && t-ft[i-1] < guard {
		return true
	}
	return false
}

// SlidingWindow returns the runtime-evaluation sequence: the errors within
// the trailing Δtd window ending at time now — one binary-searched column
// range streamed into fresh sequence buffers.
func SlidingWindow(l *Log, now, dataWindow float64) Sequence {
	var s Sequence
	SlidingWindowInto(l, now, dataWindow, &s)
	return s
}

// SlidingWindows returns SlidingWindow(l, t, dataWindow) for every t in
// times, as views into one arena: a first pass sizes it from the ScanWindow
// bounds, a second fills it, so the batch costs three allocations however
// many windows it holds. Each window's capacity is clipped to its length,
// so an append to one copies it out rather than writing into the next.
func SlidingWindows(l *Log, times []float64, dataWindow float64) []Sequence {
	events := 0
	for _, t := range times {
		lo, hi := l.ScanWindow(t-dataWindow, t)
		events += hi - lo
	}
	a := newArena(events)
	seqs := make([]Sequence, len(times))
	for i, t := range times {
		lo, hi := l.ScanWindow(t-dataWindow, t)
		seqs[i] = a.take(l, lo, hi, false)
	}
	return seqs
}

// SlidingWindowInto is SlidingWindow writing into a caller-owned sequence,
// reusing its Times/Types capacity — the zero-allocation form for online
// scoring loops that evaluate every cycle.
func SlidingWindowInto(l *Log, now, dataWindow float64, s *Sequence) {
	lo, hi := l.ScanWindow(now-dataWindow, now)
	l.sequenceInto(s, lo, hi, false)
}
