// Package baseline implements one reference predictor per branch of the
// paper's Fig. 3 taxonomy of online failure prediction, so the taxonomy is
// executable and the exemplary methods (UBF, HSMM) can be compared against
// the approaches the survey cites:
//
//   - detected error reporting / rule-based: the Dispersion Frame Technique
//     (Lin & Siewiorek [51,52])
//   - detected error reporting / error-rate statistics: Nassar et al. [56]
//   - detected error reporting / data mining: event-set scoring in the
//     spirit of Vilalta et al. [73]
//   - symptom monitoring / trend analysis: resource-trend estimation in the
//     spirit of Garg et al. [28]
//   - failure tracking: hazard of a Weibull fitted to inter-failure times
//     (Csenki [20] / Pfefferman [61] lineage)
//
// All predictors emit a real-valued failure-proneness score so they plug
// into the predict package's threshold/ROC machinery.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/eventlog"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// ErrBaseline is wrapped by all package errors.
var ErrBaseline = errors.New("baseline: invalid operation")

// DFT is an adaptation of the Dispersion Frame Technique: it inspects the
// inter-error intervals ("dispersion frames") of a window and scores how
// strongly the error arrivals accelerate. The classic rules fire on frame
// halving and error pile-ups; the score is the weighted number of rule
// firings, so thresholding at ≥ 1 recovers rule-based warnings.
type DFT struct {
	// HalvingWeight scores each frame that is at most half its
	// predecessor (the 2-in-1 rule). Default 1.
	HalvingWeight float64
	// PileupWeight scores each point where 4 errors fall inside one
	// preceding frame (the 4-in-1 rule). Default 1.
	PileupWeight float64
	// MonotoneWeight scores each run of 4 monotonically shrinking frames
	// (accelerating arrival). Default 1.
	MonotoneWeight float64
}

// withDefaults fills zero weights.
func (d DFT) withDefaults() DFT {
	if d.HalvingWeight == 0 {
		d.HalvingWeight = 1
	}
	if d.PileupWeight == 0 {
		d.PileupWeight = 1
	}
	if d.MonotoneWeight == 0 {
		d.MonotoneWeight = 1
	}
	return d
}

// Score rates the sequence; higher means more failure-prone.
func (d DFT) Score(seq eventlog.Sequence) (float64, error) {
	d = d.withDefaults()
	times := seq.Times
	if len(times) < 2 {
		return 0, nil
	}
	score := 0.0
	shrinkRun := 0
	// The frames are the inter-event delays; step i compares the one
	// ending at event i with the one before it.
	for i := 2; i < len(times); i++ {
		prev, frame := times[i-1]-times[i-2], times[i]-times[i-1]
		if frame <= prev/2 {
			score += d.HalvingWeight
		}
		if frame < prev {
			shrinkRun++
			if shrinkRun >= 3 { // 4 shrinking frames = 3 consecutive decreases
				score += d.MonotoneWeight
			}
		} else {
			shrinkRun = 0
		}
	}
	// 4-in-1 rule: four errors within the span of one earlier frame.
	for i := 0; i+3 < len(seq.Times); i++ {
		span := seq.Times[i+3] - seq.Times[i]
		if i >= 1 {
			prev := seq.Times[i] - seq.Times[i-1]
			if span <= prev {
				score += d.PileupWeight
			}
		}
	}
	return score, nil
}

// ErrorRate is the Nassar-style statistical predictor: failure-proneness
// grows with the error generation rate in the window.
type ErrorRate struct {
	// Window is the reference window length [s] used to normalize the
	// count into a rate; zero scores the raw count.
	Window float64
}

// Score rates the sequence by error rate.
func (e ErrorRate) Score(seq eventlog.Sequence) (float64, error) {
	score := float64(seq.Len())
	if e.Window > 0 {
		score /= e.Window
	}
	return score, nil
}

// EventSet is a Vilalta-style indicative-event-set model: from labeled
// training windows it learns, per event type, the log-ratio of occurrence
// probability in failure vs non-failure windows; a window's score is the
// sum of log-ratios of the distinct types it contains.
type EventSet struct {
	logRatio map[int]float64
	// unseen is the log-ratio applied to types never seen in training.
	unseen float64
}

// TrainEventSet learns the model with Laplace smoothing.
func TrainEventSet(failure, nonFailure []eventlog.Sequence, smoothing float64) (*EventSet, error) {
	if len(failure) == 0 || len(nonFailure) == 0 {
		return nil, fmt.Errorf("%w: event-set training needs both classes (%d/%d)",
			ErrBaseline, len(failure), len(nonFailure))
	}
	if smoothing <= 0 {
		smoothing = 1
	}
	present := func(seqs []eventlog.Sequence) map[int]float64 {
		counts := make(map[int]float64)
		for _, s := range seqs {
			seen := make(map[int]bool)
			for _, t := range s.Types {
				if !seen[t] {
					counts[t]++
					seen[t] = true
				}
			}
		}
		return counts
	}
	fCounts, nCounts := present(failure), present(nonFailure)
	types := make(map[int]bool)
	for t := range fCounts {
		types[t] = true
	}
	for t := range nCounts {
		types[t] = true
	}
	m := &EventSet{logRatio: make(map[int]float64, len(types))}
	nf, nn := float64(len(failure)), float64(len(nonFailure))
	for t := range types {
		pf := (fCounts[t] + smoothing) / (nf + 2*smoothing)
		pn := (nCounts[t] + smoothing) / (nn + 2*smoothing)
		m.logRatio[t] = math.Log(pf / pn)
	}
	m.unseen = math.Log(smoothing / (nf + 2*smoothing) * (nn + 2*smoothing) / smoothing)
	return m, nil
}

// Score sums the learned log-ratios over the distinct types present.
func (m *EventSet) Score(seq eventlog.Sequence) (float64, error) {
	seen := make(map[int]bool)
	score := 0.0
	for _, t := range seq.Types {
		if seen[t] {
			continue
		}
		seen[t] = true
		if lr, ok := m.logRatio[t]; ok {
			score += lr
		} else {
			score += m.unseen
		}
	}
	return score, nil
}

// Trend is a Garg-style resource-trend predictor: it fits a linear trend to
// a monitored variable over a window and scores the slope toward
// exhaustion.
type Trend struct {
	// Direction is +1 if growth of the variable means trouble (e.g. queue
	// length) and −1 if shrinkage does (e.g. free memory).
	Direction float64
	// Window is the look-back horizon [s].
	Window float64
}

// Score fits the trend over the trailing window ending at now.
func (t Trend) Score(s *timeseries.Series, now float64) (float64, error) {
	if t.Direction != 1 && t.Direction != -1 {
		return 0, fmt.Errorf("%w: trend direction must be ±1, got %g", ErrBaseline, t.Direction)
	}
	if t.Window <= 0 {
		return 0, fmt.Errorf("%w: trend window %g", ErrBaseline, t.Window)
	}
	w := s.Window(now-t.Window, now+1e-9)
	if w.Len() < 2 {
		return 0, nil
	}
	slope, _, err := w.LinearTrend()
	if err != nil {
		return 0, nil // constant window: no trend signal
	}
	return slope * t.Direction, nil
}

// FailureTracker predicts from the failure history alone: it fits a
// Weibull distribution to inter-failure times and scores the current
// hazard given the time since the last failure.
type FailureTracker struct {
	dist stats.Weibull
}

// FitFailureTracker fits the Weibull by matching the first two moments of
// the observed inter-failure times (bisection on the shape).
func FitFailureTracker(interFailure []float64) (*FailureTracker, error) {
	if len(interFailure) < 2 {
		return nil, fmt.Errorf("%w: need ≥ 2 inter-failure times", ErrBaseline)
	}
	for _, d := range interFailure {
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: inter-failure time %g", ErrBaseline, d)
		}
	}
	mean := stats.Mean(interFailure)
	sd := stats.StdDev(interFailure)
	if sd == 0 {
		sd = mean * 1e-3
	}
	targetCV2 := (sd / mean) * (sd / mean)
	// CV² is strictly decreasing in the shape k; bisect on k ∈ [0.1, 20].
	cv2 := func(k float64) float64 {
		g1 := math.Gamma(1 + 1/k)
		g2 := math.Gamma(1 + 2/k)
		return g2/(g1*g1) - 1
	}
	lo, hi := 0.1, 20.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if cv2(mid) > targetCV2 {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2
	scale := mean / math.Gamma(1+1/k)
	return &FailureTracker{dist: stats.Weibull{K: k, Lambda: scale}}, nil
}

// Score returns the fitted hazard rate at the given time since the last
// failure.
func (f *FailureTracker) Score(timeSinceLastFailure float64) (float64, error) {
	if timeSinceLastFailure < 0 {
		return 0, fmt.Errorf("%w: negative elapsed time", ErrBaseline)
	}
	return f.dist.Hazard(timeSinceLastFailure), nil
}

// Shape exposes the fitted Weibull shape (> 1 indicates aging).
func (f *FailureTracker) Shape() float64 { return f.dist.K }
