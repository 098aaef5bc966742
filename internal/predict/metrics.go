// Package predict defines the common prediction vocabulary of the library:
// prediction outcomes, contingency tables with the Sect. 3.3 quality
// metrics (precision, recall, false positive rate, F-measure), threshold
// sweeps and ROC curves with AUC.
package predict

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrPredict is wrapped by all evaluation errors.
var ErrPredict = errors.New("predict: invalid operation")

// Outcome classifies one prediction against ground truth (Table 1 rows).
type Outcome int

// The four prediction outcomes.
const (
	TruePositive Outcome = iota + 1
	FalsePositive
	TrueNegative
	FalseNegative
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case TruePositive:
		return "TP"
	case FalsePositive:
		return "FP"
	case TrueNegative:
		return "TN"
	case FalseNegative:
		return "FN"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Classify returns the outcome of a single prediction.
func Classify(predicted, actual bool) Outcome {
	switch {
	case predicted && actual:
		return TruePositive
	case predicted && !actual:
		return FalsePositive
	case !predicted && !actual:
		return TrueNegative
	default:
		return FalseNegative
	}
}

// FailureIn reports whether sorted failures holds one in (from, to]: the
// Sect. 3.3 rule that a prediction made at t for horizon h is a true one when
// a failure occurs in (t, t+h].
func FailureIn(failures []float64, from, to float64) bool {
	i := sort.SearchFloat64s(failures, from)
	for i < len(failures) && failures[i] == from {
		i++
	}
	return i < len(failures) && failures[i] <= to
}

// ContingencyTable counts prediction outcomes.
type ContingencyTable struct {
	TP, FP, TN, FN int
}

// Add records one prediction.
func (c *ContingencyTable) Add(predicted, actual bool) {
	switch Classify(predicted, actual) {
	case TruePositive:
		c.TP++
	case FalsePositive:
		c.FP++
	case TrueNegative:
		c.TN++
	case FalseNegative:
		c.FN++
	}
}

// Total returns the number of recorded predictions.
func (c ContingencyTable) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Precision is TP/(TP+FP): the fraction of correct failure warnings.
// NaN when no warnings were raised.
func (c ContingencyTable) Precision() float64 {
	if c.TP+c.FP == 0 {
		return math.NaN()
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall (true positive rate) is TP/(TP+FN): the fraction of failures that
// were predicted. NaN when there were no failures.
func (c ContingencyTable) Recall() float64 {
	if c.TP+c.FN == 0 {
		return math.NaN()
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FPR is FP/(FP+TN): the fraction of non-failures falsely warned about.
// NaN when there were no non-failures.
func (c ContingencyTable) FPR() float64 {
	if c.FP+c.TN == 0 {
		return math.NaN()
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// FMeasure is the harmonic mean of precision and recall; 0 when either is
// undefined or zero.
func (c ContingencyTable) FMeasure() float64 {
	p, r := c.Precision(), c.Recall()
	if math.IsNaN(p) || math.IsNaN(r) || p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy is (TP+TN)/total; NaN for an empty table.
func (c ContingencyTable) Accuracy() float64 {
	if c.Total() == 0 {
		return math.NaN()
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// String renders the table with its derived metrics.
func (c ContingencyTable) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d precision=%.3f recall=%.3f fpr=%.4f F=%.3f",
		c.TP, c.FP, c.TN, c.FN, c.Precision(), c.Recall(), c.FPR(), c.FMeasure())
}

// Scored pairs a predictor's raw score with the ground truth; higher scores
// mean "more failure-prone".
type Scored struct {
	Score  float64
	Actual bool
}

// Evaluate thresholds the scored predictions: a warning is raised when
// score ≥ threshold.
func Evaluate(scored []Scored, threshold float64) ContingencyTable {
	var c ContingencyTable
	for _, s := range scored {
		c.Add(s.Score >= threshold, s.Actual)
	}
	return c
}

// ROCPoint is one operating point of a Receiver Operating Characteristic.
type ROCPoint struct {
	Threshold float64
	TPR       float64 // true positive rate (recall)
	FPR       float64 // false positive rate
}

// ROC computes the ROC curve by sweeping the threshold across all distinct
// scores, from most to least conservative. The returned curve starts at
// (0,0) (threshold +Inf) and ends at (1,1) (threshold −Inf). It requires at
// least one positive and one negative example.
func ROC(scored []Scored) ([]ROCPoint, error) {
	pos, neg := 0, 0
	for _, s := range scored {
		if s.Actual {
			pos++
		} else {
			neg++
		}
		if math.IsNaN(s.Score) {
			return nil, fmt.Errorf("%w: NaN score", ErrPredict)
		}
	}
	if pos == 0 || neg == 0 {
		return nil, fmt.Errorf("%w: ROC needs both classes (pos=%d, neg=%d)", ErrPredict, pos, neg)
	}
	curve := []ROCPoint{{Threshold: math.Inf(1), TPR: 0, FPR: 0}}
	sweepTies(scored, func(score float64, tp, fp int) {
		curve = append(curve, ROCPoint{
			Threshold: score,
			TPR:       float64(tp) / float64(pos),
			FPR:       float64(fp) / float64(neg),
		})
	})
	return curve, nil
}

// sweepTies sorts the scores from highest to lowest and calls visit once per
// group of equal scores — every distinct threshold, most conservative first —
// with the warnings a threshold at that score raises: tp on failures, fp on
// non-failures. A NaN score is never ≥ a threshold (Evaluate never warns on
// it) and no threshold itself, so it is left out of the sweep.
func sweepTies(scored []Scored, visit func(score float64, tp, fp int)) {
	sorted := make([]Scored, 0, len(scored))
	for _, s := range scored {
		if !math.IsNaN(s.Score) {
			sorted = append(sorted, s)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })
	tp, fp := 0, 0
	for i := 0; i < len(sorted); {
		// Consume all examples tied at this score before visiting it.
		score := sorted[i].Score
		for i < len(sorted) && sorted[i].Score == score {
			if sorted[i].Actual {
				tp++
			} else {
				fp++
			}
			i++
		}
		visit(score, tp, fp)
	}
}

// AUC returns the area under the ROC curve by trapezoidal integration.
func AUC(curve []ROCPoint) (float64, error) {
	if len(curve) < 2 {
		return 0, fmt.Errorf("%w: AUC needs ≥ 2 ROC points", ErrPredict)
	}
	area := 0.0
	for i := 1; i < len(curve); i++ {
		dx := curve[i].FPR - curve[i-1].FPR
		if dx < 0 {
			return 0, fmt.Errorf("%w: ROC curve not sorted by FPR", ErrPredict)
		}
		area += dx * (curve[i].TPR + curve[i-1].TPR) / 2
	}
	return area, nil
}

// AUCOf is a convenience composing ROC and AUC.
func AUCOf(scored []Scored) (float64, error) {
	curve, err := ROC(scored)
	if err != nil {
		return 0, err
	}
	return AUC(curve)
}

// MaxFMeasure sweeps all distinct scores and returns the threshold that
// maximizes the F-measure together with the contingency table at that
// threshold (the operating point the paper reports in Sect. 3.3). Among
// thresholds with equal F it returns the highest. A NaN score counts as
// never warned about — what Evaluate does with it — and is never the
// threshold; a set with no other score is an error.
func MaxFMeasure(scored []Scored) (threshold float64, best ContingencyTable, err error) {
	if len(scored) == 0 {
		return 0, ContingencyTable{}, fmt.Errorf("%w: empty evaluation set", ErrPredict)
	}
	pos := 0
	for _, s := range scored {
		if s.Actual {
			pos++
		}
	}
	neg := len(scored) - pos
	bestF := -1.0
	sweepTies(scored, func(score float64, tp, fp int) {
		c := ContingencyTable{TP: tp, FP: fp, TN: neg - fp, FN: pos - tp}
		// The sweep descends, so only a strictly better F replaces the best.
		if f := c.FMeasure(); f > bestF {
			bestF, threshold, best = f, score, c
		}
	})
	if bestF < 0 {
		return 0, ContingencyTable{}, fmt.Errorf("%w: every score is NaN", ErrPredict)
	}
	return threshold, best, nil
}
