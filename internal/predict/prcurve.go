package predict

import (
	"fmt"
	"math"
)

// PRPoint is one operating point of a precision-recall curve.
type PRPoint struct {
	Threshold float64
	Precision float64
	Recall    float64
}

// PrecisionRecall computes the precision-recall curve by sweeping the
// threshold across all distinct scores from most to least conservative.
// It requires at least one positive example.
func PrecisionRecall(scored []Scored) ([]PRPoint, error) {
	pos := 0
	for _, s := range scored {
		if s.Actual {
			pos++
		}
		if math.IsNaN(s.Score) {
			return nil, fmt.Errorf("%w: NaN score", ErrPredict)
		}
	}
	if pos == 0 {
		return nil, fmt.Errorf("%w: precision-recall needs positives", ErrPredict)
	}
	var curve []PRPoint
	sweepTies(scored, func(score float64, tp, fp int) {
		curve = append(curve, PRPoint{
			Threshold: score,
			Precision: float64(tp) / float64(tp+fp),
			Recall:    float64(tp) / float64(pos),
		})
	})
	return curve, nil
}

// Breakeven returns the precision-recall breakeven point — the paper's
// alternative single-number summary ("the value of the point where
// precision equals recall", Sect. 3.3) — approximated as the curve point
// minimizing |precision − recall|, interpolated linearly when the curve
// crosses the diagonal between two points.
func Breakeven(scored []Scored) (float64, error) {
	curve, err := PrecisionRecall(scored)
	if err != nil {
		return 0, err
	}
	best := math.Inf(1)
	value := 0.0
	for i, p := range curve {
		if diff := math.Abs(p.Precision - p.Recall); diff < best {
			best = diff
			value = (p.Precision + p.Recall) / 2
		}
		if i == 0 {
			continue
		}
		// Interpolate across a diagonal crossing.
		prev := curve[i-1]
		d0 := prev.Precision - prev.Recall
		d1 := p.Precision - p.Recall
		if d0*d1 < 0 {
			t := d0 / (d0 - d1)
			pr := prev.Precision + t*(p.Precision-prev.Precision)
			re := prev.Recall + t*(p.Recall-prev.Recall)
			if diff := math.Abs(pr - re); diff < best {
				best = diff
				value = (pr + re) / 2
			}
		}
	}
	return value, nil
}
