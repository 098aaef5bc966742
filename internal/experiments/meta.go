package experiments

import (
	"fmt"
	"sort"

	"repro/internal/baseline"
	"repro/internal/eventlog"
	"repro/internal/mat"
	"repro/internal/meta"
	"repro/internal/predict"
	ts "repro/internal/timeseries"
)

// MetaResult is the E11 outcome: AUCs of each per-layer base predictor and
// of the stacked combination on the same held-out grid.
type MetaResult struct {
	BaseAUC    map[string]float64
	StackedAUC float64
	// Weights is the combiner weight per base predictor (translucency).
	Weights map[string]float64
}

// Rows renders the result, the base predictors by name.
func (r MetaResult) Rows() []Row {
	rows := make([]Row, 0, len(r.BaseAUC)+1)
	names := make([]string, 0, len(r.BaseAUC))
	for n := range r.BaseAUC {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		rows = append(rows, Row{
			Name:   "base " + name,
			Values: map[string]float64{"AUC": r.BaseAUC[name]},
			Order:  []string{"AUC"},
		})
	}
	rows = append(rows, Row{
		Name:   "stacked",
		Values: map[string]float64{"AUC": r.StackedAUC},
		Order:  []string{"AUC"},
	})
	return rows
}

// RunMetaLearning reproduces the Sect. 6 blueprint claim (E11): stacked
// generalization over per-layer predictors (log-pattern HSMM, memory trend,
// error rate) improves on every single layer.
func RunMetaLearning(cfg CaseStudyConfig) (MetaResult, error) {
	ds, err := buildDataset(cfg, true)
	if err != nil {
		return MetaResult{}, err
	}
	clf, err := ds.trainHSMMClassifier()
	if err != nil {
		return MetaResult{}, fmt.Errorf("hsmm: %w", err)
	}
	mem, err := ds.sys.SAR("mem_free")
	if err != nil {
		return MetaResult{}, err
	}
	trend := baseline.Trend{Direction: -1, Window: dataWindow * 4}
	rate := baseline.ErrorRate{Window: dataWindow}
	log := ds.sys.Log()

	names := []string{"log-hsmm", "mem-trend", "error-rate"}
	baseScores := func(times []float64) (*mat.Matrix, error) {
		m := mat.New(len(times), len(names))
		windows := eventlog.SlidingWindows(log, times, dataWindow)
		hs, err := clf.ScoreAll(windows)
		if err != nil {
			return nil, err
		}
		for i, t := range times {
			m.Set(i, 0, hs[i])
			tr, err := trend.Score(mem, t)
			if err != nil {
				return nil, err
			}
			m.Set(i, 1, tr)
			rs, err := rate.Score(windows[i])
			if err != nil {
				return nil, err
			}
			m.Set(i, 2, rs)
		}
		return m, nil
	}
	trainScores, err := baseScores(ds.trainTimes)
	if err != nil {
		return MetaResult{}, err
	}
	testScores, err := baseScores(ds.testTimes)
	if err != nil {
		return MetaResult{}, err
	}
	// Standardize base scores so the logistic combiner sees comparable
	// magnitudes; apply the training transform to the test scores.
	means, stds := ts.StandardizeColumns(trainScores)
	if err := ts.ApplyStandardization(testScores, means, stds); err != nil {
		return MetaResult{}, err
	}

	stacker, err := meta.TrainStacker(trainScores, ds.trainLabels, names, meta.LogisticConfig{
		Epochs: 400,
		Rate:   0.5,
	})
	if err != nil {
		return MetaResult{}, err
	}

	result := MetaResult{
		BaseAUC: make(map[string]float64, len(names)),
		Weights: stacker.Weights(),
	}
	for c, name := range names {
		auc, err := predict.AUCOf(paired(testScores.Col(c), ds.testLabels))
		if err != nil {
			return MetaResult{}, fmt.Errorf("%s: %w", name, err)
		}
		result.BaseAUC[name] = auc
	}
	stacked := make([]float64, testScores.Rows)
	for r := 0; r < testScores.Rows; r++ {
		p, err := stacker.Score(testScores.Row(r))
		if err != nil {
			return MetaResult{}, err
		}
		stacked[r] = p
	}
	result.StackedAUC, err = predict.AUCOf(paired(stacked, ds.testLabels))
	if err != nil {
		return MetaResult{}, err
	}
	return result, nil
}
