package experiments

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/predict"
	"repro/internal/ubf"
)

// StrategyResult is one row of the E8 variable-selection comparison.
type StrategyResult struct {
	Strategy string
	CVError  float64 // cross-validated MSE of the inner model
	NumVars  int
	TestAUC  float64 // AUC of the UBF net trained on the selected subset
	Selected []string
}

// SelectionResult aggregates E8.
type SelectionResult struct {
	Strategies []StrategyResult
}

// Rows renders the comparison.
func (r SelectionResult) Rows() []Row {
	rows := make([]Row, 0, len(r.Strategies))
	for _, s := range r.Strategies {
		rows = append(rows, Row{
			Name: s.Strategy,
			Values: map[string]float64{
				"cvMSE": s.CVError,
				"vars":  float64(s.NumVars),
				"AUC":   s.TestAUC,
			},
			Order: []string{"cvMSE", "vars", "AUC"},
		})
	}
	return rows
}

// ByStrategy returns the named strategy's row.
func (r SelectionResult) ByStrategy(name string) (StrategyResult, bool) {
	for _, s := range r.Strategies {
		if s.Strategy == name {
			return s, true
		}
	}
	return StrategyResult{}, false
}

// expertVariables is the "(human) domain expert" choice the paper compares
// PWA against: the variables an operator would name first.
var expertVariables = []string{"mem_free", "cpu", "load"}

// RunSelectionComparison reproduces E8: PWA versus forward selection,
// backward elimination, the expert subset, and all variables — compared by
// inner cross-validation error and by the test AUC of the resulting UBF
// predictor.
func RunSelectionComparison(cfg CaseStudyConfig) (SelectionResult, error) {
	ds, err := buildDataset(cfg, false)
	if err != nil {
		return SelectionResult{}, err
	}
	trainX, testX, names, err := ds.featureData()
	if err != nil {
		return SelectionResult{}, err
	}
	y, err := ds.ubfTarget()
	if err != nil {
		return SelectionResult{}, err
	}
	eval, err := ubf.LinearCVEvaluator(trainX, y, 5, 1e-6, cfg.Seed+300)
	if err != nil {
		return SelectionResult{}, err
	}

	all := make([]int, trainX.Cols)
	for i := range all {
		all[i] = i
	}
	expert := indicesOf(names, expertVariables)

	type strategy struct {
		name string
		run  func() ([]int, float64, error)
	}
	strategies := []strategy{
		{"PWA", func() ([]int, float64, error) {
			return ubf.PWASelect(trainX.Cols, eval, ubf.SelectorConfig{
				Iterations: 250,
				Seed:       cfg.Seed + 301,
			})
		}},
		{"forward", func() ([]int, float64, error) {
			return ubf.ForwardSelect(trainX.Cols, eval)
		}},
		{"backward", func() ([]int, float64, error) {
			return ubf.BackwardEliminate(trainX.Cols, eval)
		}},
		{"expert", func() ([]int, float64, error) {
			score, err := eval(expert)
			return expert, score, err
		}},
		{"all", func() ([]int, float64, error) {
			score, err := eval(all)
			return all, score, err
		}},
	}

	// Each strategy is self-contained (own seed, read-only shared data), so
	// the five searches run in parallel; results assemble in declaration
	// order and the first error in that order is the one reported, exactly
	// as the serial loop would.
	rows := make([]StrategyResult, len(strategies))
	errs := make([]error, len(strategies))
	par.ForN(cfg.Workers, len(strategies), func(i int) {
		s := strategies[i]
		subset, cvErr, err := s.run()
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", s.name, err)
			return
		}
		auc, err := ds.subsetAUC(trainX, testX, y, subset, cfg)
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", s.name, err)
			return
		}
		selected := make([]string, 0, len(subset))
		for _, c := range subset {
			selected = append(selected, names[c])
		}
		rows[i] = StrategyResult{
			Strategy: s.name,
			CVError:  cvErr,
			NumVars:  len(subset),
			TestAUC:  auc,
			Selected: selected,
		}
	})
	for _, err := range errs {
		if err != nil {
			return SelectionResult{}, err
		}
	}
	return SelectionResult{Strategies: rows}, nil
}

// subsetAUC trains a UBF net on the column subset and scores the test grid.
func (ds *dataset) subsetAUC(trainX, testX *mat.Matrix, y []float64, subset []int, cfg CaseStudyConfig) (float64, error) {
	subTrain, err := ubf.SubsetColumns(trainX, subset)
	if err != nil {
		return 0, err
	}
	subTest, err := ubf.SubsetColumns(testX, subset)
	if err != nil {
		return 0, err
	}
	net, err := ubf.Train(subTrain, y, ubf.TrainConfig{
		NumKernels:  ubfKernels,
		Candidates:  15,
		Refinements: 10,
		Seed:        cfg.Seed + 302,
	})
	if err != nil {
		return 0, err
	}
	scores, err := net.PredictRows(subTest)
	if err != nil {
		return 0, err
	}
	return predict.AUCOf(paired(scores, ds.testLabels))
}

// indicesOf maps variable names to their column indices (raw columns carry
// the plain variable name).
func indicesOf(names []string, wanted []string) []int {
	var out []int
	for _, w := range wanted {
		for i, n := range names {
			if n == w {
				out = append(out, i)
				break
			}
		}
	}
	return out
}
