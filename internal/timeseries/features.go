package timeseries

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/stats"
)

// FeatureSpec describes how one monitored variable contributes columns to a
// feature matrix: the raw value plus optional window statistics, as used by
// the UBF case study (Sect. 3.2: "workload, number of semaphore operations
// per second, and memory consumption").
type FeatureSpec struct {
	Series *Series
	// Window is the look-back horizon [s] for the derived statistics.
	// Zero disables the derived columns.
	Window float64
	// WithMean adds the window mean, WithTrend the window linear slope.
	WithMean, WithTrend bool
}

// NumColumns returns how many feature columns the spec produces.
func (f FeatureSpec) NumColumns() int {
	n := 1
	if f.Window > 0 && f.WithMean {
		n++
	}
	if f.Window > 0 && f.WithTrend {
		n++
	}
	return n
}

// ColumnNames returns one name per produced column.
func (f FeatureSpec) ColumnNames() []string {
	names := []string{f.Series.Name}
	if f.Window > 0 && f.WithMean {
		names = append(names, f.Series.Name+".mean")
	}
	if f.Window > 0 && f.WithTrend {
		names = append(names, f.Series.Name+".trend")
	}
	return names
}

// BuildMatrix samples every spec at each of the given times (zero-order
// hold) and assembles the design matrix: one row per time, columns in spec
// order. A time with no observation yet in some series is an error — the
// caller should restrict times to the monitored horizon.
func BuildMatrix(specs []FeatureSpec, times []float64) (*mat.Matrix, []string, error) {
	if len(specs) == 0 || len(times) == 0 {
		return nil, nil, fmt.Errorf("%w: BuildMatrix needs specs and times", ErrSeries)
	}
	cols := 0
	var names []string
	for _, sp := range specs {
		cols += sp.NumColumns()
		names = append(names, sp.ColumnNames()...)
	}
	m := mat.New(len(times), cols)
	for r, t := range times {
		c := 0
		for _, sp := range specs {
			v, ok := sp.Series.ValueAt(t)
			if !ok {
				return nil, nil, fmt.Errorf("%w: series %q has no observation at or before t=%g", ErrSeries, sp.Series.Name, t)
			}
			m.Set(r, c, v)
			c++
			if sp.Window > 0 && (sp.WithMean || sp.WithTrend) {
				w := sp.Series.Window(t-sp.Window, t+1e-9)
				if sp.WithMean {
					mean := v
					if w.Len() > 0 {
						mean = w.Mean()
					}
					m.Set(r, c, mean)
					c++
				}
				if sp.WithTrend {
					slope := 0.0
					if w.Len() >= 2 {
						s, _, err := w.LinearTrend()
						if err == nil {
							slope = s
						}
					}
					m.Set(r, c, slope)
					c++
				}
			}
		}
	}
	return m, names, nil
}

// StandardizeColumns z-scores each column of m in place and returns the
// per-column means and standard deviations so the same transform can be
// applied to future data.
func StandardizeColumns(m *mat.Matrix) (means, stds []float64) {
	means = make([]float64, m.Cols)
	stds = make([]float64, m.Cols)
	for c := 0; c < m.Cols; c++ {
		col := m.Col(c)
		z, mean, std := stats.Standardize(col)
		means[c], stds[c] = mean, std
		for r, v := range z {
			m.Set(r, c, v)
		}
	}
	return means, stds
}

// ApplyStandardization z-scores the columns of m with the given transform.
func ApplyStandardization(m *mat.Matrix, means, stds []float64) error {
	if len(means) != m.Cols || len(stds) != m.Cols {
		return fmt.Errorf("%w: standardization has %d/%d entries for %d columns", ErrSeries, len(means), len(stds), m.Cols)
	}
	for c := 0; c < m.Cols; c++ {
		std := stds[c]
		if std == 0 {
			std = 1
		}
		for r := 0; r < m.Rows; r++ {
			m.Set(r, c, (m.At(r, c)-means[c])/std)
		}
	}
	return nil
}
