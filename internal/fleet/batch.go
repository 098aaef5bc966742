package fleet

import (
	"math"

	"repro/internal/core"
)

// LayerTemplate describes one prediction layer shared by every tenant.
// Each tenant gets its own core.Layer instance (own error counters), but the
// scoring function is fleet-wide so a batch scorer can amortize model
// overhead across tenants.
type LayerTemplate struct {
	// Name is the layer's ledger/journal identity ("os", "application", …).
	Name string
	// Threshold is the per-layer decision boundary (score ≥ Threshold
	// votes failure-prone).
	Threshold float64
	// Score evaluates one tenant. Optional when ScoreBatch is set (a
	// single-tenant fallback is synthesized for the per-tenant engines).
	Score func(st TenantState, now float64) (float64, error)
	// ScoreBatch evaluates a chunk of tenants in one call — e.g. gather
	// each tenant's feature row and run ubf's PredictRowsInto once per
	// chunk. out is index-aligned with states; a returned error abstains
	// the whole chunk (every score NaN).
	ScoreBatch func(states []TenantState, now float64, out []float64) error
}

// instantiate builds one tenant's core.Layer from the template.
func (tmpl LayerTemplate) instantiate(st TenantState) *core.Layer {
	score := tmpl.Score
	if score == nil {
		batch := tmpl.ScoreBatch
		score = func(st TenantState, now float64) (float64, error) {
			var out [1]float64
			if err := batch([]TenantState{st}, now, out[:]); err != nil {
				return math.NaN(), err
			}
			return out[0], nil
		}
	}
	return &core.Layer{Name: tmpl.Name, Threshold: tmpl.Threshold,
		Predictor: core.PredictorFunc(func(now float64) (float64, error) { return score(st, now) })}
}
