package ubf

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/stats"
)

// Window is the training window captured for a UBF refit: a design matrix
// of feature rows and their regression targets. Both are owned by the
// window (CaptureWindow copies), so a background Retrain can read them
// while the live system keeps moving.
type Window struct {
	X *mat.Matrix
	Y []float64
}

// Predictor adapts a trained Network to the core predictor lifecycle:
// it evaluates the network on live features and can refit itself from a
// captured window under a generation-derived seed. A predictor's model is
// immutable — Retrain returns a new Predictor at generation+1 — which is
// exactly the shape core.Layer's versioned handle wants.
type Predictor struct {
	net      *Network
	features func(now float64) ([]float64, error)
	window   func(now float64) (*mat.Matrix, []float64, error)
	cfg      TrainConfig
	gen      uint64
	// batch is EvaluateBatch's design matrix, reused from call to call: the
	// evaluation exclusion a layer scores under admits one call at a time.
	batch mat.Matrix
}

var (
	_ core.LayerPredictor = (*Predictor)(nil)
	_ core.BatchPredictor = (*Predictor)(nil)
	_ core.Retrainer      = (*Predictor)(nil)
	_ core.Snapshotter    = (*Predictor)(nil)
)

// NewPredictor wraps a trained network. features maps evaluation time to
// the network's input vector. window (optional — without it the predictor
// is not retrainable and CaptureWindow errors) returns the recent training
// set at capture time; it is called under the runtime's evaluation
// exclusion and must return data the predictor may retain. cfg.Seed is the
// base of the generation seed chain.
func NewPredictor(
	net *Network,
	features func(now float64) ([]float64, error),
	window func(now float64) (*mat.Matrix, []float64, error),
	cfg TrainConfig,
) (*Predictor, error) {
	if net == nil {
		return nil, fmt.Errorf("%w: nil network", ErrUBF)
	}
	if features == nil {
		return nil, fmt.Errorf("%w: nil feature source", ErrUBF)
	}
	return &Predictor{net: net, features: features, window: window, cfg: cfg}, nil
}

// Network exposes the wrapped network (read-only by convention).
func (p *Predictor) Network() *Network { return p.net }

// Generation returns the retrain generation (0 = initial fit).
func (p *Predictor) Generation() uint64 { return p.gen }

// Evaluate computes the failure-probability score at time now.
func (p *Predictor) Evaluate(now float64) (float64, error) {
	x, err := p.features(now)
	if err != nil {
		return 0, err
	}
	return p.net.Predict(x)
}

// EvaluateBatch implements core.BatchPredictor: it packs the feature rows
// for every evaluation time into one flat row-major design matrix and
// scores it through the fused batch kernel (PredictRowsInto), which runs
// the same scalar kernel per row as Predict — bit-identical to per-time
// Evaluate, with one versioned-handle load and one kernel sweep per
// batch. A failing feature source or a dimension mismatch fails the whole
// batch (the layer then abstains for every time in it). Not safe for
// concurrent calls on one predictor (see Predictor.batch).
func (p *Predictor) EvaluateBatch(nows []float64, out []float64) error {
	if len(nows) == 0 {
		return nil
	}
	dim := p.net.Dim()
	m := &p.batch
	if cap(m.Data) < len(nows)*dim {
		m.Data = make([]float64, len(nows)*dim)
	}
	m.Rows, m.Cols, m.Data = len(nows), dim, m.Data[:len(nows)*dim]
	for i, now := range nows {
		x, err := p.features(now)
		if err != nil {
			return err
		}
		if len(x) != dim {
			return fmt.Errorf("%w: feature dim %d at t=%g, want %d", ErrUBF, len(x), now, dim)
		}
		copy(m.RowView(i), x)
	}
	return p.net.PredictRowsInto(m, out[:len(nows)])
}

// CaptureWindow snapshots the current training window. It copies the
// returned design matrix and targets so the background refit shares
// nothing with the caller.
func (p *Predictor) CaptureWindow(now float64) (any, error) {
	if p.window == nil {
		return nil, fmt.Errorf("%w: predictor has no window source", ErrUBF)
	}
	x, y, err := p.window(now)
	if err != nil {
		return nil, err
	}
	if x == nil || x.Rows == 0 || x.Rows != len(y) {
		return nil, fmt.Errorf("%w: window %dx? vs %d targets", ErrUBF, rowsOf(x), len(y))
	}
	yc := make([]float64, len(y))
	copy(yc, y)
	return &Window{X: x.Clone(), Y: yc}, nil
}

func rowsOf(x *mat.Matrix) int {
	if x == nil {
		return 0
	}
	return x.Rows
}

// Retrain fits a fresh network on the captured window with the next
// generation's derived seed and returns the candidate predictor. The
// receiver is untouched — it keeps serving until the caller swaps.
func (p *Predictor) Retrain(window any) (core.LayerPredictor, error) {
	w, ok := window.(*Window)
	if !ok {
		return nil, fmt.Errorf("%w: retrain window is %T, want *ubf.Window", ErrUBF, window)
	}
	cfg := p.cfg
	cfg.Seed = stats.StreamSeed(p.cfg.Seed, int64(p.gen+1))
	net, err := Train(w.X, w.Y, cfg)
	if err != nil {
		return nil, err
	}
	return &Predictor{
		net:      net,
		features: p.features,
		window:   p.window,
		cfg:      p.cfg, // keep the base seed so the chain stays anchored
		gen:      p.gen + 1,
	}, nil
}

// predictorSnapshot is the stable JSON shape of a predictor snapshot.
type predictorSnapshot struct {
	Kind       string   `json:"kind"`
	Generation uint64   `json:"generation"`
	Network    *Network `json:"network"`
}

// Snapshot serializes the serving network and generation for audit trails
// and the /layers endpoint.
func (p *Predictor) Snapshot() ([]byte, error) {
	return json.Marshal(predictorSnapshot{Kind: "ubf", Generation: p.gen, Network: p.net})
}
