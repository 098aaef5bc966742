package hsmm

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/stats"
)

// Window is the labeled sequence window captured for a classifier refit.
// The slices are owned by the window (CaptureWindow copies the headers;
// the capture source hands over sequences it will not mutate).
type Window struct {
	Failure    []eventlog.Sequence
	NonFailure []eventlog.Sequence
}

// Predictor adapts a two-model HSMM Classifier to the core predictor
// lifecycle: Evaluate scores the monitored error window's current
// sequence, CaptureWindow snapshots recent labeled sequences, and Retrain
// refits both models under a generation-derived seed. The model is
// immutable: Retrain returns a new Predictor at generation+1.
type Predictor struct {
	clf      *Classifier
	sequence func(now float64) (eventlog.Sequence, error)
	window   func(now float64) (failure, nonFailure []eventlog.Sequence, err error)
	cfg      Config
	gen      uint64
	// EvaluateBatch's own storage, reused from call to call: the evaluation
	// exclusion a layer scores under admits one call at a time. seqs is the
	// gather buffer, space the scoring storage, memo the last window scored.
	seqs  []eventlog.Sequence
	space scoreSpace
	memo  windowMemo
}

// windowMemo is the last window a Predictor scored: a copy of its events,
// its score, and each model's forward row at its last event. The models
// never change, so a window equal to it has its score, bit for bit, and a
// window that begins with it has its forward rows up to there.
type windowMemo struct {
	seq   eventlog.Sequence
	score float64
	rows  [2][]float64
	ok    bool
}

var (
	_ core.LayerPredictor = (*Predictor)(nil)
	_ core.BatchPredictor = (*Predictor)(nil)
	_ core.Retrainer      = (*Predictor)(nil)
	_ core.Snapshotter    = (*Predictor)(nil)
)

// NewPredictor wraps a trained classifier. sequence maps evaluation time
// to the event window to score. window (optional — without it the
// predictor is not retrainable) returns recent labeled sequences at
// capture time; it runs under the runtime's evaluation exclusion and must
// return sequences the predictor may retain. cfg.Seed anchors the
// generation seed chain.
func NewPredictor(
	clf *Classifier,
	sequence func(now float64) (eventlog.Sequence, error),
	window func(now float64) ([]eventlog.Sequence, []eventlog.Sequence, error),
	cfg Config,
) (*Predictor, error) {
	if clf == nil || clf.Failure == nil || clf.NonFailure == nil {
		return nil, fmt.Errorf("%w: nil classifier", ErrModel)
	}
	if sequence == nil {
		return nil, fmt.Errorf("%w: nil sequence source", ErrModel)
	}
	return &Predictor{clf: clf, sequence: sequence, window: window, cfg: cfg}, nil
}

// Classifier exposes the wrapped classifier (read-only by convention).
func (p *Predictor) Classifier() *Classifier { return p.clf }

// Generation returns the retrain generation (0 = initial fit).
func (p *Predictor) Generation() uint64 { return p.gen }

// Evaluate scores the current event sequence: the log-likelihood ratio
// log P(seq|failure) − log P(seq|non-failure).
func (p *Predictor) Evaluate(now float64) (float64, error) {
	seq, err := p.sequence(now)
	if err != nil {
		return 0, err
	}
	return p.clf.Score(seq)
}

// EvaluateBatch implements core.BatchPredictor: it gathers the event
// window for every evaluation time, then scores them in order in the
// predictor's own scoreSpace — one versioned-handle load and one
// sequence-source sweep per batch, bit-identical to per-time Evaluate.
// Each window is compared with the last one scored (the memo): an equal
// window (no error arrived or aged out in between) takes its score without
// being scored again, and a window that only grew at the end resumes the
// forward passes where that window's ended. A failing sequence source or
// score fails the whole batch (the layer then abstains for every time in
// it). Not safe for concurrent calls on one predictor (see Predictor.seqs).
func (p *Predictor) EvaluateBatch(nows []float64, out []float64) error {
	if len(out) < len(nows) {
		return fmt.Errorf("%w: out has len %d, want %d", ErrModel, len(out), len(nows))
	}
	p.seqs = p.seqs[:0]
	// The windows belong to the sequence source: do not keep them alive
	// past the call.
	defer func() { clear(p.seqs) }()
	for _, now := range nows {
		seq, err := p.sequence(now)
		if err != nil {
			return err
		}
		p.seqs = append(p.seqs, seq)
	}
	m := &p.memo
	for i, seq := range p.seqs {
		from := 0
		if m.ok && sharedPrefix(seq, m.seq) == m.seq.Len() {
			if seq.Len() == m.seq.Len() {
				out[i] = m.score
				continue
			}
			from = m.seq.Len()
		}
		m.ok = false // the forward rows change before the events do
		sc, err := p.space.score(p.clf, seq, from, &m.rows)
		if err != nil {
			return err
		}
		out[i] = sc
		m.seq.Times = append(m.seq.Times[:0], seq.Times...)
		m.seq.Types = append(m.seq.Types[:0], seq.Types...)
		m.score, m.ok = sc, true
	}
	return nil
}

// sharedPrefix returns how many leading events a and b have in common,
// time and type.
func sharedPrefix(a, b eventlog.Sequence) int {
	n := min(a.Len(), b.Len())
	for i := 0; i < n; i++ {
		if a.Times[i] != b.Times[i] || a.Types[i] != b.Types[i] {
			return i
		}
	}
	return n
}

// CaptureWindow snapshots the recent labeled sequences for a refit.
func (p *Predictor) CaptureWindow(now float64) (any, error) {
	if p.window == nil {
		return nil, fmt.Errorf("%w: predictor has no window source", ErrModel)
	}
	failure, nonFailure, err := p.window(now)
	if err != nil {
		return nil, err
	}
	if len(failure) == 0 || len(nonFailure) == 0 {
		return nil, fmt.Errorf("%w: window needs both classes (failure %d, non-failure %d)",
			ErrModel, len(failure), len(nonFailure))
	}
	w := &Window{
		Failure:    make([]eventlog.Sequence, len(failure)),
		NonFailure: make([]eventlog.Sequence, len(nonFailure)),
	}
	copy(w.Failure, failure)
	copy(w.NonFailure, nonFailure)
	return w, nil
}

// Retrain fits a fresh classifier on the captured window with the next
// generation's derived seed, preserving the decision threshold. The
// receiver keeps serving until the caller swaps.
func (p *Predictor) Retrain(window any) (core.LayerPredictor, error) {
	w, ok := window.(*Window)
	if !ok {
		return nil, fmt.Errorf("%w: retrain window is %T, want *hsmm.Window", ErrModel, window)
	}
	cfg := p.cfg
	cfg.Seed = stats.StreamSeed(p.cfg.Seed, int64(p.gen+1))
	clf, err := TrainClassifier(w.Failure, w.NonFailure, cfg)
	if err != nil {
		return nil, err
	}
	clf.Threshold = p.clf.Threshold
	return &Predictor{
		clf:      clf,
		sequence: p.sequence,
		window:   p.window,
		cfg:      p.cfg,
		gen:      p.gen + 1,
	}, nil
}

// predictorSnapshot is the stable JSON shape of a predictor snapshot.
type predictorSnapshot struct {
	Kind       string  `json:"kind"`
	Generation uint64  `json:"generation"`
	Threshold  float64 `json:"threshold"`
	Failure    *Model  `json:"failure"`
	NonFailure *Model  `json:"nonFailure"`
}

// Snapshot serializes both models, the threshold and the generation.
func (p *Predictor) Snapshot() ([]byte, error) {
	return json.Marshal(predictorSnapshot{
		Kind:       "hsmm",
		Generation: p.gen,
		Threshold:  p.clf.Threshold,
		Failure:    p.clf.Failure,
		NonFailure: p.clf.NonFailure,
	})
}
