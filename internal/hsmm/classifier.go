package hsmm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/eventlog"
	"repro/internal/par"
)

// Classifier is the paper's two-model sequence classifier: a failure model
// trained on sequences preceding failures and a non-failure model trained
// on the rest (Fig. 6). Score compares per-event sequence likelihoods;
// Bayes decision theory turns the score into a classification via a
// threshold that absorbs the class priors and misclassification costs.
type Classifier struct {
	Failure    *Model
	NonFailure *Model
	// Threshold is the decision boundary on the log-likelihood ratio; a
	// sequence with Score ≥ Threshold is classified failure-prone.
	Threshold float64
}

// TrainClassifier fits the two models from labeled sequences. The fits are
// independent — the failure model draws from cfg.Seed, the non-failure model
// from cfg.Seed+1 — so they run side by side, each into its own slot, and
// the result is the two sequential Fit calls' bit for bit.
func TrainClassifier(failure, nonFailure []eventlog.Sequence, cfg Config) (*Classifier, error) {
	if len(failure) == 0 || len(nonFailure) == 0 {
		return nil, fmt.Errorf("%w: classifier needs both failure (%d) and non-failure (%d) sequences",
			ErrModel, len(failure), len(nonFailure))
	}
	nfCfg := cfg
	nfCfg.Seed = cfg.Seed + 1
	var (
		models [2]*Model
		errs   [2]error
	)
	par.For(2, func(i int) {
		if i == 0 {
			models[0], errs[0] = Fit(failure, cfg)
		} else {
			models[1], errs[1] = Fit(nonFailure, nfCfg)
		}
	})
	if errs[0] != nil {
		return nil, fmt.Errorf("failure model: %w", errs[0])
	}
	if errs[1] != nil {
		return nil, fmt.Errorf("non-failure model: %w", errs[1])
	}
	return &Classifier{Failure: models[0], NonFailure: models[1]}, nil
}

// Score returns the log-likelihood ratio
// log P(seq|failure) − log P(seq|non-failure); higher means more
// failure-prone. The raw (unnormalized) ratio accumulates per-event
// evidence, so richer windows — e.g. the accelerating bursts preceding
// failures — score higher than sparse ones. Empty sequences score 0 (no
// evidence either way): an empty error window is the hallmark of a healthy
// system.
func (c *Classifier) Score(seq eventlog.Sequence) (float64, error) {
	s := spacePool.Get().(*scoreSpace)
	defer spacePool.Put(s)
	return s.score(c, seq, 0, nil)
}

// score is c.Score(seq) computed in s's storage: the delays once, then
// each model's emission indices, duration table and forward pass. rows,
// when not nil, carries the failure and non-failure models' forward rows
// from call to call as logLikelihood's last does, each n long: a pass
// with from > 0 resumes at event from.
func (s *scoreSpace) score(c *Classifier, seq eventlog.Sequence, from int, rows *[2][]float64) (float64, error) {
	if seq.Len() == 0 {
		return 0, nil
	}
	var lastF, lastNF []float64
	if rows != nil {
		rows[0] = growF64(rows[0], c.Failure.n)
		rows[1] = growF64(rows[1], c.NonFailure.n)
		lastF, lastNF = rows[0], rows[1]
	}
	s.p.setDelays(seq.Times)
	score := s.logLikelihood(c.Failure, seq.Types, from, lastF) -
		s.logLikelihood(c.NonFailure, seq.Types, from, lastNF)
	if math.IsNaN(score) {
		return 0, fmt.Errorf("%w: NaN score", ErrModel)
	}
	return score, nil
}

// ScoreAll scores a batch of sequences, fanning the windows across a
// GOMAXPROCS-bounded worker pool. Models are read-only during scoring, so
// the workers share them without locking; each scores in storage of its own
// (scoreSpace), so a batch's allocations depend neither on the pool's state
// nor on scheduling. Results come back in input order (scores[i]
// corresponds to seqs[i]) regardless of scheduling. This is the case-study
// path: scoring the full evaluation grid is embarrassingly parallel.
func (c *Classifier) ScoreAll(seqs []eventlog.Sequence) ([]float64, error) {
	scores := make([]float64, len(seqs))
	var (
		errOnce  sync.Once
		firstErr error
	)
	k, n := 0, max(c.Failure.n, c.NonFailure.n)
	for _, s := range seqs {
		k = max(k, s.Len())
	}
	space := func() *scoreSpace { return newScoreSpace(k, n) }
	par.ForScratch(0, len(seqs), space, func(s *scoreSpace, i int) {
		sc, err := s.score(c, seqs[i], 0, nil)
		if err != nil {
			errOnce.Do(func() { firstErr = err })
			return
		}
		scores[i] = sc
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return scores, nil
}

// ScoreAllInto scores seqs into out (len(seqs)) without allocating, in one
// scoreSpace from the pool. It runs sequentially: a sequential scan is
// trivially bit-identical to per-sequence Score calls.
func (c *Classifier) ScoreAllInto(seqs []eventlog.Sequence, out []float64) error {
	if len(out) < len(seqs) {
		return fmt.Errorf("%w: out has len %d, want %d", ErrModel, len(out), len(seqs))
	}
	s := spacePool.Get().(*scoreSpace)
	defer spacePool.Put(s)
	for i, seq := range seqs {
		sc, err := s.score(c, seq, 0, nil)
		if err != nil {
			return err
		}
		out[i] = sc
	}
	return nil
}
