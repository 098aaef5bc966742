package core

import (
	"math"
	"sync/atomic"
)

// LayerPredictor is a layer's failure predictor as a first-class value with
// a lifecycle: the serving predictor lives behind the layer's atomically
// swappable, versioned handle, so a drifted predictor can be retrained and
// replaced without stopping the MEA pipeline (Sect. 6: online change point detection "can be used to
// determine whether the parameters have to be re-adjusted").
type LayerPredictor interface {
	// Evaluate returns the layer's failure-proneness score at time now.
	// It is invoked outside the engine mutex, under whatever exclusion
	// the caller provides (see the package locking contract).
	Evaluate(now float64) (float64, error)
}

// PredictorFunc adapts a bare evaluate closure to LayerPredictor.
type PredictorFunc func(now float64) (float64, error)

// Evaluate implements LayerPredictor.
func (f PredictorFunc) Evaluate(now float64) (float64, error) { return f(now) }

// BatchPredictor is the optional batched-evaluation capability of a
// LayerPredictor: one call scores a whole slice of times, letting
// table-driven predictors amortize feature extraction and score through
// allocation-free batch kernels on the online path: the HSMM predictor
// scores in storage it owns and takes its last score again for a window
// equal to the last one it scored (hsmm.Predictor.EvaluateBatch), the UBF
// predictor predicts every row in one call (ubf.Network.PredictRowsInto). The contract is
// strict: a successful EvaluateBatch(nows, out) must write bit-identical
// scores to len(nows) successive Evaluate calls — that is what keeps
// batch boundaries observationally invisible. On error the whole batch
// abstains (see Layer.ScoreBatch for the accounting).
type BatchPredictor interface {
	LayerPredictor
	// EvaluateBatch scores the layer at every time in nows into
	// out[:len(nows)].
	EvaluateBatch(nows []float64, out []float64) error
}

// Retrainer is the optional retraining capability of a LayerPredictor. The
// two phases split along the runtime's locking contract:
//
//   - CaptureWindow runs under the same exclusion as Evaluate (no ingest
//     Apply concurrent with it) and must copy everything retraining needs —
//     it is the only chance to read predictor-visible state safely.
//   - Retrain runs OFF the hot path (a background goroutine) on the
//     captured window only; it must not touch live predictor state. It
//     returns a fresh candidate, leaving the receiver serving unchanged.
//
// Retraining must preserve the repo's determinism contract: a given
// predictor generation retrains bit-identically for a given window at any
// GOMAXPROCS (derive the training seed from the base seed and generation,
// never from wall time).
type Retrainer interface {
	CaptureWindow(now float64) (window any, err error)
	Retrain(window any) (LayerPredictor, error)
}

// Snapshotter is the optional parameter-snapshot capability of a
// LayerPredictor: a serialized copy of the model parameters (for the
// /layers endpoint, audit logs, or warm restarts).
type Snapshotter interface {
	Snapshot() ([]byte, error)
}

// swapEpoch counts predictor swaps on every layer in the process. An engine
// caches its layers' versions with the epoch it read them at, so a decision
// with no swap anywhere since reads the cache and takes no lock, nor touches
// its layers; a swap anywhere costs every engine one recheck under its own
// mutex. (Reading every layer's Version on every decision instead costs a
// 1000-tenant fleet cycle 9–13 %: internal/fleet's BenchmarkEvaluateCycle.)
var swapEpoch atomic.Uint64

// versionedPredictor is one immutable (predictor, version) pair behind a
// layer's handle. Swaps replace the whole pair, so readers always observe a
// consistent predictor/version combination.
type versionedPredictor struct {
	p       LayerPredictor
	version uint64
}

// current returns the layer's serving (predictor, version) pair, installing
// version 1 from the Predictor field on first use. Lock-free and safe for
// concurrent use.
func (l *Layer) current() *versionedPredictor {
	if vp := l.handle.Load(); vp != nil {
		return vp
	}
	vp := &versionedPredictor{p: l.Predictor, version: 1}
	if l.handle.CompareAndSwap(nil, vp) {
		return vp
	}
	return l.handle.Load()
}

// ScoreBatch evaluates the layer at every time in nows into out[i]
// (NaN = abstain) — the one evaluation path, used by the engine and the
// runtime's cycle — loading the versioned predictor handle once for the
// whole batch — every score in a batch comes from one predictor version,
// exactly as a serial scan that raced no swap would produce. A predictor
// implementing BatchPredictor scores the batch in one kernel call; a
// batch failure abstains every time in the batch and counts len(nows)
// evaluation errors, the accounting of a uniformly failing serial scan.
// Other predictors fall back to a per-time scan, abstaining and counting
// one error per failing time.
func (l *Layer) ScoreBatch(nows []float64, out []float64) {
	out = out[:len(nows)]
	vp := l.current()
	if bp, ok := vp.p.(BatchPredictor); ok {
		if err := bp.EvaluateBatch(nows, out); err != nil {
			l.evalErrors.Add(int64(len(nows)))
			for i := range out {
				out[i] = math.NaN()
			}
		}
		return
	}
	for i, now := range nows {
		s, err := vp.p.Evaluate(now)
		if err != nil {
			l.evalErrors.Add(1)
			s = math.NaN()
		}
		out[i] = s
	}
}

// Current returns the serving predictor and its version.
func (l *Layer) Current() (LayerPredictor, uint64) {
	vp := l.current()
	return vp.p, vp.version
}

// Version returns the serving predictor's version (1 for the initial
// predictor; each swap bumps it by one, including rollbacks).
func (l *Layer) Version() uint64 { return l.current().version }

// SwapPredictor atomically replaces the serving predictor and bumps the
// version. The swap is a single pointer exchange: in-flight Evaluate calls
// finish on the predictor they loaded, new calls score through the
// replacement — no evaluation cycle is ever blocked. It returns the
// previous predictor (retained by lifecycle managers for rollback) and the
// new version. It bumps the process-wide swap epoch, which sends every
// engine's next decision to recheck its layers' versions.
func (l *Layer) SwapPredictor(p LayerPredictor) (prev LayerPredictor, version uint64) {
	for {
		cur := l.current()
		next := &versionedPredictor{p: p, version: cur.version + 1}
		if l.handle.CompareAndSwap(cur, next) {
			swapEpoch.Add(1)
			return cur.p, next.version
		}
	}
}

// EvalErrors returns how many evaluations failed over the layer's lifetime
// (across all predictor versions) — the counter behind the runtime's
// pfm_layer_eval_errors_total metric.
func (l *Layer) EvalErrors() int64 { return l.evalErrors.Load() }
