package hsmm

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/scp"
)

// scoreHashGolden is the FNV-64a hash of the score bits of every window
// scpScoringFixture returns, recorded from the pooled per-model scoring
// path (one prepare and one lattice buffer per model per window, every
// window scored from its first event) that the shared preparation, the
// scorer-owned storage and EvaluateBatch's memo replaced. Every scoring
// entry point must reproduce it bit for bit.
const scoreHashGolden = 0x51d02c3b34770ecc

// scpScoringFixture simulates the seed-7 SCP for two days, trains a
// six-state classifier on its labelled windows (GOMAXPROCS pinned: the
// E step's reductions regroup with it) and returns the classifier with the
// windows to score: the log's Δtd = 300 s window at every 60 s evaluation,
// repeats and empty windows included, then hand-built windows holding
// event types the models never saw.
func scpScoringFixture(t *testing.T) (*Classifier, []eventlog.Sequence) {
	t.Helper()
	const (
		days, window, cadence = 2, 300.0, 60.0
	)
	cfg := scp.DefaultConfig()
	cfg.Seed = 7
	sys, err := scp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(days * 86400); err != nil {
		t.Fatal(err)
	}
	log := sys.Log()
	failure, nonFailure, err := eventlog.Extract(log, sys.FailureTimes(), eventlog.ExtractConfig{
		DataWindow: window, LeadTime: window, MinEvents: 2, NonFailureStride: 2 * window,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(2)
	clf, err := TrainClassifier(failure, nonFailure, Config{States: 6, Seed: 7})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []eventlog.Sequence
	for now := window; now <= days*86400; now += cadence {
		seqs = append(seqs, eventlog.SlidingWindow(log, now, window))
	}
	return clf, append(seqs, unseenTypeWindows(t, clf)...)
}

// unseenTypeWindows builds windows that mix trained event types with a
// type inside the trained range that neither model saw, one far above
// every trained type, and a negative one: each must score through the
// catch-all emission slot.
func unseenTypeWindows(t *testing.T, clf *Classifier) []eventlog.Sequence {
	t.Helper()
	known := map[int]bool{}
	lo, hi := math.MaxInt, math.MinInt
	for _, m := range []*Model{clf.Failure, clf.NonFailure} {
		for typ := range m.symbols {
			known[typ] = true
			lo, hi = min(lo, typ), max(hi, typ)
		}
	}
	gap := -1
	for typ := lo + 1; typ < hi; typ++ {
		if !known[typ] {
			gap = typ
			break
		}
	}
	if lo < 0 || gap < 0 {
		t.Fatalf("trained types span [%d, %d] with no gap: the fixture cannot place an unseen type inside them", lo, hi)
	}
	above, negative := hi+1000, -3
	times := []float64{0, 0.5, 0.5, 4, 30, 31}
	return []eventlog.Sequence{
		{Times: times, Types: []int{lo, gap, hi, gap, lo, hi}},
		{Times: times, Types: []int{hi, above, lo, above, hi, lo}},
		{Times: times, Types: []int{lo, negative, hi, negative, negative, lo}},
		{Times: times[:1], Types: []int{above}},
		{Times: times, Types: []int{gap, above, negative, lo, hi, gap}},
	}
}

// scoreHash folds score bits into an FNV-64a hash, in order.
func scoreHash(scores []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range scores {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// windowSource serves windows[int(now)] the way the runtime's sliding
// window does: copied into storage the source reuses, one buffer per
// position in a batch, rewound by reset. A scorer that kept a reference
// to a window instead of a copy sees it overwritten.
type windowSource struct {
	windows []eventlog.Sequence
	bufs    []eventlog.Sequence
	next    int
}

func (s *windowSource) sequence(now float64) (eventlog.Sequence, error) {
	if s.next == len(s.bufs) {
		s.bufs = append(s.bufs, eventlog.Sequence{})
	}
	b := &s.bufs[s.next]
	s.next++
	w := s.windows[int(now)]
	b.Times = append(b.Times[:0], w.Times...)
	b.Types = append(b.Types[:0], w.Types...)
	return *b, nil
}

func (s *windowSource) reset() { s.next = 0 }

// TestScorePathsGolden holds every scoring entry point to the recorded
// score hash on the seed-7 SCP windows: Classifier.Score, ScoreAllInto,
// ScoreAll, and Predictor.EvaluateBatch one time at a time and in stacked
// batches, through a sequence source that reuses its buffers. The windows
// repeat (no error arrived or aged out between two evaluations), extend
// the one before (errors arrived, none aged out) and are empty often
// enough that EvaluateBatch's memo answers or shortens many of them. A
// predictor's Retrain successor scores a window its predecessor just
// scored with its own models.
func TestScorePathsGolden(t *testing.T) {
	clf, windows := scpScoringFixture(t)
	repeats, grown, empties := 0, 0, 0
	for i, w := range windows {
		switch {
		case w.Len() == 0:
			empties++
		case i == 0:
		case sharedPrefix(w, windows[i-1]) == windows[i-1].Len():
			if w.Len() == windows[i-1].Len() {
				repeats++
			} else if windows[i-1].Len() > 0 {
				grown++
			}
		}
	}
	t.Logf("%d windows: %d repeat the one before, %d extend it, %d empty", len(windows), repeats, grown, empties)
	if repeats == 0 || grown == 0 || empties == 0 {
		t.Fatal("no repeated, grown or empty window: the memo goes unexercised")
	}

	check := func(path string, scores []float64) {
		t.Helper()
		if got := scoreHash(scores); got != scoreHashGolden {
			t.Errorf("%s: score hash %#x, want %#x", path, got, uint64(scoreHashGolden))
		}
	}
	scores := make([]float64, len(windows))
	for i, w := range windows {
		s, err := clf.Score(w)
		if err != nil {
			t.Fatal(err)
		}
		scores[i] = s
	}
	check("Score", scores)
	into := make([]float64, len(windows))
	if err := clf.ScoreAllInto(windows, into); err != nil {
		t.Fatal(err)
	}
	check("ScoreAllInto", into)
	all, err := clf.ScoreAll(windows)
	if err != nil {
		t.Fatal(err)
	}
	check("ScoreAll", all)

	for _, stack := range []int{1, 5} {
		src := &windowSource{windows: windows}
		p, err := NewPredictor(clf, src.sequence, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(windows))
		nows := make([]float64, stack)
		for lo := 0; lo < len(windows); lo += stack {
			hi := min(lo+stack, len(windows))
			for i := lo; i < hi; i++ {
				nows[i-lo] = float64(i)
			}
			src.reset()
			if err := p.EvaluateBatch(nows[:hi-lo], out[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		if stack == 1 {
			check("EvaluateBatch, single", out)
		} else {
			check("EvaluateBatch, stacked", out)
		}
	}

	// Retrain: the successor starts without its predecessor's last score.
	failure, nonFailure := labeledWindow(5, 10)
	src := &windowSource{windows: windows}
	p, err := NewPredictor(clf, src.sequence,
		func(float64) ([]eventlog.Sequence, []eventlog.Sequence, error) { return failure, nonFailure, nil },
		Config{States: 2, MaxIter: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	last := float64(len(windows) - 1)
	var before, after [1]float64
	src.reset()
	if err := p.EvaluateBatch([]float64{last}, before[:]); err != nil {
		t.Fatal(err)
	}
	w, err := p.CaptureWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	next, err := p.Retrain(w)
	if err != nil {
		t.Fatal(err)
	}
	succ := next.(*Predictor)
	src.reset()
	if err := succ.EvaluateBatch([]float64{last}, after[:]); err != nil {
		t.Fatal(err)
	}
	want, err := succ.Classifier().Score(windows[len(windows)-1])
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(after[0]) != math.Float64bits(want) || after[0] == before[0] {
		t.Fatalf("successor scored %g, its classifier %g, the predecessor %g: want the successor's own score",
			after[0], want, before[0])
	}
}
