package runtime

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/obs"
)

// Seat is one engine's place in a cycle: the engine, the act tail after its
// decision, the latest decision the act stage visited (Dec; Pact holds its
// countermeasure until committed or dropped) and the seat's tallies
// (LastConf is Float64bits). A seat the act stage settles without a visit —
// quiet, and nothing reads its decision (CycleCore.decide) — keeps its
// previous Dec; its LastWarned and LastConf still follow every instant.
// Runtime has one seat; fleet.Fleet has one per tenant.
type Seat struct {
	Engine            *core.Engine
	Tail              ActTail
	Warnings, Actions atomic.Int64
	LastWarned        atomic.Bool
	LastConf          atomic.Uint64
	Dec               core.Decision
	Pact              core.PendingAct
	cands             [][]lifecycle.CandidateScore // shadow-candidate scores per instant
	settled           bool                         // the decide pass settled it without a visit
}

// CycleCore is the one Monitor–Evaluate–Act cycle body (Fig. 1): Runtime
// runs it over the instants of its one seat, fleet.Fleet over its tenants'
// seats at one instant. Row s*len(nows)+i is seat s at nows[i]. Evaluate:
// the pool fills one layer-major matrix by (layer, Span-row) tiles with the
// owner's Score (a one-row matrix is scored on the calling goroutine), under
// the owner's State lock, which also covers
// Lifecycle.Collect and Recorder.Collect. Act, an instant at a time, Span
// seats per range, each seat visited once: it decides (DecideOn, or, when
// every seat's engine votes over the same thresholds, Decide on the
// confidence counted from the matrix) and commits —
// or, with a Resolve pass, Resolve commits or drops — then its final
// decision is tallied, handed to the engine's observer and journaled
// (ActTail.Journal, which advances a journal of its own). A quiet seat that
// nothing reads gets only its tallies. Then the instant's traces complete,
// the seats with a lifecycle or recorder run ActTail.Observe, and Finish
// runs with the instant's Fold. An instant is one cycle: one
// evaluation, one act-latency observation, one Shell.CycleDone.
type CycleCore struct {
	Shell   *Shell
	Metrics *Metrics
	Tracer  *obs.Tracer
	State   sync.Locker // held exclusively while scoring
	// Recorder captures pending incident triggers (a nil *obs.Recorder or
	// *obs.ScopedRecorder does nothing).
	Recorder interface{ Collect() }
	Clock    func() float64 // the domain time a Shell cycle runs its instant at
	Seats    []*Seat
	Layers   int
	Span     int // rows per scoring tile and seats per act range; 0: all
	// Score fills out with layer j's scores of rows [lo,hi).
	Score func(j, lo, hi int, nows, out []float64)
	// Resolve, if set, must commit or drop every pending countermeasure;
	// Finish, if set, runs after an instant's last act tail, with the
	// instant's Fold (valid until Finish returns).
	Resolve func()
	Finish  func(now float64, fold *Fold)
	// FoldGate is the warn-trigger gate of the recorder tails fold into.
	FoldGate float64

	nows    []float64
	one     [1]float64 // a Shell cycle's instant
	matrix  []float64
	rows    []float64 // seat s's score row at the instant acting: rows[s*Layers:]
	inst    int       // the instant acting
	span    int       // rows per scoring tile
	seatN   int       // seats per act range
	watched []int     // the seats whose tail has a lifecycle or a recorder
	// votes is the per-layer thresholds every seat's engine votes over
	// (core.Engine.VotesOver); empty when some engine has a combiner or
	// other thresholds, and then each seat decides with DecideOn on its row.
	votes []float64
	folds []Fold // each act range's at the instant acting
	fold  Fold   // their merge
	// The fan-out bodies, built once (bind).
	scoreT, actT, settleT, observeT func(k int)
}

// Fold is an instant's tally of the seats whose tails fold into shared
// overflow sinks (ActTail.Fold): the journal's warned and quiet counts, and
// each recorder trigger's (warn at FoldGate, act). The act ranges merge
// lowest first, so a trigger's first seat is the first in seat order.
type Fold struct {
	Warned, Quiet int
	Warn, Act     obs.FoldFire
}

// Between runs fn, an owner's change to Seats, with no cycle running.
func (c *CycleCore) Between(fn func()) {
	c.Shell.cycleMu.Lock()
	defer c.Shell.cycleMu.Unlock()
	fn()
	c.watch()
}

// watch lists the seats whose tail goes on past its journal (a tail without
// a lifecycle or a recorder ends at Journal) and derives votes, the
// thresholds of the first seat's layers if every seat's engine votes over
// them.
func (c *CycleCore) watch() {
	c.watched, c.votes = c.watched[:0], c.votes[:0]
	if len(c.Seats) > 0 {
		for _, l := range c.Seats[0].Tail.Layers {
			c.votes = append(c.votes, l.Threshold)
		}
	}
	for s, st := range c.Seats {
		if st.Tail.Lifecycle != nil || st.Tail.Recorder != nil {
			c.watched = append(c.watched, s)
		}
		if len(c.votes) > 0 && !st.Engine.VotesOver(c.votes) {
			c.votes = c.votes[:0]
		}
	}
}

// bind builds the fan-out bodies once, so a run allocates none.
func (c *CycleCore) bind() {
	c.scoreT = func(t int) {
		rows, j := len(c.Seats)*len(c.nows), t%c.Layers
		lo := t / c.Layers * c.span
		hi := min(lo+c.span, rows)
		c.Score(j, lo, hi, c.nows, c.matrix[j*rows+lo:j*rows+hi])
	}
	c.actT = func(k int) { c.act(k, true) }
	c.settleT = func(k int) { c.act(k, false) }
	c.observeT = func(k int) {
		now := c.nows[c.inst]
		for _, s := range c.watched[k*c.seatN : min(k*c.seatN+c.seatN, len(c.watched))] {
			c.Seats[s].Tail.Observe(now, c.row(s), c.Seats[s].Dec)
		}
	}
	c.watch()
}

// tiles is how many span-sized pieces cover n (span 0: one piece).
func tiles(n, span int) (int, int) {
	if span == 0 || span > n {
		span = max(n, 1)
	}
	return (n + span - 1) / span, span
}

// Run runs one cycle over the seats per time in nows (ascending; nil: one at
// the clock's reading) on the calling goroutine and returns once it is done.
// Runs from several goroutines take turns, so a cycle's own code (a layer, a
// combiner, a countermeasure) must not call it, nor Stop. Once Stop has begun
// it runs none: the final cycle is Stop's.
func (c *CycleCore) Run(nows []float64) {
	c.Shell.cycleMu.Lock()
	defer c.Shell.cycleMu.Unlock()
	if !c.Shell.Stopping() {
		c.run(nows)
	}
}

// run is the cycle body; nil nows is one instant at the clock's reading,
// taken under the lock so a cycle that waited out another does not evaluate
// at a time before it. Caller holds the shell's cycle lock.
func (c *CycleCore) run(nows []float64) {
	if nows == nil {
		c.one[0] = c.Clock()
		nows = c.one[:]
	}
	if c.scoreT == nil {
		c.bind()
	}
	rows := len(c.Seats) * len(nows)
	c.matrix = slices.Grow(c.matrix[:0], c.Layers*rows)[:c.Layers*rows]
	c.rows = slices.Grow(c.rows[:0], c.Layers*len(c.Seats))[:c.Layers*len(c.Seats)]
	c.nows = nows
	var ranges int
	ranges, c.span = tiles(rows, c.Span)
	evalStart := c.Shell.Nanos()
	// Evaluation sees a quiescent state snapshot: the owner applies under
	// the same lock.
	c.State.Lock()
	if rows == 1 {
		// One seat at one instant: a tile per layer, each a row's worth of
		// work, which costs less scored here than the hand-off to the
		// workers and back.
		for t := range c.Layers {
			c.scoreT(t)
		}
	} else {
		c.Shell.pool.Do(ranges*c.Layers, c.scoreT)
	}
	// Lifecycle steps that must not overlap Apply — retrain-window capture
	// and shadow-candidate scoring — and incident capture, which slices the
	// Apply-side event logs, share the exclusion. Triggers this run's act
	// stage raises are captured by the next cycle, or by the Stop-time Flush.
	for _, s := range c.watched {
		st := c.Seats[s]
		st.cands = st.cands[:0]
		if lc := st.Tail.Lifecycle; lc != nil {
			for _, now := range nows {
				st.cands = append(st.cands, lc.Collect(now))
			}
		}
	}
	c.Recorder.Collect()
	c.State.Unlock()
	evalEnd := c.Shell.Nanos()
	c.Metrics.EvalLatency.Observe(float64(evalEnd-evalStart) / 1e9)

	var acts int
	acts, c.seatN = tiles(len(c.Seats), c.Span)
	observers, _ := tiles(len(c.watched), c.seatN)
	c.folds = slices.Grow(c.folds[:0], acts)[:acts]
	actStart := evalEnd // the first instant's act stage starts where evaluation ended
	for i, now := range nows {
		c.inst = i
		clear(c.folds)
		if i > 0 {
			actStart = c.Shell.Nanos()
		}
		c.Shell.pool.Do(acts, c.actT)
		if c.Resolve != nil {
			c.Resolve()
			c.Shell.pool.Do(acts, c.settleT)
		}
		actEnd := c.Shell.Nanos()
		c.Tracer.CompleteCycle(evalStart, evalEnd, actStart, actEnd)
		c.Shell.pool.Do(observers, c.observeT)
		if c.Finish != nil {
			c.fold = Fold{}
			for _, g := range c.folds {
				c.fold.Warned += g.Warned
				c.fold.Quiet += g.Quiet
				c.fold.Warn.Add(g.Warn)
				c.fold.Act.Add(g.Act)
			}
			c.Finish(now, &c.fold)
		}
		c.Metrics.Evaluations.Inc()
		c.Metrics.ActLatency.Observe(float64(actEnd-actStart) / 1e9)
		c.Shell.CycleDone()
	}
}

// act runs the k-th range of seats through the act stage at the instant
// acting. With decide, each takes its cross-layer decision and, unless a
// Resolve pass will, commits it; then, or in the pass after Resolve, each
// final decision is tallied, handed to the engine's observer and journaled,
// or counted into the range's Fold. A seat decide settles is done with then,
// in both passes. The shared counters are added once for the range, so the
// workers of a fan-out do not meet on them.
func (c *CycleCore) act(k int, decide bool) {
	now := c.nows[c.inst]
	var warned, executed, suppressed int64
	fold := &c.folds[k]
	for s := k * c.seatN; s < min(k*c.seatN+c.seatN, len(c.Seats)); s++ {
		st := c.Seats[s]
		if decide {
			if st.settled = c.decide(s, now); st.settled {
				if st.Tail.Fold.Journal {
					fold.Quiet++
				}
				continue
			}
			if c.Resolve != nil {
				continue
			}
			st.Pact.Commit(&st.Dec)
			st.Pact = core.PendingAct{}
		} else if st.settled {
			continue
		}
		d, row := st.Dec, c.row(s)
		if d.Warned {
			warned++
			st.Warnings.Add(1)
		}
		if d.Executed {
			executed++
			st.Actions.Add(1)
		}
		if d.Suppressed {
			suppressed++
		}
		if st.Tail.Fold.Journal {
			if d.Warned {
				fold.Warned++
			} else {
				fold.Quiet++
			}
		}
		if st.Tail.Fold.Recorder && (d.Warned || d.Executed) {
			f := obs.FoldFire{N: 1, Scores: row, Obs: st.Tail.observation(d)}
			if d.Warned && d.Confidence >= c.FoldGate {
				fold.Warn.Add(f)
			}
			if d.Executed {
				fold.Act.Add(f)
			}
		}
		publish(st, d.Warned, d.Confidence)
		if fn := st.Engine.Observer(); fn != nil {
			fn(now, row, d)
		}
		var cands []lifecycle.CandidateScore
		if c.inst < len(st.cands) {
			cands = st.cands[c.inst]
		}
		st.Tail.Journal(now, row, cands, d)
	}
	c.Metrics.Warnings.Add(warned)
	c.Metrics.Actions.Add(executed)
	c.Metrics.Suppressed.Add(suppressed)
}

// decide takes seat s's decision at the instant acting into its Dec and Pact,
// with its score row filled, or settles the seat without one and reports
// that: with votes, a seat whose confidence, counted from the score matrix,
// stays quiet and whose decision nothing reads — no journal of its own, no
// lifecycle, no recorder, no engine observer — gets only its LastWarned and
// LastConf.
func (c *CycleCore) decide(s int, now float64) (settled bool) {
	st, row := c.Seats[s], c.row(s)
	m, rows := len(c.nows), len(c.Seats)*len(c.nows)
	at := s*m + c.inst // the seat's column in each layer's segment
	if len(c.votes) == 0 {
		for j := range row {
			row[j] = c.matrix[j*rows+at]
		}
		st.Dec, st.Pact = st.Engine.DecideOn(now, row)
		return false
	}
	votes, usable := 0, 0
	for j, th := range c.votes {
		if x := c.matrix[j*rows+at]; !math.IsNaN(x) {
			usable++
			if x >= th {
				votes++
			}
		}
	}
	conf := core.VoteShare(votes, usable, len(c.votes))
	t := &st.Tail
	if !st.Engine.Warns(conf) && t.Ledger == nil && t.Lifecycle == nil && t.Recorder == nil && st.Engine.Observer() == nil {
		publish(st, false, conf)
		return true
	}
	for j := range row {
		row[j] = c.matrix[j*rows+at]
	}
	st.Dec, st.Pact = st.Engine.Decide(now, conf)
	return false
}

// publish stores a seat's latest verdict for its readers, each word only
// when it moved.
func publish(st *Seat, warned bool, conf float64) {
	if st.LastWarned.Load() != warned {
		st.LastWarned.Store(warned)
	}
	if b := math.Float64bits(conf); st.LastConf.Load() != b {
		st.LastConf.Store(b)
	}
}

// row is seat s's score row.
func (c *CycleCore) row(s int) []float64 {
	return c.rows[s*c.Layers : (s+1)*c.Layers : (s+1)*c.Layers]
}
