package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/runtime"
	"repro/internal/scp"
)

// actedRow is the ledger row of the warnings whose countermeasure ran.
const actedRow = "acted"

// ClosedLoop is an MEA engine attached to a simulated system: the product's
// runtime (runtime.Runtime, whose cycle is runtime.CycleCore) runs one cycle
// every EvalInterval of simulated time, on the simulator's goroutine, so
// the countermeasures steer the live system. Table 1 is booked by one
// obs.Ledger over the failures the system records — a prediction at t is
// judged by whether a failure falls in (t, t+LeadTime+EvalInterval].
type ClosedLoop struct {
	sys    *scp.System
	rt     *runtime.Runtime
	ledger *obs.Ledger
	seen   int // sys.Failures() already recorded in the ledger
}

// AttachClosedLoop registers engine's cycle on sys's clock; the cycles run
// as sys.Run advances. It installs engine's cycle observer. Read what the
// run produced, then Close.
func AttachClosedLoop(sys *scp.System, engine *core.Engine) (*ClosedLoop, error) {
	cfg := engine.Config()
	ledger, err := obs.NewLedger(obs.LedgerConfig{LeadTime: cfg.LeadTime, Slack: cfg.EvalInterval})
	if err != nil {
		return nil, err
	}
	engine.SetCycleObserver(func(now float64, _ []float64, d core.Decision) {
		ledger.RecordPrediction(obs.CombinedLayer, now, d.Warned, d.Confidence)
		if d.Executed {
			ledger.RecordPrediction(actedRow, now, true, d.Confidence)
		}
	})
	rt, err := runtime.New(runtime.Config{
		Engine:  engine,
		Apply:   func(ingest.Event) error { return nil }, // the layers read the system itself
		Clock:   sys.Engine().Now,
		Workers: 1,
	})
	if err != nil {
		return nil, err
	}
	if err := rt.Start(context.Background()); err != nil {
		return nil, err
	}
	l := &ClosedLoop{sys: sys, rt: rt, ledger: ledger}
	if err := sys.Engine().Every(cfg.EvalInterval, func() bool {
		l.recordFailures()
		// The system records a failure on its tick, which at a cycle's
		// instant runs after the cycle: ground truth is complete up to the
		// previous cycle.
		ledger.Advance(sys.Engine().Now() - cfg.EvalInterval)
		rt.EvaluateNow()
		return true
	}); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// recordFailures journals the failures the system recorded since the last
// call.
func (l *ClosedLoop) recordFailures() {
	fails := l.sys.Failures()
	for ; l.seen < len(fails); l.seen++ {
		l.ledger.RecordFailure(fails[l.seen].Time)
	}
}

// Outcomes returns Table 1 as booked so far. Call it once sys.Run has
// returned: ground truth is then complete up to the system's clock, and
// every prediction whose window closed by then is booked.
func (l *ClosedLoop) Outcomes() Outcomes {
	l.recordFailures()
	l.ledger.Advance(l.sys.Engine().Now())
	snap := l.ledger.Snapshot()
	var o Outcomes
	for _, row := range snap.Layers {
		switch row.Layer {
		case obs.CombinedLayer:
			o.Quality, o.Pending = row.Cumulative, row.Pending
		case actedRow:
			o.Acted = row.Cumulative
		}
	}
	return o
}

// Close stops the runtime. Stop runs one more cycle on the system, so read
// results first.
func (l *ClosedLoop) Close() {
	// Stop fails only on a started runtime's expired context, and a
	// background context never expires.
	_ = l.rt.Stop(context.Background())
}

// Outcomes is Table 1 as a closed loop's ledger booked it.
type Outcomes struct {
	// Quality is the cross-layer decision's contingency table.
	Quality predict.ContingencyTable
	// Acted is the table of the warnings whose countermeasure ran: its TP
	// and FP split Quality's by action. A countermeasure that averts the
	// failure it was warned of turns its warning into an FP.
	Acted predict.ContingencyTable
	// Pending counts the predictions still inside their window at the
	// horizon: booked as nothing yet.
	Pending int
}

// Matrix renders the outcome × action rows in Table 1's order.
func (o Outcomes) Matrix() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1 outcome × action matrix:\n  quality: %v\n", o.Quality)
	fmt.Fprintf(&sb, "  TP: acted=%d none=%d\n", o.Acted.TP, o.Quality.TP-o.Acted.TP)
	fmt.Fprintf(&sb, "  FP: acted=%d none=%d\n", o.Acted.FP, o.Quality.FP-o.Acted.FP)
	fmt.Fprintf(&sb, "  TN: none=%d\n  FN: none=%d\n", o.Quality.TN, o.Quality.FN)
	fmt.Fprintf(&sb, "  pending: %d predictions inside their window\n", o.Pending)
	return sb.String()
}
