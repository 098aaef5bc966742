// Package runtime turns the batch-mode PFM library into a long-running
// service: a concurrent Monitor–Evaluate–Act pipeline over live event
// streams (the paper's Fig. 1 loop and Sect. 6 blueprint describe exactly
// this shape — a control loop that keeps up with monitoring ingest). It is
// the one MEA loop: the closed-loop experiments run it too, one cycle per
// cadence of the simulator's clock (experiments.ClosedLoop).
//
// The pipeline is one drain goroutine and whichever goroutine asks for a
// cycle, around one state lock, with clean shutdown and drain:
//
//		producers ──Ingest──▶ [one bounded FIFO] ──▶ drain consumer (×1), and
//		                                             Barrier on its caller:
//		                                             Apply chunks under the
//		                                             drain and state locks,
//		                                             in ingest order
//
//		EvaluateNow / CycleBatch ──▶ CycleCore, on the caller, one run at a time:
//		                           evaluate: score every layer under the state
//		                                     lock (one instant inline, a stack
//		                                     fanned over the worker pool)
//		                           act:      DecideOn + Commit, then the act tail
//		                                     (journal → lifecycle → recorder)
//
//	  - Ingest accepts error events and monitoring samples through one
//	    bounded FIFO (Ring) with an explicit overflow policy — Block
//	    (backpressure), DropOldest (keep the freshest evidence), or
//	    DropNewest (protect the backlog) — with per-policy drop counters.
//	    Its one consumer applies the events, a chunk at a time and in ingest
//	    order, to the user's predictor-visible state; Barrier applies what
//	    is queued itself, under the same drain lock, so the chunks keep
//	    ingest order whoever takes them. The paper's loop manages
//	    one system whose error log is one time-ordered stream (Sect. 3.2), so
//	    there is nothing inside a tenant to apply in parallel; scale is the
//	    fleet's business.
//	  - A cycle runs on the goroutine that asks for it, at a domain time that
//	    goroutine names — EvaluateNow at the Clock's reading, CycleBatch at a
//	    stack of times; there is no ticker. Both run CycleCore, the one cycle
//	    body internal/fleet runs too, over the runtime's one Seat with the
//	    instants as its rows; the runtime supplies only the row scorer
//	    (core.Layer.ScoreBatch). A countermeasure that blocks delays the next
//	    cycle; it never overlaps it.
//
// The goroutines and the stop protocol live in Shell, a consumer's body in
// DrainCore, the cycle in CycleCore, the act tail in ActTail, and the
// /metrics, /healthz, /readyz, /livez, /tracez and /incidents endpoints in
// Plane — internal/fleet runs on the same five. Where this runtime has one
// FIFO and one consumer, the fleet has one FIFO per tenant, drained
// deficit-round-robin by one consumer per consistent-hash shard, on the same
// circular buffer and Block-policy protocol as Ring (FIFO, Waiters). The stop
// protocol (graceful drain and one
// final cycle; hard stop sheds the backlog as dropped, reason "shutdown") is
// stated once, on Shell.
//
// Observability is built in: every stage feeds an atomic-counter Metrics
// registry (events ingested/applied/dropped, evaluations, warnings,
// actions, per-stage latency histograms, queue depth) rendered in
// Prometheus text format, served with the health endpoints over stdlib
// net/http.
//
// Invariant (checked by the stress tests): after Stop returns, every
// event presented to Ingest was either applied or counted dropped —
// ingested = applied + dropped.
package runtime
