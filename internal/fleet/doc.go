// Package fleet multiplexes thousands of monitored tenants — each a
// logical MEA runtime with its own core.Engine, layer set, and
// prediction-quality ledger view — over one shared substrate, the step
// from the paper's single-instance architecture (Sect. 6) to a
// production-scale service monitoring a whole fleet.
//
// Shared infrastructure, per-tenant semantics:
//
//   - Ingest: tenant events are routed onto a fixed set of shard consumers
//     by a consistent-hash ring (tenant → shard), so each tenant's stream
//     applies in order on exactly one consumer while shards drain in
//     parallel. Consumers drain their queue in chunks, amortizing the
//     state-lock acquisition across a whole batch of events. A tenant's
//     rate limit (TenantSpec.RateLimit) is a token bucket on the fleet's
//     clock consulted once per push: a push over the rate is shed then
//     and there, as a drop with reason "ratelimited", so no queue holds
//     events that wait for the clock to move.
//   - Evaluate and act: a cycle is the single-tenant runtime's cycle body
//     (runtime.CycleCore) with one seat per tenant at one instant. The
//     fleet supplies the row scorer — a layer template over a range of
//     tenants; one with a batch scorer (LayerTemplate.ScoreBatch, e.g. over
//     ubf.PredictRowsInto or hsmm.ScoreAll) scores the range in one call,
//     amortizing per-predictor overhead across the fleet — and two hooks:
//     the act-budget pass, and the folded-scope ledger bucket plus the
//     overflow journal's watermark advance. Every tenant's engine votes over
//     the templates' thresholds, so the body counts its votes from the score
//     matrix. Each tenant's core.Engine makes its own cross-layer decision;
//     decisions of different tenants run concurrently on the pool (their
//     state is disjoint), and a quiet tenant whose decision nothing reads
//     (no dedicated ledger scope, no flight recorder) is settled without
//     one.
//   - Observability: one metrics registry, one span tracer, one
//     obs.ScopedLedger (per-tenant journals under a cardinality cap), and
//     one /fleet HTTP plane with per-tenant health, quality, versions, and
//     a criticality-weighted fleet availability rollup.
//
// The goroutine skeleton and stop protocol (runtime.Shell), the bounded
// buffer and Block-policy park/wake protocol under every queue
// (runtime.FIFO, runtime.Waiters), the drain consumer (runtime.DrainCore),
// the cycle (runtime.CycleCore), each
// tenant's journal → recorder order after a decision (runtime.ActTail) and
// the base HTTP endpoints (runtime.Plane) are the single-tenant runtime's,
// not copies of them; what lives here is what differs — one queue per tenant,
// admission under its rate limit and the queues' fair draining, the template
// scorer, the act budget, the folded
// ledger bucket, membership changes and the /fleet plane.
//
// Ingest is pluggable (Source), and every source yields the one monitoring
// record, ingest.Record, that internal/scp's multi-tenant simulator emits
// (MultiSystem.Drain): an in-process feeder (SliceSource, over Drain's
// records as they are), a reader of the pipe-separated text line protocol
// (tail.go) — the repository's only text trace, read through one line
// scanner capped at the frame format's string cap — and a compact binary wire
// format with a line-rate replay reader (wire.go); OpenTrace opens a recorded
// file in either, told apart by magic. Event and Record are ingest's names
// for bench/pfmbench. Pump drives any Source into a Fleet; a Stepper wraps one so that
// the feeding goroutine runs each cycle its records make due (step.go).
//
// Determinism: with evaluation driven explicitly (EvaluateCycle after
// Barrier), per-tenant decisions, counters, and ledger tables are
// bit-identical across shard counts, worker counts, batch sizes, and
// GOMAXPROCS — the internal/par contract extended to the fleet, rate limits
// included, since a bucket decides at admission on the clock the producer
// reads. See determinism_test.go.
package fleet
