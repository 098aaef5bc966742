// Package obs is the runtime's end-to-end observability layer: span
// tracing for the streaming Monitor–Evaluate–Act pipeline and an online
// prediction-quality ledger.
//
// # Tracer
//
// Tracer records one trace per pipeline event — monotonic-clock spans for
// the ingest admission, queue residency, state apply, evaluation wait, the
// covering MEA cycle's layer scoring, and the serialized act decision —
// into a fixed ring with zero allocations on the hot path (the same
// discipline as the allocation-free HSMM/UBF kernels). One mutex guards
// the ring: producers carry raw stamps through the pipeline and publish a
// whole trace record under one acquisition, so no reader ever sees a trace
// half written; a finished MEA cycle completes the traces it covered at a
// cost that follows the traces published since the last cycle, not the
// ring size (one claim counter is both trace id and ring position, which
// lets CompleteCycle sweep only new claims — see Tracer.swept); /tracez
// and `pfmd -trace-dump` render the slowest recent end-to-end traces with
// per-stage timings, ranked under one acquisition too.
//
// # Ledger
//
// Ledger journals every (prediction, lead time, layer) the Act stage emits
// and every ground-truth failure observed on the mirrored stream, and
// matches them within the Δtl/Δtp windows exactly as Sect. 3.3 defines the
// TP/FP/FN/TN contingency table: a prediction made at time t is a positive
// match iff a failure occurs in (t, t+Δtl+Δtp] — the identical rule the
// offline evaluator in internal/experiments applies to its labeled grid,
// so live and offline counts agree exactly on the same inputs. Rolling and
// cumulative precision/recall/fpr/F-measure per layer feed /metrics
// gauges and the machine-readable /ledger endpoint.
//
// # Model assessment
//
// AssessModel substitutes the ledger's measured prediction quality into
// the paper's Section 5 CTMC (internal/pfmmodel → internal/ctmc), so a
// deployment can report *measured* availability, hazard, and time-to-
// failure deltas next to the Table 2 predictions instead of trusting the
// offline scores.
package obs
