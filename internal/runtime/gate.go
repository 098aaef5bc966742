package runtime

import "repro/internal/obs"

// ingestLatencyEvery is the ingest-latency sampling interval (power of two;
// two clock reads per event would dominate the batched hot path), the same
// with tracing on and off.
const ingestLatencyEvery = 16

// Gate is the producer side of ingest, one per pipeline: Runtime.Ingest and
// a fleet push for a resolved tenant both pass it. One atomic per call drives
// both samplers, the call's one stamp is taken at entry, and what the
// pipeline sheds is accounted here. The stamp is a trace's start and its
// queue offer alike, so routing, the wait for the queue lock and a Block
// park are queue residency and the ingest stage reads 0.
type Gate struct {
	shell   *Shell
	metrics *Metrics
	tracer  *obs.Tracer
	every   uint64 // the tracer's interval at construction; 0 = tracing off
	mask    uint64 // every-1 when every is a power of two above 1, else 0
	// calls counts Ingest calls on a line only producers write: the pad
	// keeps the fields above off it, and Counter pads the rest.
	_     [64]byte
	calls Counter
}

// NewGate returns a pipeline's gate: stamps read shell's clock, counts and
// the ingest-latency histogram are m's, traces go to tracer (nil: off).
func NewGate(shell *Shell, m *Metrics, tracer *obs.Tracer) *Gate {
	g := &Gate{shell: shell, metrics: m, tracer: tracer, every: uint64(tracer.Interval())}
	if g.every > 1 && g.every&(g.every-1) == 0 {
		g.mask = g.every - 1 // the default 16: a mask, not a division per event
	}
	return g
}

// Enter ticks the gate for one Ingest call. start is its stamp if the call
// is timed (one in ingestLatencyEvery; pass it to Leave), trace its stamp if
// it is traced (the first call, then one in every tracer interval), 0
// otherwise: the unsampled path reads no clock, and a call picked by both
// reads it once.
func (g *Gate) Enter() (start, trace int64) {
	n := uint64(g.calls.v.Add(1))
	timed := n&(ingestLatencyEvery-1) == 1
	sampled := false
	if g.mask != 0 {
		sampled = n&g.mask == 1
	} else if g.every != 0 {
		sampled = g.every == 1 || n%g.every == 1
	}
	if !timed && !sampled {
		return 0, 0
	}
	now := max(g.shell.Nanos(), 1) // a stamp is never 0, which means "none"
	if timed {
		start = now
	}
	if sampled {
		trace = now
	}
	return start, trace
}

// Leave observes a timed call's ingest latency (start from Enter, 0: none).
// It inlines into the caller; observe, which it calls one time in 16, does
// not.
func (g *Gate) Leave(start int64) {
	if start != 0 {
		g.observe(start)
	}
}

func (g *Gate) observe(start int64) {
	g.metrics.IngestLatency.Observe(float64(g.shell.Nanos()-start) / 1e9)
}

// Shed accounts an offered event the pipeline refuses: ingested, under
// reason, and its trace published dropped.
func (g *Gate) Shed(reason *Counter, trace int64, kind uint8, key string, shard int) {
	g.metrics.Ingested.Inc()
	reason.Inc()
	g.Dropped(trace, kind, key, shard)
}

// Dropped publishes a shed event's partial trace up to now, for both
// runtimes and every cause (refused, evicted, shed by a hard stop); trace 0
// publishes nothing. The arguments are DrainCore.Span's results.
func (g *Gate) Dropped(trace int64, kind uint8, key string, shard int) {
	if trace != 0 {
		g.tracer.PublishDropped(kind, key, shard, trace, trace, g.tracer.Now())
	}
}
