package runtime

import (
	"testing"

	"repro/internal/obs"
)

// TestGateSamplers: one count drives both samplers — the first call and then
// one in every tracer interval is traced (a power-of-two interval by mask,
// any other by division, 1 every call, no tracer none), one call in 16 is
// timed whatever the tracer, and a call picked by both carries one stamp.
func TestGateSamplers(t *testing.T) {
	for _, c := range []struct {
		name     string
		interval int // 0: no tracer
	}{
		{"untraced", 0}, {"every", 1}, {"mask", 4}, {"divide", 3}, {"default", obs.DefaultSampleInterval},
	} {
		t.Run(c.name, func(t *testing.T) {
			var tr *obs.Tracer
			if c.interval > 0 {
				tr = obs.NewTracer(8)
				tr.SetSampleInterval(c.interval)
			}
			g := NewGate(NewShell(ShellConfig{Tracer: tr}), NewMetrics(), tr)
			for n := 1; n <= 64; n++ {
				start, trace := g.Enter()
				wantTimed := n%ingestLatencyEvery == 1
				wantTraced := c.interval > 0 && (c.interval == 1 || n%c.interval == 1)
				if (start != 0) != wantTimed || (trace != 0) != wantTraced {
					t.Fatalf("call %d: start %d, trace %d; want timed %v, traced %v", n, start, trace, wantTimed, wantTraced)
				}
				if start != 0 && trace != 0 && start != trace {
					t.Fatalf("call %d: timed at %d and traced at %d, want one stamp", n, start, trace)
				}
				g.Leave(start)
			}
			if got := g.metrics.IngestLatency.Count(); got != 4 {
				t.Errorf("ingest latency observed %d times in 64 calls, want 4", got)
			}
		})
	}
}
