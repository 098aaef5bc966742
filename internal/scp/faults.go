package scp

import (
	"fmt"
	"math"

	"repro/internal/eventlog"
	"repro/internal/stats"
)

// numComponents is the pool of replicated service components that
// intermittent faults strike (the paper's platform runs ~200 components in
// replicated containers; four suffice for distinguishable diagnosis).
const numComponents = 4

// componentNames are the reporting components' IDs, "comp-0" onwards, made
// once rather than formatted for every burst.
var componentNames = func() (names [numComponents]string) {
	for i := range names {
		names[i] = fmt.Sprintf("comp-%d", i)
	}
	return names
}()

// faultKind discriminates injected fault episodes.
type faultKind int

const (
	faultLeak faultKind = iota + 1
	faultBurst
	faultSpike
)

// fault is one active fault episode. Faults are the root causes of Fig. 2;
// their activation produces errors (log events), symptoms (SAR deviations)
// and eventually failures (Eq. 2 violations), unless a countermeasure
// clears them first.
type fault struct {
	kind    faultKind
	start   float64
	cleared bool

	// leak fields
	leakRate float64 // MB/s

	// burst fields
	willFail     bool
	component    string  // reporting component ("comp-N")
	penaltyAt    float64 // when the escalation hits response times
	penaltyUntil float64

	// spike fields
	mult  float64
	until float64
}

// active reports whether the fault still affects the system at time now.
func (f *fault) active(now float64) bool {
	if f.cleared {
		return false
	}
	switch f.kind {
	case faultSpike:
		return now < f.until
	default:
		return true
	}
}

// scheduleInjections arms the recurring fault and noise processes.
func (s *System) scheduleInjections() {
	s.scheduleNext(s.cfg.LeakMTBF, s.faultRNG.Split(1), s.startLeak)
	s.scheduleNext(s.cfg.BurstMTBF, s.faultRNG.Split(2), s.startBurst)
	s.scheduleNext(s.cfg.SpikeMTBF, s.faultRNG.Split(3), s.startSpike)
	if s.cfg.NoiseErrorRate > 0 {
		s.scheduleNoise(s.faultRNG.Split(4))
	}
}

// scheduleNext arms a Poisson episode process: each firing starts an
// episode and re-arms.
func (s *System) scheduleNext(mtbf float64, g *stats.RNG, start func(*stats.RNG)) {
	s.recur(func() float64 { return g.ExpFloat64() * mtbf }, func() { start(g) })
}

// scheduleNoise arms the background error stream (failure-unrelated).
func (s *System) scheduleNoise(g *stats.RNG) {
	s.recur(func() float64 { return g.ExpFloat64() / s.cfg.NoiseErrorRate }, func() {
		if s.up {
			sev := eventlog.SeverityInfo
			if g.Bernoulli(0.3) {
				sev = eventlog.SeverityWarning
			}
			s.emit(EventNoiseBase+g.Intn(NoiseTypes), "svc", sev, "background report")
		}
	})
}

// recur arms a stream of events that re-arms itself: next draws the delay
// to each firing, fire runs at it. One closure serves the whole stream, so
// a firing allocates nothing. Each delay is drawn after fire's own draws;
// that order fixes the RNG streams, the event order and the engine's seq
// numbers (TestSimulatorTraceGolden).
func (s *System) recur(next func() float64, fire func()) {
	var run func()
	run = func() {
		fire()
		_ = s.engine.Schedule(next(), run)
	}
	_ = s.engine.Schedule(next(), run)
}

// startLeak begins a memory-leak episode.
func (s *System) startLeak(g *stats.RNG) {
	if !s.up {
		return
	}
	f := &fault{
		kind:     faultLeak,
		start:    s.engine.Now(),
		leakRate: s.cfg.LeakRate * (0.5 + g.Float64()), // ±50% around mean
	}
	s.faults = append(s.faults, f)
}

// burst type weights: failure-bound bursts skew to timeout/restart errors,
// benign bursts to link/protocol chatter; retry errors are shared.
var (
	burstFailTypes   = []int{EventCompTimeout, EventCompRestart, EventCompRetry}
	burstFailTypesV2 = []int{EventCompTimeoutV2, EventCompRestartV2, EventCompRetryV2}
	burstFailWeights = []float64{5, 3, 2}
	burstNoiseTypes  = []int{EventCompRetry, EventLinkFlap, EventProtoWarning}
	burstNoiseWeight = []float64{2, 4, 4}
)

// failTypesAt returns the failure-bound burst alphabet in effect at time t
// (the dynamicity shift swaps message IDs, Sect. 6).
func (s *System) failTypesAt(t float64) []int {
	if s.cfg.SignatureShiftAt > 0 && t >= s.cfg.SignatureShiftAt {
		return burstFailTypesV2
	}
	return burstFailTypes
}

// startBurst begins an intermittent-fault error burst. Failure-bound bursts
// emit an accelerating pattern (the dispersion-frame signature) and then
// escalate into a response-time hit; benign bursts emit steady chatter.
func (s *System) startBurst(g *stats.RNG) {
	if !s.up {
		return
	}
	f := &fault{
		kind:      faultBurst,
		start:     s.engine.Now(),
		willFail:  g.Bernoulli(s.cfg.BurstFailureProb),
		component: componentNames[g.Intn(numComponents)],
	}
	s.faults = append(s.faults, f)

	types, weights := burstNoiseTypes, burstNoiseWeight
	delays := make([]float64, 0, 21) // on the stack: a burst draws at most 14 + 7
	if f.willFail {
		types, weights = s.failTypesAt(s.engine.Now()), burstFailWeights
		n := 14 + g.Intn(8)
		d := 60.0
		for i := 0; i < n; i++ {
			delays = append(delays, d*(0.7+0.6*g.Float64()))
			d *= 0.85 // accelerating arrivals
		}
	} else {
		n := 8 + g.Intn(6)
		for i := 0; i < n; i++ {
			delays = append(delays, 45*g.ExpFloat64()+5)
		}
	}
	// One closure serves the burst's errors: their times strictly increase,
	// so the engine fires them in the order they are scheduled, and the
	// k-th firing reports the k-th type drawn.
	typs := make([]int, len(delays))
	next := 0
	report := func() {
		typ := typs[next]
		next++
		if s.up && f.active(s.engine.Now()) {
			s.emit(typ, f.component, eventlog.SeverityError, "component error")
		}
	}
	t := 0.0
	for i, d := range delays {
		t += d
		typs[i] = types[g.Categorical(weights)]
		_ = s.engine.Schedule(t, report)
	}
	if f.willFail {
		f.penaltyAt = s.engine.Now() + t + 60
		f.penaltyUntil = f.penaltyAt + 600
	}
}

// startSpike begins a load spike.
func (s *System) startSpike(g *stats.RNG) {
	f := &fault{
		kind:  faultSpike,
		start: s.engine.Now(),
		mult:  s.cfg.SpikeMinMult + (s.cfg.SpikeMaxMult-s.cfg.SpikeMinMult)*g.Float64(),
		until: s.engine.Now() + 600 + 600*g.Float64(),
	}
	// A spike is failure-bound if it pushes utilization past the
	// degradation knee at the current diurnal load.
	rho := s.offeredLoad(s.engine.Now()) * f.mult / s.cfg.Capacity
	f.willFail = rho > overloadKnee+0.005
	s.faults = append(s.faults, f)
}

// projected failure horizon per fault kind; +Inf when the fault is benign.
func (f *fault) failureETA(s *System, now float64) float64 {
	if !f.active(now) {
		return math.Inf(1)
	}
	switch f.kind {
	case faultLeak:
		// Violation becomes certain when the swap-pressure term crosses
		// the Eq. 2 limit: pressure(m) = scale·(1 − m/band) with
		// band = 2·SwapThreshold, solved for m at limit − baseSlow.
		band := 2 * s.cfg.SwapThreshold
		critical := band * (1 - (s.cfg.SlowFractionLimit-baseSlowFraction)/memPressureScale)
		if s.freeMem <= critical {
			return now
		}
		return now + (s.freeMem-critical)/f.leakRate
	case faultBurst:
		if !f.willFail || now > f.penaltyUntil {
			return math.Inf(1)
		}
		return f.penaltyAt
	case faultSpike:
		if !f.willFail {
			return math.Inf(1)
		}
		// Overload violates the spec at the next interval boundary.
		return now
	default:
		return math.Inf(1)
	}
}
