package scp

import (
	"fmt"
	"math"

	"repro/internal/eventlog"
	"repro/internal/sim"
	"repro/internal/stats"
	ts "repro/internal/timeseries"
)

// Response-time degradation model constants. The healthy system sits well
// inside the Eq. 2 envelope; faults push the slow-call fraction across the
// 1e-4 limit.
const (
	baseSlowFraction = 2e-5 // healthy slow-call fraction
	overloadKnee     = 0.9  // utilization where degradation starts
	overloadScale    = 2e-3 // slope of the overload penalty per 0.1 ρ
	memPressureScale = 4e-4 // slope of the swapping penalty
	burstPenalty     = 5e-3 // escalated intermittent fault
)

// System is the simulated SCP platform.
type System struct {
	cfg    Config
	engine *sim.Engine

	faultRNG *stats.RNG
	loadRNG  *stats.RNG

	log    *eventlog.Log
	faults []*fault

	// service state
	up           bool
	downUntil    float64
	prepared     bool // spare prewarmed by PrepareRepair
	shedFraction float64
	freeMem      float64
	lastTickAt   float64
	// leakEmitted[i] records whether leakThresholds[i] fired this episode —
	// a fixed array rather than a map, so the tick loop stays lookup-free
	// and episode resets are a plain zeroing.
	leakEmitted [len(leakThresholds)]bool

	// Eq. 2 interval accounting
	intervalStart float64
	intervalReq   float64
	intervalSlow  float64
	skipEvalUntil float64
	intervals     []IntervalStat

	// SAR accounting. sarSeries is indexed by the sar* constants (aligned
	// with SARVariables) so the sampling loop appends without map lookups;
	// the name→series map only serves the SAR(name) accessor.
	sar          map[string]*ts.Series
	sarSeries    []*ts.Series
	sarLastAt    float64
	sarErrSeen   int // log length at the last SAR sample
	lastRho      float64
	lastFracSlow float64

	// outcome records
	failures  []FailureRecord
	restarts  []float64
	downtime  float64
	runUntil  float64
	startedAt float64
}

// FailureRecord documents one service failure and its repair.
type FailureRecord struct {
	Time      float64 // failure occurrence [s]
	Prepared  bool    // repair was prewarmed by a prior PrepareRepair
	Downtime  float64 // repair downtime [s]
	Cause     string  // leak | burst | overload
	Component string  // faulty component ("comp-N" for bursts, "mem", "lb")
}

// IntervalStat is one Eq. 2 evaluation interval.
type IntervalStat struct {
	Start        float64
	Requests     float64
	Slow         float64
	Availability float64 // interval service availability A_i
	Violated     bool
	Skipped      bool // evaluation suppressed (system down / repairing)
}

// New builds a system on its own simulation engine.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := stats.NewRNG(cfg.Seed)
	s := &System{
		cfg:      cfg,
		engine:   sim.NewEngine(),
		faultRNG: root.Split(1),
		loadRNG:  root.Split(2),
		log:      eventlog.NewLog(),
		up:       true,
		freeMem:  cfg.MemTotal,
		sar:      make(map[string]*ts.Series),
	}
	s.sarSeries = make([]*ts.Series, len(SARVariables))
	for i, name := range SARVariables {
		s.sarSeries[i] = ts.New(name)
		s.sar[name] = s.sarSeries[i]
	}
	s.scheduleInjections()
	if err := s.engine.Every(cfg.Tick, func() bool {
		s.tick()
		return true
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// Engine exposes the simulation engine (for MEA wiring and schedulers).
func (s *System) Engine() *sim.Engine { return s.engine }

// Config returns the configuration.
func (s *System) Config() Config { return s.cfg }

// Run advances the simulation by duration seconds. Each SAR series is sized
// once for the leg (at most one sample per SARInterval, plus the boundary),
// so the sampling loop appends without regrowing.
func (s *System) Run(duration float64) error {
	if duration <= 0 || math.IsNaN(duration) {
		return fmt.Errorf("%w: run duration %g", ErrSCP, duration)
	}
	samples := int(duration/s.cfg.SARInterval) + 1
	for _, series := range s.sarSeries {
		series.Grow(samples)
	}
	s.runUntil = s.engine.Now() + duration
	s.engine.Run(s.runUntil)
	return nil
}

// offeredLoad returns the diurnal request rate before spikes and shedding.
func (s *System) offeredLoad(now float64) float64 {
	diurnal := 1 + s.cfg.DiurnalAmplitude*math.Sin(2*math.Pi*now/86400)
	return s.cfg.BaseLoad * diurnal
}

// currentLoad applies spikes, shedding and short-term noise.
func (s *System) currentLoad(now float64) float64 {
	load := s.offeredLoad(now)
	for _, f := range s.faults {
		if f.kind == faultSpike && f.active(now) {
			load *= f.mult
		}
	}
	load *= 1 - s.shedFraction
	load *= 1 + 0.05*s.loadRNG.NormFloat64()
	if load < 0 {
		load = 0
	}
	return load
}

// tick advances the load/response/fault bookkeeping by one step.
func (s *System) tick() {
	now := s.engine.Now()
	dt := now - s.lastTickAt
	s.lastTickAt = now

	// Retire finished episodes. A fault that is no longer active can never
	// become active again (cleared is final, spike windows only close), and
	// every consumer skips inactive faults, so dropping them keeps the
	// per-tick scans proportional to the handful of live episodes instead
	// of the whole injection history of a year-long run.
	live := s.faults[:0]
	for _, f := range s.faults {
		if f.active(now) {
			live = append(live, f)
		}
	}
	for i := len(live); i < len(s.faults); i++ {
		s.faults[i] = nil
	}
	s.faults = live

	if !s.up {
		s.downtime += dt
		if now >= s.downUntil {
			s.completeRepair(now)
		}
	}

	// Memory leaks drain free memory while the system is up.
	if s.up {
		leakRate := 0.0
		for _, f := range s.faults {
			if f.kind == faultLeak && f.active(now) {
				leakRate += f.leakRate
			}
		}
		if leakRate > 0 {
			s.freeMem -= leakRate * dt
			if s.freeMem <= 0 {
				s.freeMem = 0
			}
			s.emitLeakEvents(now)
		}
	}

	load := s.currentLoad(now)
	requests := load * dt
	rho := load / s.cfg.Capacity
	s.lastRho = rho

	fracSlow := baseSlowFraction
	switch {
	case !s.up:
		fracSlow = 1 // service down: every request misses its deadline
	default:
		if rho > overloadKnee {
			fracSlow += overloadScale * (rho - overloadKnee) / 0.1
			if s.loadRNG.Bernoulli(0.3) {
				s.emit(EventOverload, "lb", eventlog.SeverityWarning, "overload")
			}
		}
		if band := 2 * s.cfg.SwapThreshold; s.freeMem < band {
			fracSlow += memPressureScale * (1 - s.freeMem/band)
		}
		if s.freeMem <= 0 {
			// Exhausted memory: allocations fail and service crawls; the
			// Eq. 2 check at the next boundary records the failure.
			fracSlow += 0.5
		}
		for _, f := range s.faults {
			if f.kind == faultBurst && f.willFail && f.active(now) &&
				now >= f.penaltyAt && now < f.penaltyUntil {
				fracSlow += burstPenalty
			}
		}
		if fracSlow > 1 {
			fracSlow = 1
		}
	}
	s.lastFracSlow = fracSlow

	// Eq. 2 interval accounting (only while up; downtime is accounted as
	// downtime, not as additional spec violations).
	if s.up {
		s.intervalReq += requests
		s.intervalSlow += requests * fracSlow
	}
	if now-s.intervalStart >= s.cfg.SpecInterval {
		s.closeInterval(now)
	}

	s.recordSAR(now, load, rho, fracSlow)
}

// closeInterval evaluates Eq. 2 on the finished interval.
func (s *System) closeInterval(now float64) {
	st := IntervalStat{
		Start:    s.intervalStart,
		Requests: s.intervalReq,
		Slow:     s.intervalSlow,
	}
	s.intervalStart = now
	s.intervalReq, s.intervalSlow = 0, 0
	if st.Requests <= 0 || !s.up || now < s.skipEvalUntil {
		st.Skipped = true
		st.Availability = math.NaN()
		s.intervals = append(s.intervals, st)
		return
	}
	st.Availability = 1 - st.Slow/st.Requests
	st.Violated = st.Slow/st.Requests > s.cfg.SlowFractionLimit
	s.intervals = append(s.intervals, st)
	if st.Violated {
		cause, component := s.dominantCause(now)
		s.fail(now, cause, component)
	}
}

// dominantCause labels the failure and its faulty component.
func (s *System) dominantCause(now float64) (cause, component string) {
	for _, f := range s.faults {
		if f.kind == faultBurst && f.willFail && f.active(now) && now >= f.penaltyAt {
			return "burst", f.component
		}
	}
	if s.freeMem < 2*s.cfg.SwapThreshold {
		return "leak", "mem"
	}
	return "overload", "lb"
}

// fail transitions the system into repair. A prewarmed spare (prepared
// repair, Sect. 4.3) halves the outage; the preparation is consumed.
func (s *System) fail(now float64, cause, component string) {
	if !s.up {
		return
	}
	s.up = false
	downtime := s.cfg.RepairTime
	prepared := s.prepared
	if prepared {
		downtime = s.cfg.PreparedRepairTime
	}
	s.prepared = false
	s.downUntil = now + downtime
	s.failures = append(s.failures, FailureRecord{
		Time:      now,
		Prepared:  prepared,
		Downtime:  downtime,
		Cause:     cause,
		Component: component,
	})
}

// completeRepair restores service after downtime.
func (s *System) completeRepair(now float64) {
	s.up = true
	s.freeMem = s.cfg.MemTotal
	s.leakEmitted = [len(leakThresholds)]bool{}
	s.shedFraction = 0
	for _, f := range s.faults {
		if f.kind != faultSpike {
			f.cleared = true
		}
	}
	s.skipEvalUntil = now + s.cfg.SpecInterval
}

// emit appends an error event to the log.
func (s *System) emit(typ int, component string, sev eventlog.Severity, msg string) {
	_ = s.log.Append(eventlog.Event{
		Time:      s.engine.Now(),
		Component: component,
		Type:      typ,
		Severity:  sev,
		Message:   msg,
	})
}

// leak threshold events: emitted once per episode as free memory crosses
// each level, plus stochastic pressure errors under the swap threshold.
var leakThresholds = [...]struct {
	level float64 // as a multiple of the swap threshold
	typ   int
	sev   eventlog.Severity
}{
	{3.0, EventMemWarning, eventlog.SeverityWarning},
	{2.5, EventMemLow, eventlog.SeverityWarning},
	{2.0, EventMemCritical, eventlog.SeverityError},
	{1.75, EventAllocFail, eventlog.SeverityError},
	{1.5, EventSwapPress, eventlog.SeverityCritical},
}

func (s *System) emitLeakEvents(now float64) {
	for i, th := range leakThresholds {
		if s.freeMem < th.level*s.cfg.SwapThreshold && !s.leakEmitted[i] {
			s.leakEmitted[i] = true
			s.emit(th.typ, "mem", th.sev, "memory threshold crossed")
		}
	}
	// Stochastic swap-pressure errors across the degradation band, with
	// rate accelerating as memory shrinks — the detected-error trail of
	// the paper's memory-leak walkthrough (Sect. 3.1).
	if band := 2 * s.cfg.SwapThreshold; s.freeMem < band {
		p := 0.06 * (1 - s.freeMem/band)
		if s.loadRNG.Bernoulli(p) {
			s.emit(EventSwapPress, "mem", eventlog.SeverityError, "swap pressure")
		}
	}
}
