package scp

import (
	"fmt"
	"math"

	"repro/internal/act"
	"repro/internal/eventlog"
	ts "repro/internal/timeseries"
)

// The simulator is the control surface the Act stage steers.
var _ act.Target = (*System)(nil)

// SARVariables are the System Activity Reporter variables the simulator
// records (Sect. 3.3: "System error logs and data of the System Activity
// Reporter (SAR) have been used as input data"). The order matches the
// sar* index constants below.
var SARVariables = []string{
	"load",      // offered request rate [req/s]
	"cpu",       // utilization ρ
	"mem_free",  // free memory [MB]
	"swap",      // swap pressure indicator [0,1]
	"queue",     // request queue length estimate
	"semops",    // semaphore operations per second (scales with load)
	"err_rate",  // error reports per second since the last sample
	"frac_slow", // instantaneous slow-call fraction
}

// Indices into SARVariables / System.sarSeries. The sampling loop runs once
// per SAR interval for the whole simulation, so it appends through these
// rather than building a name→value map and hashing eight keys per sample.
const (
	sarLoad = iota
	sarCPU
	sarMemFree
	sarSwap
	sarQueue
	sarSemops
	sarErrRate
	sarFracSlow
	sarCount // len(SARVariables)
)

// recordSAR appends one sample per SAR interval. It is allocation-free:
// values go straight to the pre-resolved series in fixed index order
// (samples are strictly time-ordered by construction, so Append cannot
// fail).
func (s *System) recordSAR(now, load, rho, fracSlow float64) {
	if now-s.sarLastAt < s.cfg.SARInterval {
		return
	}
	s.sarLastAt = now
	queue := rho / math.Max(0.05, 1-rho)
	if queue > 100 {
		queue = 100
	}
	swap := 0.0
	if s.freeMem < s.cfg.SwapThreshold {
		swap = 1 - s.freeMem/s.cfg.SwapThreshold
	}
	errRate := float64(s.log.Len()-s.sarErrSeen) / s.cfg.SARInterval
	s.sarErrSeen = s.log.Len()
	semops := load * 50 * (1 + 0.02*s.loadRNG.NormFloat64())
	_ = s.sarSeries[sarLoad].Append(now, load)
	_ = s.sarSeries[sarCPU].Append(now, rho)
	_ = s.sarSeries[sarMemFree].Append(now, s.freeMem)
	_ = s.sarSeries[sarSwap].Append(now, swap)
	_ = s.sarSeries[sarQueue].Append(now, queue)
	_ = s.sarSeries[sarSemops].Append(now, semops)
	_ = s.sarSeries[sarErrRate].Append(now, errRate)
	_ = s.sarSeries[sarFracSlow].Append(now, fracSlow)
}

// SAR returns the recorded series for a variable.
func (s *System) SAR(name string) (*ts.Series, error) {
	series, ok := s.sar[name]
	if !ok {
		return nil, fmt.Errorf("%w: unknown SAR variable %q", ErrSCP, name)
	}
	return series, nil
}

// Log returns the error log (live reference).
func (s *System) Log() *eventlog.Log { return s.log }

// Intervals returns the Eq. 2 evaluation history.
func (s *System) Intervals() []IntervalStat {
	return append([]IntervalStat(nil), s.intervals...)
}

// Failures returns the failure records.
func (s *System) Failures() []FailureRecord {
	return append([]FailureRecord(nil), s.failures...)
}

// FailureTimes returns just the failure instants (ground truth for
// training and evaluation).
func (s *System) FailureTimes() []float64 {
	out := make([]float64, len(s.failures))
	for i, f := range s.failures {
		out[i] = f.Time
	}
	return out
}

// Restarts returns the times of forced (preventive) restarts.
func (s *System) Restarts() []float64 {
	return append([]float64(nil), s.restarts...)
}

// TotalDowntime returns the accumulated downtime [s], including forced
// restarts.
func (s *System) TotalDowntime() float64 { return s.downtime }

// MeasuredAvailability returns uptime/elapsed since the start.
func (s *System) MeasuredAvailability() float64 {
	elapsed := s.engine.Now() - s.startedAt
	if elapsed <= 0 {
		return 1
	}
	return 1 - s.downtime/elapsed
}

// Up reports whether the service is currently delivering.
func (s *System) Up() bool { return s.up }

// FreeMemory returns the current free memory [MB].
func (s *System) FreeMemory() float64 { return s.freeMem }

// ImminentFailureWithin reports whether any active, unmitigated fault is
// projected to cause a failure within the horizon — a look at the fault
// schedule no deployed predictor has, which E7 uses as a perfect warning
// source to isolate the Fig. 8 time-to-repair mechanics.
func (s *System) ImminentFailureWithin(horizon float64) bool {
	now := s.engine.Now()
	for _, f := range s.faults {
		if eta := f.failureETA(s, now); eta <= now+horizon {
			return true
		}
	}
	return false
}

// --- act.Target implementation -------------------------------------------

// CleanupState frees leaked resources: garbage-collects leaked memory and
// stops active leak episodes. Intermittent component faults are untouched.
func (s *System) CleanupState() error {
	if !s.up {
		return fmt.Errorf("%w: cannot clean up while down", ErrSCP)
	}
	for _, f := range s.faults {
		if f.kind == faultLeak {
			f.cleared = true
		}
	}
	s.freeMem = s.cfg.MemTotal
	s.leakEmitted = [len(leakThresholds)]bool{}
	return nil
}

// Failover migrates the service to a spare unit: leaks and intermittent
// faults stay behind on the failed-over component. Load spikes are
// external and follow the service.
func (s *System) Failover() error {
	if !s.up {
		return fmt.Errorf("%w: cannot fail over while down", ErrSCP)
	}
	for _, f := range s.faults {
		if f.kind == faultLeak || f.kind == faultBurst {
			f.cleared = true
		}
	}
	s.freeMem = s.cfg.MemTotal
	s.leakEmitted = [len(leakThresholds)]bool{}
	return nil
}

// ShedLoad rejects the given fraction of incoming requests until repair or
// reset (fraction 0).
func (s *System) ShedLoad(fraction float64) error {
	if fraction < 0 || fraction > 1 || math.IsNaN(fraction) {
		return fmt.Errorf("%w: shed fraction %g", ErrSCP, fraction)
	}
	s.shedFraction = fraction
	return nil
}

// PrepareRepair prewarms the cold spare: the next failure repairs in
// PreparedRepairTime instead of RepairTime (Fig. 8).
func (s *System) PrepareRepair() error {
	s.prepared = true
	return nil
}

// Restart forces a preventive restart (rejuvenation): short forced
// downtime, all internal faults cleared.
func (s *System) Restart() (float64, error) {
	if !s.up {
		return 0, fmt.Errorf("%w: already down", ErrSCP)
	}
	now := s.engine.Now()
	s.up = false
	s.downUntil = now + s.cfg.RestartDowntime
	s.restarts = append(s.restarts, now)
	return s.cfg.RestartDowntime, nil
}

// Utilization returns the current utilization ρ clamped to [0,1].
func (s *System) Utilization() float64 {
	if s.lastRho > 1 {
		return 1
	}
	if s.lastRho < 0 {
		return 0
	}
	return s.lastRho
}
