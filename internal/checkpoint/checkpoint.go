// Package checkpoint implements the prepared-repair substrate of Sect. 4.3:
// checkpoint stores, periodic and prediction-driven checkpointing policies,
// and the Fig. 8 time-to-repair decomposition
//
//	TTR = time-to-fault-free (repair/reconfiguration) + recomputation,
//
// where preparation shortens the first term (prewarmed spare) and
// prediction-driven checkpoints close to the failure shorten the second.
package checkpoint

import (
	"errors"
	"fmt"
	"math"
)

// ErrCheckpoint is wrapped by all package errors.
var ErrCheckpoint = errors.New("checkpoint: invalid operation")

// Checkpoint is one saved recovery point.
type Checkpoint struct {
	Time float64 // when it was saved [s]
	// Prepared records whether this checkpoint was saved on a failure
	// warning (prediction-driven) rather than periodically.
	Prepared bool
}

// Store keeps checkpoints in time order.
type Store struct {
	checkpoints []Checkpoint
}

// NewStore returns an empty store with an implicit checkpoint at time 0
// (the initial state is always recoverable).
func NewStore() *Store {
	return &Store{checkpoints: []Checkpoint{{Time: 0}}}
}

// Save records a checkpoint; time must not decrease.
func (s *Store) Save(c Checkpoint) error {
	if math.IsNaN(c.Time) || math.IsInf(c.Time, 0) {
		return fmt.Errorf("%w: checkpoint time %g", ErrCheckpoint, c.Time)
	}
	if n := len(s.checkpoints); n > 0 && c.Time < s.checkpoints[n-1].Time {
		return fmt.Errorf("%w: checkpoint time %g before latest %g",
			ErrCheckpoint, c.Time, s.checkpoints[n-1].Time)
	}
	s.checkpoints = append(s.checkpoints, c)
	return nil
}

// Latest returns the most recent checkpoint.
func (s *Store) Latest() Checkpoint {
	return s.checkpoints[len(s.checkpoints)-1]
}

// Len returns the number of checkpoints (including the implicit initial
// one).
func (s *Store) Len() int { return len(s.checkpoints) }

// RecoveryParams quantifies the Fig. 8 TTR factors.
type RecoveryParams struct {
	// RepairTime is the time to obtain a fault-free system without
	// preparation (hardware repair / cold-spare boot / reconfiguration).
	RepairTime float64
	// PreparedRepairTime is the same with preparation (spare prewarmed on
	// the warning); must be ≤ RepairTime.
	PreparedRepairTime float64
	// RecomputeFactor converts lost wall-clock time into recomputation
	// time (1 = replay at original speed; < 1 = replay faster).
	RecomputeFactor float64
}

// Validate checks the parameters.
func (p RecoveryParams) Validate() error {
	if p.RepairTime < 0 || p.PreparedRepairTime < 0 || p.RecomputeFactor < 0 {
		return fmt.Errorf("%w: negative recovery parameter %+v", ErrCheckpoint, p)
	}
	if p.PreparedRepairTime > p.RepairTime {
		return fmt.Errorf("%w: prepared repair (%g) slower than unprepared (%g)",
			ErrCheckpoint, p.PreparedRepairTime, p.RepairTime)
	}
	return nil
}

// TTRBreakdown decomposes one recovery (Fig. 8).
type TTRBreakdown struct {
	FaultFree float64 // time until a fault-free system is available
	Recompute float64 // time to redo computation lost since the checkpoint
}

// Total returns the full time to repair.
func (b TTRBreakdown) Total() float64 { return b.FaultFree + b.Recompute }

// Recover computes the TTR of a failure at failTime restored from the
// store's latest checkpoint via the roll-backward scheme (Sect. 4.3:
// recover to a previous fault-free state, then redo the lost computation).
// prepared selects the prewarmed repair path (the warning arrived in time
// to prepare).
func Recover(store *Store, p RecoveryParams, failTime float64, prepared bool) (TTRBreakdown, error) {
	if err := p.Validate(); err != nil {
		return TTRBreakdown{}, err
	}
	cp := store.Latest()
	if failTime < cp.Time {
		return TTRBreakdown{}, fmt.Errorf("%w: failure at %g before checkpoint at %g",
			ErrCheckpoint, failTime, cp.Time)
	}
	b := TTRBreakdown{Recompute: (failTime - cp.Time) * p.RecomputeFactor}
	if prepared {
		b.FaultFree = p.PreparedRepairTime
	} else {
		b.FaultFree = p.RepairTime
	}
	return b, nil
}
