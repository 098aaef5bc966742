package pfm

import (
	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/scp"
)

// SCPConfig parameterizes the simulated telecom Service Control Point —
// the reproduction of the paper's case-study system (Sect. 3.3).
type SCPConfig = scp.Config

// SCP is the simulated telecom platform. It emits error logs and SAR
// monitoring variables, evaluates the Eq. 2 failure specification, and
// implements ActionTarget so the MEA loop can steer it.
type SCP = scp.System

// DefaultSCPConfig returns the calibrated simulator configuration.
func DefaultSCPConfig() SCPConfig { return scp.DefaultConfig() }

// NewSCP builds a simulated SCP on its own simulation engine.
func NewSCP(cfg SCPConfig) (*SCP, error) { return scp.New(cfg) }

// ClosedLoop is an MEA engine run on a simulated SCP by the streaming
// runtime, one cycle every EvalInterval of simulated time, with Table 1
// booked by a Ledger over the failures the system records.
type ClosedLoop = experiments.ClosedLoop

// AttachClosedLoop registers engine's cycle on sys's clock (it installs
// engine's cycle observer). Run sys, read the results, then Close the loop.
func AttachClosedLoop(sys *SCP, engine *MEAEngine) (*ClosedLoop, error) {
	return experiments.AttachClosedLoop(sys, engine)
}

// --- checkpointing (prepared repair, Fig. 8) --------------------------------

// CheckpointStore keeps recovery points in time order.
type CheckpointStore = checkpoint.Store

// Checkpoint is one saved recovery point.
type Checkpoint = checkpoint.Checkpoint

// RecoveryParams quantifies the Fig. 8 time-to-repair factors.
type RecoveryParams = checkpoint.RecoveryParams

// TTRBreakdown decomposes one recovery into its Fig. 8 factors.
type TTRBreakdown = checkpoint.TTRBreakdown

// NewCheckpointStore returns a store with the implicit initial checkpoint.
func NewCheckpointStore() *CheckpointStore { return checkpoint.NewStore() }

// Recover computes the TTR of a failure restored from the latest
// checkpoint, prepared or not (Fig. 8).
func Recover(store *CheckpointStore, p RecoveryParams, failTime float64, prepared bool) (TTRBreakdown, error) {
	return checkpoint.Recover(store, p, failTime, prepared)
}
