package pfm

// Facade over internal/fleet: the multi-tenant fleet runtime that
// multiplexes thousands of logical MEA runtimes — per-tenant engines,
// layers, and quality ledgers — over one shared substrate (consistent-hash
// ingest shards, one evaluation pool, batched cross-tenant scoring, one
// observability plane with the aggregate /fleet endpoint). See cmd/pfmd
// -fleet for a complete deployment.

import (
	"context"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/obs"
)

// Fleet is the multi-tenant MEA runtime. Construct with NewFleet, drive
// with Start/Ingest (or PumpFleet), observe via Handler or Serve, finish
// with Stop.
type Fleet = fleet.Fleet

// FleetConfig parameterizes a fleet.
type FleetConfig = fleet.Config

// FleetTenant registers one tenant (ID + rollup criticality).
type FleetTenant = fleet.TenantSpec

// FleetEvent is one tenant-labeled unit of fleet ingest: the one monitoring
// record (internal/ingest), the same type as RuntimeEvent.
type FleetEvent = ingest.Event

// FleetLayer is a prediction-layer template shared across tenants; supply
// ScoreBatch to score whole tenant chunks in one call.
type FleetLayer = fleet.LayerTemplate

// FleetRecord is one trace record: an event or a ground-truth failure mark —
// what the simulator emits, both trace encodings carry and every FleetSource
// yields (internal/ingest).
type FleetRecord = ingest.Record

// FleetSource yields trace records (io.EOF at end): NewFleetSliceSource,
// fleet.TailSource (text line protocol), or fleet.Reader (binary wire
// format).
type FleetSource = fleet.Source

// FleetRollup is the criticality-weighted fleet aggregate served at /fleet.
type FleetRollup = fleet.RollupView

// FleetTenantView is one tenant's row in the /fleet listing.
type FleetTenantView = fleet.TenantView

// ScopedLedger keeps per-tenant prediction-quality journals under a
// cardinality cap; tenants past the cap share one overflow scope.
type ScopedLedger = obs.ScopedLedger

// ScopedRecorder keeps per-tenant flight recorders under the same
// cardinality-cap discipline; tenants past the cap share one overflow
// recorder. Pass one in FleetConfig to enable the fleet /incidents plane.
type ScopedRecorder = obs.ScopedRecorder

// NewFleet assembles a fleet (not yet running; call Start).
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// NewScopedLedger builds a scoped prediction-quality ledger with at most
// maxScopes dedicated per-tenant journals.
func NewScopedLedger(cfg LedgerConfig, maxScopes int, layerNames ...string) (*ScopedLedger, error) {
	return obs.NewScopedLedger(cfg, maxScopes, layerNames...)
}

// NewScopedRecorder builds a scoped flight recorder with at most maxScopes
// dedicated per-tenant recorders; cfg is the per-scope template.
func NewScopedRecorder(cfg RecorderConfig, maxScopes int) (*ScopedRecorder, error) {
	return obs.NewScopedRecorder(cfg, maxScopes)
}

// PumpFleet drains a trace source into the fleet (events via Ingest,
// failure marks via RecordFailure).
func PumpFleet(ctx context.Context, f *Fleet, src FleetSource) (int, error) {
	return fleet.Pump(ctx, f, src)
}

// NewFleetSliceSource replays an in-memory record slice.
func NewFleetSliceSource(recs []FleetRecord) FleetSource { return fleet.NewSliceSource(recs) }

// FleetListenSource is a FleetSource fed by TCP connections speaking the
// binary wire format or the text line protocol (auto-detected per
// connection). Close it to stop accepting and unblock PumpFleet.
type FleetListenSource = fleet.ListenSource

// ListenFleet opens a TCP ingest listener on addr; pump the returned
// source into a fleet with PumpFleet. See pfmd -listen / loggen -send.
func ListenFleet(addr string) (*FleetListenSource, error) { return fleet.Listen(addr) }
