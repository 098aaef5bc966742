package service

import (
	"context"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// TestBurnRateArmed: both recorder builders arm the burnrate trigger the
// package comment, README and DESIGN.md promise — without a floor in the
// built config pfm_incidents_total{trigger="burnrate"} and its fleet twin can
// never move.
func TestBurnRateArmed(t *testing.T) {
	cfg := &Config{
		Eval: 60, Ledger: obs.LedgerConfig{LeadTime: 300, Slack: 300},
		IncidentCap: 32, IncidentWarn: 0.5, Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	p, err := newPipeline(cfg, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rc := p.recorder.Config(); rc.BurnRateFloor != burnRateFloor || rc.BurnRateFloor <= 0 || rc.Ledger != p.ledger {
		t.Errorf("single-tenant recorder: floor %g over ledger %p, want %g over the pipeline's %p",
			rc.BurnRateFloor, rc.Ledger, burnRateFloor, p.ledger)
	}
	rec, err := cfg.fleetRecorder([]string{"load"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Config().BurnRateFloor; got != burnRateFloor {
		t.Errorf("fleet recorder template: floor %g, want %g", got, burnRateFloor)
	}
}

// TestPacedFromFirstRecord: a paced trace is timed from its first record, so
// an epoch-stamped trace starts at once instead of days later, and the next
// record follows (t₁−t₀)/compress after it.
func TestPacedFromFirstRecord(t *testing.T) {
	const t0, gap, compress = 1.7e9, 180.0, 3600.0 // 50 ms apart on the wall
	at := func(t float64) fleet.Record { return fleet.Record{Event: fleet.Event{Tenant: "a", Time: t}} }
	src := &pacedSource{ctx: context.Background(), src: fleet.NewSliceSource([]fleet.Record{at(t0), at(t0 + gap)}), compress: compress}
	began := time.Now()
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	first := time.Since(began)
	if first > time.Second {
		t.Errorf("the first record took %v, want it at once", first)
	}
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(gap / compress * float64(time.Second))
	if second := time.Since(began) - first; second < want {
		t.Errorf("the second record came %v after the first, want at least %v", second, want)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Errorf("after the trace: %v, want EOF", err)
	}
}

// TestFleetSummaryStatusOrder: the exit summary prints the status counts
// sorted by name, whatever order the rollup's map ranges in.
func TestFleetSummaryStatusOrder(t *testing.T) {
	r := fleet.RollupView{Tenants: 40, ByStatus: map[string]int{"warning": 11, "ok": 22, "failed": 7, "stale": 0}}
	const want = "status.failed=7 status.ok=22 status.stale=0 status.warning=11\n"
	for i := 0; i < 20; i++ {
		var b strings.Builder
		logFleetSummary(slog.New(slog.NewTextHandler(&b, nil)), r, 0, 0)
		if !strings.HasSuffix(b.String(), want) {
			t.Fatalf("fleet summary %q, want it to end in %q", b.String(), want)
		}
	}
}
