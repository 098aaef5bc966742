package service

import (
	"context"
	"io"
	"log/slog"
	"net"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/lifecycle"
	"repro/internal/obs"
)

// TestProductConstants: the ledger every mode builds matches at the lead time
// 300 and slack 300 over -ledger-window, the fleet dedicates 64 scopes, and
// -hotswap's lifecycle runs drift 240/8/20/200 — what the retired flags
// -ledger-slack, -fleet-scopes and -drift-* defaulted to.
func TestProductConstants(t *testing.T) {
	cfg := &Config{Eval: 60, LedgerWindow: 3600, Hotswap: true, Tenants: fleetScopes + 1, Seed: 1, Skew: 1,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	want := obs.LedgerConfig{LeadTime: 300, Slack: 300, Window: 3600}
	p, err := newPipeline(cfg, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if s := p.ledger.Snapshot(); s.LeadTime != want.LeadTime || s.Slack != want.Slack || s.Window != want.Window {
		t.Errorf("single-tenant ledger: lead %g slack %g window %g, want %+v", s.LeadTime, s.Slack, s.Window, want)
	}
	if p.lcm == nil {
		t.Error("-hotswap built no lifecycle")
	}
	if got := driftConfig(); got != (lifecycle.Config{ScoreWarmup: 240, ScoreThresholdSigma: 8, ShadowMinResolved: 20, CooldownCycles: 200}) {
		t.Errorf("lifecycle: %+v, want drift 240/8/20/200", got)
	}
	r, _, err := newFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.led.Config(); got != want {
		t.Errorf("fleet ledger: %+v, want %+v", got, want)
	}
	if n, folded := len(r.led.Scopes())-1, r.led.Folded(); n != 64 || folded != 1 {
		t.Errorf("fleet ledger over %d tenants: %d dedicated scopes, %d folded; want 64 and 1", cfg.Tenants, n, folded)
	}
}

// TestTraceDumpRaisesCap: Run's check raises TraceCap to TraceDump, so the
// exit dump has the traces it prints.
func TestTraceDumpRaisesCap(t *testing.T) {
	cfg := Config{Days: 1, Compress: 3600, Eval: 60, TraceCap: 8, TraceDump: 50}
	if err := cfg.check(); err != nil || cfg.TraceCap != 50 {
		t.Errorf("check: %v, trace cap %d; want nil and 50", err, cfg.TraceCap)
	}
}

// TestBindFailureStops: when -addr is taken, Run returns the bind error,
// naming the address, and leaves no goroutine of the pipeline it started
// behind, in either mode.
func TestBindFailureStops(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	addr := held.Addr().String()
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"single", Config{}},
		{"fleet", Config{Fleet: true, Tenants: 3, Skew: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := goroutines()
			cfg := c.cfg
			cfg.Addr, cfg.Seed, cfg.Days, cfg.Compress, cfg.Eval = addr, 11, 1, 3600, 60
			cfg.QueueCapacity, cfg.TraceCap, cfg.TraceSample, cfg.IncidentCap = 64, 16, 1, 4
			cfg.Logger, cfg.Stdout = slog.New(slog.NewTextHandler(io.Discard, nil)), io.Discard
			err := Run(context.Background(), cfg)
			if err == nil || !strings.Contains(err.Error(), addr) {
				t.Fatalf("Run on a taken -addr %s = %v, want an error naming it", addr, err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for goroutines() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if after := goroutines(); after > before {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines before Run, %d after:\n%s", before, after, buf[:goruntime.Stack(buf, true)])
			}
		})
	}
}

// goroutines counts the live goroutines once the scheduler has let exiting
// ones finish.
func goroutines() int {
	goruntime.GC()
	goruntime.Gosched()
	return goruntime.NumGoroutine()
}

// TestBurnRateArmed: both recorder builders arm the burnrate trigger the
// package comment, README and DESIGN.md promise — without a floor in the
// built config pfm_incidents_total{trigger="burnrate"} and its fleet twin can
// never move.
func TestBurnRateArmed(t *testing.T) {
	cfg := &Config{Eval: 60, IncidentCap: 32, IncidentWarn: 0.5, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
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
