package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/scp"
)

// simTrace generates a small multi-tenant simulator trace once per test
// binary (4 tenants, 3 simulated hours, Zipf-skewed load).
func simTrace(t *testing.T) ([]string, []Record) {
	t.Helper()
	m, err := scp.NewMulti(scp.MultiConfig{Tenants: 4, BaseSeed: 7, Skew: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(3 * 3600); err != nil {
		t.Fatal(err)
	}
	recs := SCPRecords(m.Drain())
	if len(recs) == 0 {
		t.Fatal("simulator produced an empty trace")
	}
	return m.IDs(), recs
}

// replay pumps src into a fresh fleet and returns its observable outcome:
// per-tenant event/failure counts plus ledger totals.
func replay(t *testing.T, ids []string, src Source) map[string][3]int64 {
	t.Helper()
	clock := newTestClock(0)
	led, err := obs.NewScopedLedger(obs.LedgerConfig{LeadTime: 300, Slack: 60}, len(ids), "load")
	if err != nil {
		t.Fatal(err)
	}
	sp := make([]TenantSpec, len(ids))
	for i, id := range ids {
		sp[i] = TenantSpec{ID: id}
	}
	cfg := testFleetConfig(sp, clock)
	cfg.Shards = 3
	cfg.Ledger = led
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(ctx, f, src); err != nil {
		t.Fatal(err)
	}
	if err := f.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Set(3 * 3600)
	f.EvaluateCycle()
	if err := f.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	out := make(map[string][3]int64, len(ids)+1)
	for _, id := range ids {
		v, ok := f.TenantStatus(id)
		if !ok {
			t.Fatalf("tenant %s missing", id)
		}
		out[id] = [3]int64{v.Events, v.Failures, v.Warnings}
	}
	preds, fails := led.Totals()
	out["~ledger"] = [3]int64{preds, fails, 0}
	return out
}

// TestSourceParity: the in-process feeder, the text file-tail source, and
// the binary wire source replay the same multi-tenant trace to identical
// per-tenant counts and ledger totals — the acceptance criterion for
// pluggable ingest.
func TestSourceParity(t *testing.T) {
	ids, recs := simTrace(t)

	ref := replay(t, ids, NewSliceSource(recs))

	var text bytes.Buffer
	if err := WriteTrace(&text, recs); err != nil {
		t.Fatal(err)
	}
	fromTail := replay(t, ids, NewTailSource(&text))

	var wire bytes.Buffer
	if err := WriteWire(&wire, recs); err != nil {
		t.Fatal(err)
	}
	fromWire := replay(t, ids, NewReader(&wire))

	for key, want := range ref {
		if got := fromTail[key]; got != want {
			t.Errorf("tail source: %s = %v, want %v", key, got, want)
		}
		if got := fromWire[key]; got != want {
			t.Errorf("wire source: %s = %v, want %v", key, got, want)
		}
	}
	if ref["~ledger"][1] == 0 {
		t.Log("note: trace contains no failures; parity still holds but is weaker")
	}
}

// TestTailRoundTrip: format → parse is the identity on a simulator trace —
// as written, with the final newline missing, and with a malformed line in
// the middle, whose error (carrying its line number) does not stop the calls
// after it.
func TestTailRoundTrip(t *testing.T) {
	_, recs := simTrace(t)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	firstLine := strings.IndexByte(text, '\n') + 1
	for _, in := range []struct {
		name, text string
		badLine    int // 1-based line expected to fail to parse; 0 = none
	}{
		{"as written", text, 0},
		{"no final newline", strings.TrimSuffix(text, "\n"), 0},
		{"malformed line 2", text[:firstLine] + "S|t0|1|cpu\n" + text[firstLine:], 2},
	} {
		t.Run(in.name, func(t *testing.T) {
			src := NewTailSource(strings.NewReader(in.text))
			for i, want := range recs {
				if i+1 == in.badLine {
					if _, err := src.Next(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("line %d:", in.badLine)) {
						t.Fatalf("malformed line %d: err = %v", in.badLine, err)
					}
				}
				got, err := src.Next()
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if got != want {
					t.Fatalf("record %d: got %+v, want %+v", i, got, want)
				}
			}
			if _, err := src.Next(); err != io.EOF {
				t.Fatalf("after the last record: err = %v, want io.EOF", err)
			}
		})
	}
}

// TestTailMalformed: bad lines report their position and do not panic.
func TestTailMalformed(t *testing.T) {
	for _, line := range []string{
		"X|t0|1",            // unknown type
		"S|t0|abc|cpu|1",    // bad time
		"S|t0|1|cpu",        // missing value
		"E|t0|1|c|x|0|msg",  // bad type field
		"E|t0|1|c|0|zz|msg", // bad severity
		"F|t0",              // missing time
		"noseparator",
	} {
		if _, skip, err := ParseLine(line); err == nil || skip {
			t.Errorf("ParseLine(%q) = skip=%v err=%v, want error", line, skip, err)
		}
	}
	for _, line := range []string{"", "# comment", "\n", "\r\n"} {
		if _, skip, err := ParseLine(line); err != nil || !skip {
			t.Errorf("ParseLine(%q) = skip=%v err=%v, want skip", line, skip, err)
		}
	}
}
