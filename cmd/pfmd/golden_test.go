package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/scp"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_*.txt from this run")

// writeSimTrace writes what `loggen -seed seed -days days -tenants tenants`
// writes as its .wire file.
func writeSimTrace(t *testing.T, seed int64, days float64, tenants int) string {
	t.Helper()
	m, err := scp.NewMulti(scp.MultiConfig{Tenants: tenants, BaseSeed: seed, Skew: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(days * 86400); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.wire")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.WriteWire(fh, m.Drain()); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// timingKeys are the log attributes that depend on the wall clock, the
// machine or the run's temporary paths, not on the input.
var timingKeys = []string{"time", "wall_seconds", "events_per_sec", "mean_duration", "last_duration", "addr", "path", "source"}

// exitRecord is a log record that closes a run, kept in full in the golden
// file; every other record (a warning, a bundle written) enters only its
// digest.
var exitRecord = map[string]bool{
	"replay complete": true, "system summary": true, "pipeline summary": true, "action stats": true,
	"prediction quality": true, "model assessment": true, "incident summary": true,
	"fleet ingest done": true, "fleet summary": true,
}

// normalize turns a JSON log into the golden form: each record with the
// timing attributes removed and its keys sorted, the exit records in full,
// the rest as a count and a digest, then stdout's digest.
func normalize(t *testing.T, log, stdout string) string {
	t.Helper()
	var b strings.Builder
	rest, n := sha256.New(), 0
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		for _, k := range timingKeys {
			delete(rec, k)
		}
		out, err := json.Marshal(rec) // a map marshals with its keys sorted
		if err != nil {
			t.Fatal(err)
		}
		if exitRecord[rec["msg"].(string)] {
			b.Write(out)
			b.WriteByte('\n')
		} else {
			rest.Write(out)
			n++
		}
	}
	fmt.Fprintf(&b, "other records: %d, sha256 %x\n", n, rest.Sum(nil))
	fmt.Fprintf(&b, "stdout: %d bytes, sha256 %x\n", len(stdout), sha256.Sum256([]byte(stdout)))
	return b.String()
}

// TestSummaryGolden runs pfmd's three modes on seeded inputs — a seed-7
// three-day trace through -replay-columnar, a live day at seed 11, and
// -fleet-trace over 40 tenants' seed-7 day — and compares what each prints
// at exit, timings aside, with testdata/golden_<mode>.txt: the product's
// decisions, counts and quality tables must not move under a refactor.
func TestSummaryGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args func() []string
	}{
		{"replay", func() []string { return []string{"-replay-columnar", writeSimTrace(t, 7, 3, 1)} }},
		{"live", func() []string { return []string{"-days", "1", "-compress", "864000"} }},
		{"fleet", func() []string {
			return []string{"-fleet", "-tenants", "40", "-fleet-trace", writeSimTrace(t, 7, 1, 40), "-compress", "864000"}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			args := append(c.args(), "-addr", "127.0.0.1:0", "-log-format", "json")
			if err := run(context.Background(), args, &stdout, &stderr); err != nil {
				t.Fatalf("run %v: %v\n%s", args, err, stderr.String())
			}
			got := normalize(t, stderr.String(), stdout.String())
			path := filepath.Join("testdata", "golden_"+c.name+".txt")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s:\n%s", c.name, path, got)
			}
		})
	}
}
