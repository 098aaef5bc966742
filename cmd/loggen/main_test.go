package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/runtime"
	"repro/internal/scp"
)

// readTrace decodes a .trace or .wire file to its records.
func readTrace(t *testing.T, path string) []ingest.Record {
	t.Helper()
	src, closer, err := fleet.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	var recs []ingest.Record
	for {
		rec, err := src.Next()
		if errors.Is(err, io.EOF) {
			return recs
		}
		if err != nil {
			t.Fatalf("%s: record %d: %v", path, len(recs), err)
		}
		recs = append(recs, rec)
	}
}

// key renders every field of a record, floats by their bits: two records
// are the same record exactly when their keys are equal.
func key(r ingest.Record) string {
	ev := r.Event
	return fmt.Sprintf("%s f=%t k=%d t=%x e=%x|%s|%d|%d|%s s=%s|%x",
		ev.Tenant, r.Failure, ev.Kind, math.Float64bits(ev.Time),
		math.Float64bits(ev.Error.Time), ev.Error.Component, ev.Error.Type, ev.Error.Severity, ev.Error.Message,
		ev.Variable, math.Float64bits(ev.Value))
}

func requireSame(t *testing.T, what string, got, want []ingest.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if key(got[i]) != key(want[i]) {
			t.Fatalf("%s: record %d is\n%s, want\n%s", what, i, key(got[i]), key(want[i]))
		}
	}
}

// TestTwoEncodingsOneStream: one short single-tenant run writes the same
// record sequence both ways, and the binary file is also what
// runtime.ReadColumnar loads: columns have no tenant and keep failure marks
// in a list of their own, so that reading is compared as the event
// subsequence plus the failure subsequence.
func TestTwoEncodingsOneStream(t *testing.T) {
	out := filepath.Join(t.TempDir(), "d")
	if err := run([]string{"-seed", "7", "-days", "1", "-out", out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	text := readTrace(t, out+".trace")
	requireSame(t, ".wire vs .trace", readTrace(t, out+".wire"), text)

	var events, failures []ingest.Record
	kinds := map[ingest.Kind]int{}
	for _, r := range text {
		if r.Failure {
			failures = append(failures, r)
			continue
		}
		events = append(events, r)
		kinds[r.Event.Kind]++
	}
	if len(failures) == 0 || kinds[ingest.KindError] == 0 || kinds[ingest.KindSample] == 0 {
		t.Fatalf("trace exercises too little: %d failures, kinds %v", len(failures), kinds)
	}

	fh, err := os.Open(out + ".wire")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	cols, err := runtime.ReadColumnar(fh)
	if err != nil {
		t.Fatal(err)
	}
	tenant := scp.TenantID(0)
	colEvents := make([]ingest.Record, cols.Len())
	for i := range colEvents {
		ev := cols.Event(i)
		colEvents[i].Event = ingest.Event{
			Tenant: tenant, Kind: ev.Kind, Time: ev.Time,
			Error: ev.Error, Variable: ev.Variable, Value: ev.Value,
		}
	}
	requireSame(t, "ReadColumnar(.wire) events vs .trace", colEvents, events)
	colFailures := make([]ingest.Record, len(cols.Failures))
	for i, at := range cols.Failures {
		colFailures[i] = ingest.Record{Failure: true, Event: ingest.Event{Tenant: tenant, Time: at}}
	}
	requireSame(t, "ReadColumnar(.wire) failures vs .trace", colFailures, failures)
	if left, _ := filepath.Glob(out + ".*"); len(left) != 2 {
		t.Errorf("loggen wrote %v, want a .trace and a .wire", left)
	}
}

// TestByteGolden holds the bytes of both encodings of -seed 7 -days 1
// -tenants 3 to the SHA-256 sums in testdata/golden.sha256 (sha256sum's
// format; `sha256sum -c` checks files written with -out golden). That the
// two files decode alike is TestTwoEncodingsOneStream's business; this
// catches a change to the simulator, the record or either encoder that moves
// a byte. A change that means to move one regenerates the file and says so.
func TestByteGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := run([]string{"-seed", "7", "-days", "1", "-tenants", "3", "-out", filepath.Join(dir, "golden")}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, name := range []string{"golden.trace", "golden.wire"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		fmt.Fprintf(&got, "%s  %s\n", hex.EncodeToString(sum[:]), name)
	}
	if got.String() != string(want) {
		t.Errorf("loggen's bytes moved:\n got %s\nwant %s", got.String(), want)
	}
}

// TestMultiTenantInterleaving: -tenants 3 merges three tenants into one
// stream in non-decreasing time, identically in both encodings.
func TestMultiTenantInterleaving(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m")
	if err := run([]string{"-seed", "7", "-days", "1", "-tenants", "3", "-out", out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	text := readTrace(t, out+".trace")
	requireSame(t, ".wire vs .trace", readTrace(t, out+".wire"), text)
	tenants := map[string]bool{}
	for i, r := range text {
		tenants[r.Event.Tenant] = true
		if i > 0 && r.Event.Time < text[i-1].Event.Time {
			t.Fatalf("record %d at t=%g follows t=%g", i, r.Event.Time, text[i-1].Event.Time)
		}
	}
	if len(tenants) != 3 {
		t.Fatalf("tenants in trace: %v", tenants)
	}
}

// TestRefusedFlags: a fleet of no tenants is refused before anything is
// generated, and the retired -columnar and -convert are unknown flags.
func TestRefusedFlags(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "r")
	for _, args := range [][]string{
		{"-columnar", "-days", "1", "-out", out},
		{"-tenants", "0", "-out", out},
		{"-convert", out},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("run(%v) accepted", args)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("refused runs left files behind: %v", left)
	}
}
