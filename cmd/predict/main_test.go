package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/scp"
)

// writeTraces simulates one platform, as cmd/loggen does, and writes its
// records in both loggen encodings, <prefix>.trace (text) and <prefix>.wire
// (binary frames); it returns the prefix.
func writeTraces(t *testing.T, dir, prefix string, seed int64, days float64) string {
	t.Helper()
	m, err := scp.NewMulti(scp.MultiConfig{Tenants: 1, BaseSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(days * 86400); err != nil {
		t.Fatal(err)
	}
	recs := m.Drain()
	var text, wire bytes.Buffer
	if err := fleet.WriteTrace(&text, recs); err != nil {
		t.Fatal(err)
	}
	if err := fleet.WriteWire(&wire, recs); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, prefix)
	for ext, buf := range map[string]*bytes.Buffer{".trace": &text, ".wire": &wire} {
		if err := os.WriteFile(base+ext, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return base
}

// TestTrainScoreEvalWorkflow drives the full CLI workflow: train on one
// simulated platform, persist the model, evaluate and score on another —
// once from text traces and once from binary ones, each run reading its
// events and its failure marks from the one file. Both encodings carry the
// same records, so they must train the same model.
func TestTrainScoreEvalWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day simulations")
	}
	dir := t.TempDir()
	train := writeTraces(t, dir, "train", 7, 10)
	test := writeTraces(t, dir, "test", 8, 4)
	models := map[string][]byte{}
	for _, ext := range []string{".trace", ".wire"} {
		model := filepath.Join(dir, "model"+ext+".json")
		if err := run([]string{"train", "-log", train + ext, "-model", model}); err != nil {
			t.Fatalf("%s train: %v", ext, err)
		}
		data, err := os.ReadFile(model)
		if err != nil {
			t.Fatalf("%s: model not written: %v", ext, err)
		}
		models[ext] = data
		if err := run([]string{"eval", "-log", test + ext, "-model", model}); err != nil {
			t.Fatalf("%s eval: %v", ext, err)
		}
		if err := run([]string{"score", "-log", test + ext, "-model", model, "-at", "86400"}); err != nil {
			t.Fatalf("%s score: %v", ext, err)
		}
	}
	if !bytes.Equal(models[".trace"], models[".wire"]) {
		t.Fatal("text and binary traces of the same records trained different models")
	}
}

func TestRunUsageErrors(t *testing.T) {
	dir := t.TempDir()
	// Two tenants in one trace, and one tenant that never failed.
	multi := filepath.Join(dir, "multi.trace")
	quiet := filepath.Join(dir, "quiet.trace")
	for path, text := range map[string]string{
		multi: "E|t0000|1|db|3|2|m\nF|t0001|2\n",
		quiet: "E|t0000|1|db|3|2|m\nS|t0000|2|load|0.5\n",
	} {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := [][]string{
		nil,
		{"bogus"},
		{"train"},                                // missing -log
		{"score", "-log", "x"},                   // missing -at
		{"eval", "-model", "x"},                  // missing -log
		{"train", "-log", "x", "-failures", "y"}, // the flag is gone
		{"train", "-log", multi},
		{"score", "-log", multi, "-at", "1"},
		{"eval", "-log", quiet}, // no ground truth to evaluate against
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("run(%v) accepted", args)
		}
	}
	if err := run([]string{"train", "-log", multi}); err == nil || !strings.Contains(err.Error(), "multi-tenant") {
		t.Fatalf("multi-tenant trace: %v", err)
	}
}

// TestRetiredMagicRefused: -log on a file in a binary format this repository
// no longer reads says which format and what to do, not that a line of text
// is malformed.
func TestRetiredMagicRefused(t *testing.T) {
	for _, magic := range []string{"PFW1", "PFC1"} {
		path := filepath.Join(t.TempDir(), "old.bin")
		if err := os.WriteFile(path, []byte(magic+"\x00\x01\x02\x03\x04\x05\x06\x07"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"train", "-log", path, "-model", filepath.Join(t.TempDir(), "m.json")})
		if err == nil || !strings.Contains(err.Error(), magic+" format was retired in PR 22, regenerate with `loggen`") {
			t.Errorf("train -log on a %s file: err = %v, want the format refused by name", magic, err)
		}
	}
}
