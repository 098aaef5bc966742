package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contract is BENCHMARK.json at the root of the repository.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesTables holds BENCHMARK.json against the program's own
// metric and workload tables: same names in the same order, same units,
// directions and bounds, all inside the driver's limits.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", c.RunSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("contract lists %d workloads, the program runs %d", len(c.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in the contract, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("contract lists %d %s metrics, the program reports %d", len(got), kind, len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s metric %d is %s [%s] in the contract, %s [%s] in the program", kind, i, m.Name, m.Unit, d.name, d.unit)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s metric %q [%q] is malformed or its name is repeated", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if !bounded {
				if m.Bound != nil {
					t.Errorf("%s: a per-layer metric has no bound", m.Name)
				}
				continue
			}
			if m.Bound == nil || *m.Bound != d.bound || *m.Bound > 0.25 {
				t.Errorf("%s: bound in the contract does not match the program's %g (at most 0.25)", m.Name, d.bound)
			}
			if (m.Better == "higher") != d.higher {
				t.Errorf("%s: direction %q does not match the program", m.Name, m.Better)
			}
		}
	}
	check("end-to-end", c.EndToEnd, e2eDefs, true)
	check("per-layer", c.PerLayer, layerDefs, false)
	if c.EndToEnd[0].Name != "setup_s" || c.EndToEnd[0].Unit != "s" || c.EndToEnd[0].Better != "lower" {
		t.Errorf("the contract needs setup_s [s], lower is better")
	}
}

// TestQuickRunEmitsContract drives the seconds-scale shrink of every
// workload, both ways, with every output check on, and requires each run to
// report exactly the metrics the contract names for its kind.
func TestQuickRunEmitsContract(t *testing.T) {
	c := readContract(t)
	out := filepath.Join(t.TempDir(), "results.json")
	var stdout bytes.Buffer
	if err := run([]string{"-quick", "-seed", "11", "-seconds", "0.05", "-out", out}, &stdout); err != nil {
		t.Fatalf("quick run: %v\n%s", err, stdout.String())
	}
	all, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	// Every line printed for a run names one declared metric, once.
	printed := map[string]int{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) > 3 && (f[1] == "e2e" || f[1] == "layer") && f[2] != "attempted" {
			printed[f[0]+" "+f[2]]++
		}
	}
	runs := map[string]int{}
	for _, r := range all {
		kind, want := "untraced", c.EndToEnd
		if r.Traced {
			kind, want = "traced", c.PerLayer
		}
		runs[r.Workload+" "+kind]++
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s %s: correct=%v attempted=%d failed=%d %v", r.Workload, kind, r.Correct, r.Attempted, r.Failed, r.Problems)
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("%s %s: %d metrics reported, the contract names %d", r.Workload, kind, len(r.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := r.Metrics[m.Name]
			if !ok {
				t.Errorf("%s %s: %s is missing", r.Workload, kind, m.Name)
			} else if v.Unit != m.Unit {
				t.Errorf("%s %s: %s has unit %q, the contract says %q", r.Workload, kind, m.Name, v.Unit, m.Unit)
			}
			if !r.Traced && !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s is %g, must never be 0", r.Workload, m.Name, v.Value)
			}
		}
		for _, m := range want {
			if n := printed[r.Workload+" "+m.Name]; n != 1 {
				t.Errorf("%s: metric %s printed %d times, want once", r.Workload, m.Name, n)
			}
			delete(printed, r.Workload+" "+m.Name)
		}
	}
	for line := range printed {
		t.Errorf("printed a metric the contract does not name: %s", line)
	}
	for _, w := range c.Workloads {
		for _, kind := range []string{"untraced", "traced"} {
			if runs[w.Name+" "+kind] != 1 {
				t.Errorf("workload %s ran %s %d times, want once", w.Name, kind, runs[w.Name+" "+kind])
			}
		}
	}
}

// TestDriverLine checks the one-workload form: the last line of standard
// output is the driver's JSON object with exactly its four keys.
func TestDriverLine(t *testing.T) {
	c := readContract(t)
	var stdout bytes.Buffer
	if err := run([]string{"--workload", "fleet_inproc", "--seed", "3", "--seconds", "0.05", "--trace", "0", "-quick"}, &stdout); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("driver line lacks %q", k)
		}
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || len(metrics) != len(c.EndToEnd) {
		t.Errorf("driver line has %d keys and %d metrics, want 4 and %d", len(got), len(metrics), len(c.EndToEnd))
	}
}

// TestCompare checks that -compare flags a regression past the bound.
func TestCompare(t *testing.T) {
	mk := func(eps float64) string {
		r := newResults("fleet_tcp", 1, false)
		for _, d := range e2eDefs {
			r.set(d.name, 100)
		}
		v := r.Metrics["events_per_s"]
		v.Value, v.Min, v.Max = eps, eps, eps
		r.Metrics["events_per_s"] = v
		path := filepath.Join(t.TempDir(), "r.json")
		if err := writeOut(path, []*results{r}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var stdout bytes.Buffer
	if err := run([]string{"-compare", mk(100), mk(70)}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`fleet_tcp +events_per_s +100 +70 +0\.7000 +0\.25 +worse`).MatchString(stdout.String()) {
		t.Errorf("a 30%% throughput loss is not reported as worse:\n%s", stdout.String())
	}
	if !regexp.MustCompile(`fleet_tcp +state_mb +100 +100 +1\.0000 +0\.10 +ok`).MatchString(stdout.String()) {
		t.Errorf("an unchanged metric is not reported as ok:\n%s", stdout.String())
	}
}
