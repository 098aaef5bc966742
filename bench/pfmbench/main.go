// Command pfmbench is the repository's end-to-end and per-layer benchmark:
// five workloads over seed-generated traces, run through the product
// configured as cmd/pfmd configures it, with every stage cost measured from
// outside the program. See README.md in this directory.
//
// The driver's form runs one workload, untraced (end-to-end metrics) or
// traced (per-layer metrics), and ends with one JSON line:
//
//	pfmbench --workload fleet_tcp --seed 7 --seconds 10 --trace 0
//
// Without --workload it runs every workload both ways and writes -out:
//
//	pfmbench -seed 7 -out results.json [-quick] [-spans spans.jsonl]
//	pfmbench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pfmbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pfmbench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload and end with the driver's JSON line (default: all five, both ways)")
	seed := fs.Int64("seed", 7, "every input is generated from this seed")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	traced := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	quick := fs.Bool("quick", false, "seconds-scale shrink of every workload, all checks kept")
	outPath := fs.String("out", "", "write every run's results to this JSON file")
	spans := fs.String("spans", "", "write the traced run's spans to this file, one JSON object a line")
	compare := fs.Bool("compare", false, "compare two -out files: pfmbench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	sz := fullSizes
	if *quick {
		sz = quickSizes
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}

	jobs := &wholeJobs{}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		var res *results
		var err error
		if *traced != 0 {
			res, err = runTraced(w, *seed, *seconds, sz, *spans, jobs)
		} else {
			res, err = runUntraced(w, *seed, *seconds, sz)
		}
		if err != nil {
			return err
		}
		printResults(stdout, res)
		if err := writeOut(*outPath, []*results{res}); err != nil {
			return err
		}
		if err := printDriverLine(stdout, res); err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s: %d output checks failed", w.name, len(res.Problems))
		}
		return nil
	}

	var all []*results
	bad := 0
	for _, w := range workloads {
		plain, err := runUntraced(w, *seed, *seconds, sz)
		if err != nil {
			return err
		}
		printResults(stdout, plain)
		spansFile := ""
		if *spans != "" {
			spansFile = *spans + "." + w.name
		}
		layer, err := runTraced(w, *seed, *seconds, sz, spansFile, jobs)
		if err != nil {
			return err
		}
		printResults(stdout, layer)
		all = append(all, plain, layer)
		bad += len(plain.Problems) + len(layer.Problems)
	}
	if err := writeOut(*outPath, all); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d output checks failed", bad)
	}
	return nil
}

// printResults prints every metric of one run by name, with its unit and
// workload, and the range and count of the samples behind the median.
func printResults(w io.Writer, r *results) {
	kind := "e2e"
	if r.Traced {
		kind = "layer"
	}
	for _, d := range r.defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-16s %-5s %-40s %14.6g %-13s min %.6g max %.6g n %d\n",
			r.Workload, kind, d.name, v.Value, v.Unit, v.Min, v.Max, v.N)
	}
	fmt.Fprintf(w, "%-16s %-5s attempted %d failed %d correct %v\n", r.Workload, kind, r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%-16s CHECK FAILED: %s\n", r.Workload, p)
	}
}

// printDriverLine prints the one JSON object the driver reads.
func printDriverLine(w io.Writer, r *results) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]metric, len(r.Metrics))}
	for name, v := range r.Metrics {
		line.Metrics[name] = metric{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeOut(path string, all []*results) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) ([]*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all []*results
	if err := json.Unmarshal(b, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return all, nil
}

// compareFiles prints one row per (workload, e2e metric) with both medians,
// the ratio B/A, the bound and a verdict, then the per-layer deltas sorted
// by absolute relative change. A metric is "worse" when B's median is worse
// than A's by more than the bound, and "unresolved" when it is not but
// either side's own samples spread wider than the bound.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	find := func(all []*results, workload string, traced bool) *results {
		for _, r := range all {
			if r.Workload == workload && r.Traced == traced {
				return r
			}
		}
		return nil
	}
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %6s  %s\n", "workload", "e2e metric", "A", "B", "B/A", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := find(a, wl.name, false), find(b, wl.name, false)
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range e2eDefs {
			va, vb := ra.Metrics[d.name], rb.Metrics[d.name]
			ratio := vb.Value / va.Value
			worse := ratio - 1
			if d.higher {
				worse = 1 - ratio
			}
			spread := func(v value) float64 { return (v.Max - v.Min) / math.Abs(v.Value) }
			verdict := "ok"
			switch {
			case worse > d.bound:
				verdict = "worse"
			case spread(va) > d.bound || spread(vb) > d.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-16s %-22s %14.6g %14.6g %9.4f %6.2f  %s\n", wl.name, d.name, va.Value, vb.Value, ratio, d.bound, verdict)
		}
	}
	type delta struct {
		workload, name, unit string
		a, b, rel            float64
	}
	var deltas []delta
	for _, wl := range workloads {
		ra, rb := find(a, wl.name, true), find(b, wl.name, true)
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range layerDefs {
			va, vb := ra.Metrics[d.name], rb.Metrics[d.name]
			if va.Value == 0 && vb.Value == 0 {
				continue
			}
			rel := math.Inf(1)
			if va.Value != 0 {
				rel = (vb.Value - va.Value) / math.Abs(va.Value)
			}
			deltas = append(deltas, delta{wl.name, d.name, d.unit, va.Value, vb.Value, rel})
		}
	}
	sort.SliceStable(deltas, func(i, j int) bool { return math.Abs(deltas[i].rel) > math.Abs(deltas[j].rel) })
	fmt.Fprintf(w, "\n%-16s %-40s %14s %14s %9s\n", "workload", "per-layer metric", "A", "B", "change")
	for _, d := range deltas {
		fmt.Fprintf(w, "%-16s %-40s %14.6g %14.6g %+8.1f%% %s\n", d.workload, d.name, d.a, d.b, 100*d.rel, d.unit)
	}
	return nil
}
