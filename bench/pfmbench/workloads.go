package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/experiments"
	"repro/internal/runtime"
)

// rep is what one repetition of any workload measured.
type rep struct {
	events   int64 // events applied
	attempt  int64 // records offered to the product
	failed   int64 // dropped + apply/decode errors + rejected + missing probes
	use      usage // timed section, state measurement excluded
	stateMB  float64
	applyUs  []float64 // probe latencies
	cycleUs  []float64 // per-cycle evaluation wall time
	decideMs []float64 // probe → end of the first cycle started after apply
	lateUs   []float64 // generator lateness (open loop)
	depthMax int
	cycles   int64
	// fingerprint covers everything that must repeat exactly: ledger
	// tables, pipeline counters and, on the fleet, per-tenant counts.
	fingerprint string
	// quality is the F-measure of the combined decision on the streaming
	// workloads and the HSMM predictor's AUC on casestudy_train.
	quality  float64
	problems []string
}

// finish ends a repetition's timed section once ingest has drained: usage
// up to here, the product's state after a forced GC (outside the timing),
// then the product's Stop, whose wall time — the final cycle — is added back.
func (r *rep) finish(mt meter, heap0 uint64, stop func(context.Context) error) error {
	r.use = mt.stop()
	r.stateMB = (float64(heapAfterGC()) - float64(heap0)) / 1e6
	stopAt := nanos()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := stop(ctx); err != nil {
		return fmt.Errorf("stop: %w", err)
	}
	r.use.wall += time.Duration(nanos() - stopAt)
	return nil
}

// account settles r.failed from the pipeline's counters plus the failures
// only the harness can see (other, spelled out in detail), and checks the
// conservation law ingested = applied + dropped.
func (r *rep) account(mm *runtime.Metrics, other int64, detail string) {
	r.failed = mm.Dropped() + mm.ApplyErrors.Value() + (r.attempt - mm.Ingested.Value()) + other
	if mm.Ingested.Value() != mm.Applied.Value()+mm.Dropped() {
		r.problems = append(r.problems, fmt.Sprintf("conservation: ingested %d != applied %d + dropped %d",
			mm.Ingested.Value(), mm.Applied.Value(), mm.Dropped()))
	}
	if r.failed != 0 {
		r.problems = append(r.problems, fmt.Sprintf("failed records: dropped %d, apply errors %d, ingested %d of %d, %s",
			mm.Dropped(), mm.ApplyErrors.Value(), mm.Ingested.Value(), r.attempt, detail))
	}
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// build makes the workload's inputs from the seed; its wall time is
	// setup_s.
	build func(seed int64, sz sizes) (any, error)
	// run performs one repetition. window is the wall budget of an
	// open-loop repetition; closed-loop and batch workloads ignore it.
	run func(in any, sz sizes, tr *tracer, window time.Duration) (*rep, error)
	// minReps is the fewest repetitions a value may be the median of.
	minReps int
	// exact says every repetition must produce the same fingerprint.
	exact bool
	// cycleMask thins the traced run's cycle-level spans (see tracer).
	cycleMask uint64
	// verify runs the workload's own output checks once, after the
	// repetitions.
	verify func(in any, sz sizes, reps []*rep, out *results) error
}

var workloads = []workload{
	{
		name: "single_replay", minReps: 3, exact: true, cycleMask: 15,
		build: func(seed int64, sz sizes) (any, error) { return buildSingle(seed, sz) },
		run: func(in any, _ sizes, tr *tracer, _ time.Duration) (*rep, error) {
			return runSingle(in.(*singleInputs), singleOpts{tr: tr})
		},
		verify: verifySingle,
	},
	{
		name: "fleet_tcp", minReps: 3, exact: true,
		build:  func(seed int64, sz sizes) (any, error) { return buildFleet(seed, sz) },
		run:    fleetRunner(modeTCP),
		verify: verifyFleetParity(modeInproc),
	},
	{
		name: "fleet_inproc", minReps: 3, exact: true,
		build:  func(seed int64, sz sizes) (any, error) { return buildFleet(seed, sz) },
		run:    fleetRunner(modeInproc),
		verify: verifyFleetParity(modeTCP),
	},
	{
		name: "fleet_paced", minReps: 10,
		build: func(seed int64, sz sizes) (any, error) { return buildFleet(seed, sz) },
		run:   fleetRunner(modePaced),
	},
	{
		name: "casestudy_train", minReps: 5, exact: true,
		build:  buildCase,
		run:    runCase,
		verify: verifyCase,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func fleetRunner(mode fleetMode) func(any, sizes, *tracer, time.Duration) (*rep, error) {
	return func(in any, sz sizes, tr *tracer, window time.Duration) (*rep, error) {
		o := fleetOpts{mode: mode, tr: tr}
		if mode == modePaced {
			o.slices = max(int(window.Nanoseconds()/pacedSliceNs), 1)
		}
		return runFleet(in.(*fleetInputs), sz, o)
	}
}

// verifySingle replays the first prefixDays both ways — batched as the
// workload runs it, and through a serial reference (BatchSize 1, one
// EvaluateNow per cycle) — and requires the same ledger body; it also holds
// the combined decision's F-measure to its sanity floor.
func verifySingle(in any, sz sizes, reps []*rep, out *results) error {
	si := in.(*singleInputs)
	horizon := sz.prefixDays * 86400
	batched, err := runSingle(si, singleOpts{horizon: horizon})
	if err != nil {
		return err
	}
	serial, err := runSingle(si, singleOpts{horizon: horizon, serial: true})
	if err != nil {
		return err
	}
	if batched.fingerprint != serial.fingerprint {
		out.problem("serial reference over the first %g days disagrees with the batched run:\nserial:  %s\nbatched: %s",
			sz.prefixDays, serial.fingerprint, batched.fingerprint)
	}
	if f1 := reps[0].quality; !(f1 >= sz.f1Floor) {
		out.problem("f1_combined %.4f is below the sanity floor", f1)
	}
	return nil
}

// verifyFleetParity runs one repetition over the other closed-loop path and
// requires exact agreement on ledger tables and per-tenant counts.
func verifyFleetParity(other fleetMode) func(any, sizes, []*rep, *results) error {
	return func(in any, sz sizes, reps []*rep, out *results) error {
		ref, err := runFleet(in.(*fleetInputs), sz, fleetOpts{mode: other})
		if err != nil {
			return err
		}
		out.Problems = append(out.Problems, ref.problems...)
		if ref.fingerprint != reps[0].fingerprint {
			out.problem("TCP and in-process paths disagree on ledger tables or per-tenant counts:\n%s",
				firstDifference(reps[0].fingerprint, ref.fingerprint))
		}
		return nil
	}
}

// firstDifference names the first line two fingerprints differ on.
func firstDifference(a, b string) string {
	line, start := 1, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			end := i
			for end < len(a) && a[end] != '\n' {
				end++
			}
			return fmt.Sprintf("line %d: %q ...", line, a[start:end])
		}
		if a[i] == '\n' {
			line, start = line+1, i+1
		}
	}
	return fmt.Sprintf("lengths %d and %d", len(a), len(b))
}

// caseInputs is casestudy_train's input: the job's configuration and the
// size of the trace it will simulate and consume.
type caseInputs struct {
	cfg    experiments.CaseStudyConfig
	events int
}

// buildCase simulates the job's trace once, only to count its events.
func buildCase(seed int64, sz sizes) (any, error) {
	cfg := experiments.DefaultCaseStudyConfig()
	cfg.Seed, cfg.TrainDays, cfg.TestDays = seed, sz.caseTrain, sz.caseTest
	sys, err := simulate(seed, cfg.TrainDays+cfg.TestDays)
	if err != nil {
		return nil, err
	}
	series, err := sarSeries(sys)
	if err != nil {
		return nil, err
	}
	events := sys.Log().Len()
	for _, s := range series {
		events += s.Len()
	}
	return &caseInputs{cfg: cfg, events: events}, nil
}

// runCase runs the Sect. 3.3 case study start to finish: simulate, extract,
// fit both predictors and every baseline, score the test grid.
func runCase(in any, _ sizes, _ *tracer, _ time.Duration) (*rep, error) {
	ci := in.(*caseInputs)
	mt := startMeter()
	res, err := experiments.RunCaseStudy(ci.cfg)
	u := mt.stop()
	if err != nil {
		return nil, err
	}
	r := &rep{events: int64(ci.events), attempt: int64(ci.events), use: u}
	// A batch job applies no events and runs no cycles: the four streaming
	// timings report the job's own wall time, and state_mb what it allocated.
	jobUs := float64(u.wall) / 1e3
	r.applyUs, r.cycleUs = []float64{jobUs}, []float64{jobUs}
	r.stateMB = float64(u.bytes) / 1e6
	for _, p := range res.Predictors {
		r.fingerprint += fmt.Sprintf("%s auc=%v threshold=%v table=%+v\n", p.Name, p.AUC, p.Threshold, p.Table)
	}
	if h, ok := res.ByName("HSMM"); ok {
		r.quality = h.AUC
	}
	return r, nil
}

func verifyCase(_ any, sz sizes, reps []*rep, out *results) error {
	if auc := reps[0].quality; !(auc >= sz.aucFloor) {
		out.problem("hsmm_auc %.4f is below the sanity floor", auc)
	}
	return nil
}

// measure repeats the workload until seconds have passed and minReps are
// done, and returns the repetitions.
func measure(w workload, in any, sz sizes, tr *tracer, seconds float64, minReps int) ([]*rep, error) {
	window := time.Duration(seconds / float64(minReps) * float64(time.Second))
	var reps []*rep
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		r, err := w.run(in, sz, tr, window)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, len(reps)+1, err)
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// check folds the repetitions' own findings into out and applies the
// checks every workload shares.
func check(w workload, in any, sz sizes, reps []*rep, out *results) error {
	for i, r := range reps {
		out.Attempted += r.attempt
		out.Failed += r.failed
		for _, p := range r.problems {
			out.problem("repetition %d: %s", i+1, p)
		}
		if w.exact && r.fingerprint != reps[0].fingerprint {
			out.problem("repetition %d differs from repetition 1:\n%s", i+1, firstDifference(reps[0].fingerprint, r.fingerprint))
		}
	}
	if w.verify != nil {
		return w.verify(in, sz, reps, out)
	}
	return nil
}

// perRep collects one number from every repetition.
func perRep(reps []*rep, f func(*rep) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

// quantileOfReps returns each repetition's p-quantile of a timing (nearest
// rank over however many samples the repetition has: 3860 probes and 28.8 k
// cycles on single_replay, 2080 probes and 60 cycles on a closed-loop fleet
// repetition, 1000 and 100 on a paced one, one job on casestudy_train).
func quantileOfReps(reps []*rep, samples func(*rep) []float64, p float64) []float64 {
	return perRep(reps, func(r *rep) float64 { return percentile(samples(r), p) })
}

// runUntraced is the end-to-end run: set up at least three times (setup_s is
// the median), measure with tracing off, check, and report the counts as the
// median over repetitions and the timings as the repetitions' best decile
// (see results.setBest).
func runUntraced(w workload, seed int64, seconds float64, sz sizes) (*results, error) {
	out := newResults(w.name, seed, false)
	var in any
	var setups []float64
	// At least three set-ups, and more while they are cheap: the case
	// study's takes a tenth of a second, too short for a median of three.
	for start := time.Now(); len(setups) < 3 || (time.Since(start) < time.Second && len(setups) < 15); {
		t0 := time.Now()
		built, err := w.build(seed, sz)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		in = built
	}
	out.setSamples("setup_s", setups)
	reps, err := measure(w, in, sz, nil, seconds, min(w.minReps, sz.maxMinReps))
	if err != nil {
		return nil, err
	}
	if err := check(w, in, sz, reps, out); err != nil {
		return nil, err
	}
	out.setBest("events_per_s", perRep(reps, func(r *rep) float64 { return float64(r.events) / r.use.wall.Seconds() }))
	out.setSamples("allocs_per_event", perRep(reps, func(r *rep) float64 { return r.use.allocsPer(int(r.events)) }))
	out.setSamples("state_mb", perRep(reps, func(r *rep) float64 { return r.stateMB }))
	applyUs := func(r *rep) []float64 { return r.applyUs }
	cycleUs := func(r *rep) []float64 { return r.cycleUs }
	out.setBest("apply_latency_p50_us", quantileOfReps(reps, applyUs, 0.50))
	out.setBest("cycle_p50_us", quantileOfReps(reps, cycleUs, 0.50))
	out.finish()
	return out, nil
}

// runTraced is the per-layer run: traced repetitions, each beside an
// untraced one for the overhead baseline, then the stage-isolation replays
// and whole-job figures, which are the same whatever the workload.
func runTraced(w workload, seed int64, seconds float64, sz sizes, spansFile string, jobs *wholeJobs) (*results, error) {
	out := newResults(w.name, seed, true)
	in, err := w.build(seed, sz)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	// Untraced and traced repetitions alternate, so that drift in the
	// machine's speed lands on both sides of trace.overhead_pct alike.
	tr := newTracer(w.cycleMask)
	var plain, reps []*rep
	window := time.Duration(seconds / 4 * float64(time.Second))
	for start := time.Now(); len(reps) < 2 || time.Since(start).Seconds() < seconds; {
		p, err := w.run(in, sz, nil, window)
		if err != nil {
			return nil, fmt.Errorf("%s untraced repetition: %w", w.name, err)
		}
		r, err := w.run(in, sz, tr, window)
		if err != nil {
			return nil, fmt.Errorf("%s traced repetition: %w", w.name, err)
		}
		plain, reps = append(plain, p), append(reps, r)
	}
	if err := check(w, in, sz, reps, out); err != nil {
		return nil, err
	}
	if spansFile != "" {
		if err := tr.writeFile(spansFile); err != nil {
			return nil, err
		}
	}

	var events, cycles float64
	for _, r := range reps {
		events += float64(r.events)
		cycles += float64(r.cycles)
	}
	// Cycle-level stages divide by the cycles whose spans were recorded.
	spanned := float64(tr.stage(stCycle, "").units.Load())
	perCycle := func(name string) float64 {
		if spanned == 0 {
			return 0
		}
		return tr.total(name) / spanned
	}
	out.set("runtime.columnar.decode_ns_per_event", tr.perUnit(stDecode))
	out.set("fleet.listen.next_ns_per_event", tr.perUnit(stNext))
	out.set("fleet.ingest.call_ns_per_event", tr.perUnit(stFIngest))
	out.set("runtime.ingest.call_ns_per_event", tr.perUnit(stRIngest))
	out.set("apply.busy_ns_per_event", tr.perUnit(stApply))
	out.set("barrier.wait_ns_per_cycle", perCycle(stBarrier))
	out.set("cycle.total_ns_per_cycle", perCycle(stCycle))
	layers := 0.0
	for _, l := range []string{"hsmm", "ubf", "errors", "memory", "load"} {
		out.set("layer."+l+".busy_ns_per_cycle", perCycle(stLayer(l)))
		layers += perCycle(stLayer(l))
	}
	out.set("cycle.overhead_ns_per_cycle", perCycle(stCycle)-layers)
	out.set("act.busy_ns_per_action", tr.perUnit(stAct))

	var decide, late []float64
	depth := 0
	for _, r := range reps {
		decide = append(decide, r.decideMs...)
		late = append(late, r.lateUs...)
		depth = max(depth, r.depthMax)
	}
	out.set("fleet.decision_latency_p50_ms", percentile(decide, 0.50))
	out.set("fleet.decision_latency_p99_ms", percentile(decide, 0.99))
	out.set("gen.late_p99_us", percentile(late, 0.99))
	out.set("gen.late_max_us", percentile(late, 1))
	out.set("queue.depth_max", float64(depth))

	// Reconciliation is against CPU time, not wall: producer and consumers
	// overlap on two cores.
	cpu := median(perRep(reps, func(r *rep) float64 { return r.use.cpuNsPer(int(r.events)) }))
	attributed := tr.perUnit(stDecode) + tr.perUnit(stNext) + tr.perUnit(stFIngest) +
		tr.perUnit(stRIngest) + tr.perUnit(stApply)
	if events > 0 {
		attributed += (perCycle(stBarrier) + perCycle(stCycle)) * cycles / events
	}
	out.set("cpu.ns_per_event", cpu)
	out.set("cpu.unattributed_ns_per_event", cpu-attributed)
	wall := func(r *rep) float64 { return r.use.wall.Seconds() / float64(r.events) }
	// Fastest traced repetition against fastest untraced.
	out.set("trace.overhead_pct", 100*(slices.Min(perRep(reps, wall))/slices.Min(perRep(plain, wall))-1))
	out.set("failed_share", float64(out.Failed)/float64(out.Attempted))
	out.setBest("apply_latency_p99_us", quantileOfReps(plain, func(r *rep) []float64 { return r.applyUs }, 0.99))
	out.setBest("cycle_p99_us", quantileOfReps(plain, func(r *rep) []float64 { return r.cycleUs }, 0.99))

	if err := jobs.report(w, in, seed, sz, reps, out); err != nil {
		return nil, err
	}
	out.finish()
	return out, nil
}

// wholeJobs holds the metrics that do not depend on the traced workload:
// the stage-isolation replays over both traces, f1_combined from one
// single_replay repetition, and casestudy_s and hsmm_auc from one job. They
// are measured by the first traced run of the process and reported by all.
type wholeJobs struct {
	values *results
}

// report measures the whole-job metrics if this process has not yet, reusing
// the traced workload's own inputs and repetitions where they fit, and
// copies them into out.
func (j *wholeJobs) report(w workload, in any, seed int64, sz sizes, reps []*rep, out *results) error {
	if j.values == nil {
		vals := newResults("", seed, true)
		if err := measureWholeJobs(w, in, seed, sz, reps, vals); err != nil {
			return err
		}
		j.values = vals
	}
	out.Problems = append(out.Problems, j.values.Problems...)
	for name, v := range j.values.Metrics {
		out.Metrics[name] = v
	}
	return nil
}

func measureWholeJobs(w workload, in any, seed int64, sz sizes, reps []*rep, out *results) error {
	single, _ := in.(*singleInputs)
	fl, _ := in.(*fleetInputs)
	var err error
	if single == nil {
		if single, err = buildSingle(seed, sz); err != nil {
			return err
		}
	}
	if fl == nil {
		if fl, err = buildFleet(seed, sz); err != nil {
			return err
		}
	}
	if err := isolate(single, fl, sz, out); err != nil {
		return fmt.Errorf("stage isolation: %w", err)
	}
	one := reps[0]
	if w.name != "single_replay" {
		if one, err = runSingle(single, singleOpts{}); err != nil {
			return err
		}
	}
	out.set("f1_combined", one.quality)
	job := reps[0]
	if w.name != "casestudy_train" {
		ci, err := buildCase(seed, sz)
		if err != nil {
			return err
		}
		if job, err = runCase(ci, sz, nil, 0); err != nil {
			return err
		}
	}
	out.set("casestudy_s", job.use.wall.Seconds())
	out.set("hsmm_auc", job.quality)
	return nil
}
