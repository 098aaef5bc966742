package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	stdruntime "runtime"

	"repro/internal/act"
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/fleet"
	"repro/internal/hsmm"
	"repro/internal/meta"
	"repro/internal/obs"
	"repro/internal/runtime"
	ts "repro/internal/timeseries"
	"repro/internal/ubf"
)

// isolate runs the stage-isolation replays: the generated traces through
// one exported function of the product at a time. Each replay handles about
// sz.isoBudget operations; the values are set straight into out under the
// per-layer metric names.
func isolate(single *singleInputs, fl *fleetInputs, sz sizes, out *results) error {
	n := sz.isoBudget
	slices := min(n/sz.sliceLen, fl.slices)
	trace, err := runtime.ReadColumnar(bytes.NewReader(single.pfc1))
	if err != nil {
		return err
	}
	out.set("runtime.columnar.bytes_per_event", float64(len(single.pfc1))/float64(single.events))
	out.set("scp.sim_s_per_simday", single.simS/sz.singleDays)
	out.set("scp.multi_s_per_tenant_day", fl.simS/(float64(len(fl.ids))*sz.fleetSeconds/86400))
	for _, replay := range []func() error{
		func() error {
			return isolateWire(fl.recs[:slices*sz.sliceLen], fl.wire[:fl.wireCut[slices-1]], out)
		},
		func() error { return isolateFleet(fl, slices, sz, out) },
		func() error { return isolateRuntime(trace, n, out) },
		func() error { return isolateStores(single.models.trainLog, trace, n, out) },
		func() error { return isolateKernels(single.models, n, out) },
		func() error { return isolateCycleParts(n, out) },
	} {
		if err := replay(); err != nil {
			return err
		}
	}
	return nil
}

// isolateSink keeps the measured calls' results alive, so the compiler
// cannot remove the calls.
var isolateSink int

// isolateWire measures the three encodings of the fleet trace.
func isolateWire(recs []fleet.Record, wire []byte, out *results) error {
	// Wire bytes over loopback into Listen, records discarded, no fleet:
	// socket + decode + channel hand-off on their own.
	ls, err := fleet.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	sendErr := make(chan error, 1)
	mt := startMeter()
	go func() {
		conn, err := net.Dial("tcp", ls.Addr())
		if err == nil {
			_, err = conn.Write(wire)
			conn.Close()
		}
		sendErr <- err
	}()
	for i := 0; i < len(recs); i++ {
		if _, err := ls.Next(); err != nil {
			ls.Close()
			return err
		}
	}
	u := mt.stop()
	ls.Close()
	if err := <-sendErr; err != nil {
		return err
	}
	out.set("fleet.listen.only_cpu_ns_per_event", u.cpuNsPer(len(recs)))
	out.set("fleet.listen.only_events_per_s", float64(len(recs))/u.wall.Seconds())
	out.set("fleet.listen.only_allocs_per_event", u.allocsPer(len(recs)))

	// Decode without socket or channel.
	mt = startMeter()
	rd := fleet.NewReader(bytes.NewReader(wire))
	for i := 0; i < len(recs); i++ {
		if _, err := rd.Next(); err != nil {
			return err
		}
	}
	u = mt.stop()
	out.set("fleet.wire.decode_ns_per_event", u.nsPer(len(recs)))
	out.set("fleet.wire.decode_allocs_per_event", u.allocsPer(len(recs)))
	mt = startMeter()
	if err := fleet.WriteWire(io.Discard, recs); err != nil {
		return err
	}
	out.set("fleet.wire.encode_ns_per_event", mt.stop().nsPer(len(recs)))
	out.set("fleet.wire.bytes_per_event", float64(len(wire))/float64(len(recs)))

	// The text line protocol (the debug format; it has no e2e workload).
	var text bytes.Buffer
	if err := fleet.WriteTrace(&text, recs); err != nil {
		return err
	}
	mt = startMeter()
	tail := fleet.NewTailSource(bytes.NewReader(text.Bytes()))
	for i := 0; i < len(recs); i++ {
		if _, err := tail.Next(); err != nil {
			return err
		}
	}
	out.set("fleet.tail.parse_ns_per_event", mt.stop().nsPer(len(recs)))
	out.set("fleet.tail.bytes_per_event", float64(text.Len())/float64(len(recs)))

	return nil
}

// isolateFleet measures the fleet's routing, its queues with nothing behind
// them, its single-threaded baseline and its quiescent cycle.
func isolateFleet(fl *fleetInputs, slices int, sz sizes, out *results) error {
	ctx := context.Background()
	recs := fl.recs[:slices*sz.sliceLen]
	n := sz.isoBudget
	// Consistent-hash routing, and the fleet's queues with nothing behind
	// them (no-op Apply, no cycles) — what BenchmarkFleetThroughput times.
	fr, err := newFleetRun(fl, fleetOpts{mode: modeQuiet})
	if err != nil {
		return err
	}
	mt := startMeter()
	for _, r := range recs {
		if _, ok := fr.f.ShardOf(r.Event.Tenant); !ok {
			return errors.New("ShardOf: unknown tenant in the fleet trace")
		}
	}
	out.set("fleet.ring.route_ns_per_event", mt.stop().nsPer(len(recs)))
	quiet, err := runFleet(fl, sz, fleetOpts{mode: modeQuiet, slices: slices})
	if err != nil {
		return err
	}
	out.set("fleet.queue.noop_ns_per_event", quiet.use.nsPer(int(quiet.events)))

	// One inproc repetition at GOMAXPROCS 1: the single-threaded baseline.
	prev := stdruntime.GOMAXPROCS(1)
	one, err := runFleet(fl, sz, fleetOpts{mode: modeInproc, slices: slices})
	stdruntime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	out.set("scaling.gomaxprocs1_events_per_s", float64(one.events)/one.use.wall.Seconds())

	// Quiescent cycles over the whole fleet with the workload's layers and
	// ledger: the cost of EvaluateCycle when nothing contends for the lock.
	cyc, err := newFleetRun(fl, fleetOpts{mode: modeInproc})
	if err != nil {
		return err
	}
	if err := cyc.f.Start(ctx); err != nil {
		return err
	}
	if _, err := fleet.Pump(ctx, cyc.f, fleet.NewSliceSource(recs)); err != nil {
		return err
	}
	if err := cyc.f.Barrier(ctx); err != nil {
		return err
	}
	rounds := max(n/len(fl.ids)/4, 8)
	at := recs[len(recs)-1].Event.Time
	mt = startMeter()
	for i := 0; i < rounds; i++ {
		at += cadence
		cyc.cycle(at)
	}
	u := mt.stop()
	if err := cyc.f.Stop(ctx); err != nil {
		return err
	}
	out.set("fleet.cycle.ns_per_tenant", u.nsPer(rounds*len(fl.ids)))
	out.set("fleet.cycle.allocs_per_cycle", u.allocsPer(rounds))

	return nil
}

// isolateRuntime measures the single-tenant runtime's queue with nothing
// behind it — what BenchmarkRuntimeThroughput times — and its ring alone.
func isolateRuntime(trace *runtime.ColumnarTrace, n int, out *results) error {
	ctx := context.Background()
	nev := min(n, trace.Len())
	quietLayer := &core.Layer{Name: "quiet", Threshold: 1,
		Predictor: core.PredictorFunc(func(float64) (float64, error) { return 0, nil })}
	selector, err := act.NewSelector(act.DefaultWeights())
	if err != nil {
		return err
	}
	noop, err := act.New("noop", act.StateCleanup, act.Params{SuccessProb: 1}, func() error { return nil })
	if err != nil {
		return err
	}
	eng, err := core.New(nil, []*core.Layer{quietLayer}, nil, selector, []*act.Action{noop}, nil, pfmdEngine)
	if err != nil {
		return err
	}
	rt, err := runtime.New(runtime.Config{
		Engine: eng, Apply: func(runtime.Event) error { return nil },
		QueueCapacity: pfmdQueue, Tracer: obs.NewTracer(pfmdTraceCap),
	})
	if err != nil {
		return err
	}
	if err := rt.Start(ctx); err != nil {
		return err
	}
	mt := startMeter()
	for i := 0; i < nev; i++ {
		if err := rt.Ingest(ctx, trace.Event(i)); err != nil {
			return err
		}
	}
	if err := rt.Barrier(ctx); err != nil {
		return err
	}
	u := mt.stop()
	if err := rt.Stop(ctx); err != nil {
		return err
	}
	out.set("runtime.queue.noop_ns_per_event", u.nsPer(nev))

	ring := runtime.NewRing[runtime.Event](pfmdQueue, runtime.Block)
	drained := make(chan int)
	go func() {
		buf := make([]runtime.Event, 64)
		total := 0
		for {
			k := ring.Drain(buf)
			if k == 0 {
				break
			}
			ring.Settle(k)
			total += k
		}
		drained <- total
	}()
	mt = startMeter()
	for i := 0; i < nev; i++ {
		if err := ring.Push(ctx, trace.Event(i)); err != nil {
			return err
		}
	}
	ring.Close()
	if got := <-drained; got != nev {
		return errors.New("ring: drained fewer values than were pushed")
	}
	out.set("runtime.ring.push_drain_ns_per_event", mt.stop().nsPer(nev))

	return nil
}

// isolateStores measures the mirror's two stores: the event log over the
// training trace, a series over the single trace's mem_free samples.
func isolateStores(tlog *eventlog.Log, trace *runtime.ColumnarTrace, n int, out *results) error {
	nlog := min(n, tlog.Len())
	fresh := eventlog.NewLog()
	mt := startMeter()
	for i := 0; i < nlog; i++ {
		if err := fresh.Append(tlog.At(i)); err != nil {
			return err
		}
	}
	out.set("eventlog.append_ns_per_event", mt.stop().nsPer(nlog))
	horizon := tlog.TimeAt(tlog.Len() - 1)
	calls := n / 4
	step := horizon / float64(calls)
	mt = startMeter()
	sink := 0
	for i := 1; i <= calls; i++ {
		lo, hi := tlog.ScanWindow(float64(i)*step-600, float64(i)*step)
		sink += hi - lo
	}
	out.set("eventlog.scan_window_ns_per_call", mt.stop().nsPer(calls))
	var seq eventlog.Sequence
	mt = startMeter()
	for i := 1; i <= calls; i++ {
		eventlog.SlidingWindowInto(tlog, float64(i)*step, dataWindow, &seq)
		sink += seq.Len()
	}
	out.set("eventlog.sliding_window_ns_per_call", mt.stop().nsPer(calls))

	series := ts.New("mem_free")
	mt = startMeter()
	samples := 0
	for i := 0; i < trace.Len() && samples < n; i++ {
		if ev := trace.Event(i); ev.Kind == runtime.KindSample && ev.Variable == "mem_free" {
			if err := series.Append(ev.Time, ev.Value); err != nil {
				return err
			}
			samples++
		}
	}
	out.set("timeseries.append_ns_per_sample", mt.stop().nsPer(samples))
	last, _ := series.Last()
	calls = max(n/40, 8)
	step = last.T / float64(calls)
	mt = startMeter()
	for i := 1; i <= calls; i++ {
		if slope, _, err := series.Window(float64(i)*step-1200, float64(i)*step+1e-9).LinearTrend(); err == nil && slope > 0 {
			sink++
		}
	}
	out.set("timeseries.window_trend_ns_per_call", mt.stop().nsPer(calls))

	isolateSink += sink
	return nil
}

// isolateKernels measures the predictor kernels, scoring side first: the
// training trace's real windows and the training grid's real feature rows.
func isolateKernels(md *models, n int, out *results) error {
	tlog := md.trainLog
	horizon := tlog.TimeAt(tlog.Len() - 1)
	calls := max(n/20, 8)
	step := horizon / float64(calls)
	seqs := make([]eventlog.Sequence, calls)
	for i := range seqs {
		seqs[i] = eventlog.SlidingWindow(tlog, float64(i+1)*step, dataWindow)
	}
	scores := make([]float64, calls)
	mt := startMeter()
	if err := md.clf.ScoreAllInto(seqs, scores); err != nil {
		return err
	}
	out.set("hsmm.score_ns_per_seq", mt.stop().nsPer(calls))
	rowScores := make([]float64, md.trainX.Rows)
	passes := max(n/md.trainX.Rows/4, 1)
	mt = startMeter()
	for p := 0; p < passes; p++ {
		if err := md.net.PredictRowsInto(md.trainX, rowScores); err != nil {
			return err
		}
	}
	out.set("ubf.predict_ns_per_row", mt.stop().nsPer(passes*md.trainX.Rows))

	// The same kernels the other way round: what casestudy_train spends.
	mt = startMeter()
	if _, err := hsmm.TrainClassifier(md.fail, md.nonFail, hsmm.Config{States: 6, Seed: 1}); err != nil {
		return err
	}
	out.set("hsmm.fit_s", mt.stop().wall.Seconds())
	mt = startMeter()
	if _, err := ubf.Train(md.trainX, md.trainY, ubf.TrainConfig{NumKernels: 12, Candidates: 15, Refinements: 10, Seed: 1}); err != nil {
		return err
	}
	out.set("ubf.train_s", mt.stop().wall.Seconds())
	mt = startMeter()
	if _, _, err := eventlog.Extract(tlog, md.trainFailures, eventlog.ExtractConfig{
		DataWindow: dataWindow, LeadTime: leadTime, MinEvents: 2, NonFailureStride: 2 * dataWindow,
	}); err != nil {
		return err
	}
	out.set("eventlog.extract_ns_per_event", mt.stop().nsPer(tlog.Len()))

	return nil
}

// isolateCycleParts measures what a cycle costs besides its layers: core's
// batch evaluation and act decision over trivial layers, the combiner, the
// selector, the ledger, the product's tracer and the recorder.
func isolateCycleParts(n int, out *results) error {
	selector, err := act.NewSelector(act.DefaultWeights())
	if err != nil {
		return err
	}
	noop, err := act.New("noop", act.StateCleanup, act.Params{SuccessProb: 1}, func() error { return nil })
	if err != nil {
		return err
	}
	names := []string{"a", "b", "c", "d"}
	trivial := make([]*core.Layer, len(names))
	for i, name := range names {
		trivial[i] = &core.Layer{Name: name, Threshold: 1,
			Predictor: core.PredictorFunc(func(float64) (float64, error) { return 0.5, nil })}
	}
	eng, err := core.New(nil, trivial, nil, selector, []*act.Action{noop}, nil, pfmdEngine)
	if err != nil {
		return err
	}
	const batch = 64
	nows := make([]float64, batch)
	matrix := make([]float64, batch*len(trivial))
	rounds := max(n/batch/4, 1)
	mt := startMeter()
	for r := 0; r < rounds; r++ {
		for i := range nows {
			nows[i] = float64(r*batch+i) * cadence
		}
		eng.EvaluateLayersBatch(nows, matrix)
	}
	out.set("core.evaluate_batch_ns_per_cycle", mt.stop().nsPer(rounds*batch))
	sink := 0
	row := []float64{0.5, 0.5, 1.5, 0.5}
	calls := n / 4
	mt = startMeter()
	for i := 0; i < calls; i++ {
		row[2] = 0.5 + float64(i&1) // one cycle in two warns
		eng.ActOn(float64(i)*cadence, row)
	}
	out.set("core.act_ns_per_decision", mt.stop().nsPer(calls))
	stacker, err := meta.NewStacker(names, []float64{1, 1, 1, 1}, -4)
	if err != nil {
		return err
	}
	mt = startMeter()
	for i := 0; i < n; i++ {
		s, err := stacker.Score(row)
		if err != nil {
			return err
		}
		if s > 1 {
			sink++
		}
	}
	out.set("meta.stacker_ns_per_score", mt.stop().nsPer(n))
	actions := []*act.Action{noop}
	mt = startMeter()
	for i := 0; i < n; i++ {
		if _, _, ok, _ := selector.Select(actions, float64(i&1023)/1024); ok {
			sink++
		}
	}
	out.set("act.select_ns_per_call", mt.stop().nsPer(n))

	ledger, err := obs.NewLedger(obs.LedgerConfig{LeadTime: leadTime, Slack: slack}, names...)
	if err != nil {
		return err
	}
	calls = n / 8
	var recordNs, advanceNs int64
	rows := append(append([]string(nil), names...), obs.CombinedLayer)
	for i := 0; i < calls; i++ {
		at := float64(i) * cadence
		if i%100 == 99 {
			ledger.RecordFailure(at - 1)
		}
		t0 := nanos()
		for _, layer := range rows {
			ledger.RecordPrediction(layer, at, i%50 == 0, 0.5)
		}
		t1 := nanos()
		ledger.Advance(at)
		recordNs += t1 - t0
		advanceNs += nanos() - t1
	}
	out.set("obs.ledger.record_ns_per_row", float64(recordNs)/float64(calls*len(rows)))
	out.set("obs.ledger.advance_ns_per_call", float64(advanceNs)/float64(calls))
	otr := obs.NewTracer(pfmdTraceCap)
	mt = startMeter()
	for i := 0; i < n; i++ {
		stamp := otr.Now()
		otr.PublishApplied(uint8(runtime.KindSample), "load", 0, stamp, stamp, stamp, stamp)
	}
	out.set("obs.tracer.publish_ns_per_event", mt.stop().nsPer(n))
	recorder, err := obs.NewRecorder(obs.RecorderConfig{
		Layers: names, Window: 600, WarnThreshold: pfmdIncidentWarn, MaxBundles: pfmdIncidentCap,
		Log: eventlog.NewLog(), Tracer: otr, Ledger: ledger,
	})
	if err != nil {
		return err
	}
	versions := []uint64{1, 1, 1, 1}
	calls = n / 4
	mt = startMeter()
	for i := 0; i < calls; i++ {
		recorder.Observe(float64(i)*cadence, row, obs.CycleObservation{Confidence: 0.1, LayerVersions: versions})
	}
	out.set("obs.recorder.observe_ns_per_cycle", mt.stop().nsPer(calls))

	isolateSink += sink
	return nil
}
