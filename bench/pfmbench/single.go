package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	stdruntime "runtime"
	"sync/atomic"

	"repro/internal/act"
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/hsmm"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/scp"
	ts "repro/internal/timeseries"
	"repro/internal/ubf"
)

// pfmd's flag defaults, which the product configuration below mirrors
// (cmd/pfmd/main.go): -queue 4096, -trace-cap 256, -trace-sample
// obs.DefaultSampleInterval, -ledger-slack 300, -incident-cap 32,
// -incident-warn 0.5.
const (
	pfmdQueue        = 4096
	pfmdTraceCap     = 256
	pfmdIncidentCap  = 32
	pfmdIncidentWarn = 0.5
)

// pfmdEngine is pfmd's single-tenant engine configuration at the benchmark's
// cadence.
var pfmdEngine = core.Config{
	EvalInterval: cadence, LeadTime: leadTime, WarnThreshold: 0.2,
	OscillationWindow: 1800, MaxActionsPerWindow: 6,
}

// probeEvery is how many trace events separate two probes on single_replay.
const probeEvery = 64

// mirror is pfmd's predictor-visible state: the replayed error log and the
// eight SAR series the layers read.
type mirror struct {
	log *eventlog.Log
	sar map[string]*ts.Series
}

func newMirror() *mirror {
	m := &mirror{log: eventlog.NewLog(), sar: make(map[string]*ts.Series)}
	for _, name := range scp.SARVariables {
		m.sar[name] = ts.New(name)
	}
	return m
}

func (m *mirror) apply(ev runtime.Event) error {
	switch ev.Kind {
	case runtime.KindError:
		return m.log.Append(ev.Error)
	case runtime.KindSample:
		s, ok := m.sar[ev.Variable]
		if !ok {
			return fmt.Errorf("unknown variable %q", ev.Variable)
		}
		return s.Append(ev.Time, ev.Value)
	default:
		return fmt.Errorf("unknown event kind %d", ev.Kind)
	}
}

// calibrated is the scoring half of pfmd's calibrated layer predictor:
// score = raw/scale, with the raw signal captured into a bounded ring.
type calibrated struct {
	raw   func(now float64) (float64, error)
	scale float64
	ring  []float64
	next  int
}

func newCalibrated(raw func(now float64) (float64, error), scale float64) *calibrated {
	return &calibrated{raw: raw, scale: scale, ring: make([]float64, 0, 512)}
}

func (c *calibrated) Evaluate(now float64) (float64, error) {
	v, err := c.raw(now)
	if err != nil {
		return 0, err
	}
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		if len(c.ring) < cap(c.ring) {
			c.ring = append(c.ring, v)
		} else {
			c.ring[c.next] = v
		}
		c.next = (c.next + 1) % cap(c.ring)
	}
	return v / c.scale, nil
}

// seqPool hands the HSMM layer one reusable sequence buffer per evaluation
// time of a cycle batch (EvaluateBatch gathers every window before it
// scores, so the windows of one batch must not share storage). The driver
// rewinds it before each batch.
type seqPool struct {
	seqs []eventlog.Sequence
	next int
}

func (p *seqPool) take() *eventlog.Sequence {
	if p.next == len(p.seqs) {
		p.seqs = append(p.seqs, eventlog.Sequence{})
	}
	s := &p.seqs[p.next]
	p.next++
	return s
}

// layers builds single_replay's four layers over the mirror: the trained
// HSMM and UBF predictors plus pfmd's calibrated errors and memory layers.
func (m *mirror) layers(md *models, pool *seqPool) ([]*core.Layer, error) {
	hp, err := hsmm.NewPredictor(md.clf, func(now float64) (eventlog.Sequence, error) {
		s := pool.take()
		eventlog.SlidingWindowInto(m.log, now, dataWindow, s)
		return *s, nil
	}, nil, hsmm.Config{})
	if err != nil {
		return nil, err
	}
	series := make([]*ts.Series, len(ubfFeatures))
	for j, name := range ubfFeatures {
		series[j] = m.sar[name]
	}
	row := make([]float64, len(ubfFeatures))
	up, err := ubf.NewPredictor(md.net, func(now float64) ([]float64, error) {
		for j, s := range series {
			p, _ := s.Last()
			row[j] = (p.V - md.means[j]) / md.stds[j]
		}
		return row, nil
	}, nil, ubf.TrainConfig{})
	if err != nil {
		return nil, err
	}
	memFloor := 2 * scp.DefaultConfig().SwapThreshold
	rawErrors := func(now float64) (float64, error) {
		lo, hi := m.log.ScanWindow(now-600, now+1e-9)
		return float64(hi-lo) / 600, nil
	}
	rawMemory := func(now float64) (float64, error) {
		w := m.sar["mem_free"].Window(now-1200, now+1e-9)
		if w.Len() < 3 {
			return 0, nil
		}
		slope, _, err := w.LinearTrend()
		if err != nil {
			return 0, nil
		}
		score := -slope
		if v, ok := w.Last(); ok && v.V < memFloor {
			score += 1
		}
		return score, nil
	}
	return []*core.Layer{
		{Name: "hsmm", Predictor: hp, Threshold: md.clf.Threshold},
		{Name: "ubf", Predictor: up, Threshold: md.ubfThreshold},
		{Name: "errors", Predictor: newCalibrated(rawErrors, 0.05), Threshold: 1},
		{Name: "memory", Predictor: newCalibrated(rawMemory, 0.1), Threshold: 1},
	}, nil
}

// singleOpts selects the variant of one single_replay repetition.
type singleOpts struct {
	tr      *tracer // non-nil: the traced run
	serial  bool    // serial reference: BatchSize 1, one EvaluateNow per cycle
	horizon float64 // replay only events before this time (0 = whole trace)
}

// runSingle replays the PFC1 bytes through a runtime wired as pfmd
// -replay-columnar wires it: mirror log and series, Barrier + CycleBatch at
// the domain cadence, tracer at the default sampling, ledger, recorder.
func runSingle(in *singleInputs, o singleOpts) (*rep, error) {
	m := newMirror()
	pool := &seqPool{}
	layers, err := m.layers(in.models, pool)
	if err != nil {
		return nil, err
	}
	var cycleID atomic.Uint64
	var stIngest, stApp, stBar, stCyc, stDec, stAc *stage
	if o.tr != nil {
		for _, l := range layers {
			l.Predictor = wrapPredictor(o.tr, l.Name, l.Predictor, &cycleID)
		}
		stDec = o.tr.stage(stDecode, "")
		stIngest = o.tr.stage(stRIngest, "")
		stApp = o.tr.stage(stApply, stRIngest)
		stBar = o.tr.stage(stBarrier, "")
		stCyc = o.tr.stage(stCycle, "")
		stAc = o.tr.stage(stAct, stCycle)
	}
	execute := func() error { return nil }
	if o.tr != nil {
		execute = func() error {
			if id := cycleID.Load(); o.tr.cycleSampled(id) {
				t0 := nanos()
				stAc.add(id, t0, nanos(), 1)
			}
			return nil
		}
	}
	action, err := act.New("mitigate+prepare", act.PreparedRepair,
		act.Params{Cost: 0.5, SuccessProb: 0.85, Complexity: 0.3}, execute)
	if err != nil {
		return nil, err
	}
	selector, err := act.NewSelector(act.DefaultWeights())
	if err != nil {
		return nil, err
	}
	engine, err := core.New(nil, layers, nil, selector, []*act.Action{action}, nil, pfmdEngine)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(layers))
	for i, l := range layers {
		names[i] = l.Name
	}
	ledger, err := obs.NewLedger(obs.LedgerConfig{LeadTime: leadTime, Slack: slack}, names...)
	if err != nil {
		return nil, err
	}
	otr := obs.NewTracer(pfmdTraceCap)
	otr.SetSampleInterval(obs.DefaultSampleInterval)
	recorder, err := obs.NewRecorder(obs.RecorderConfig{
		Layers: names, Window: 600, WarnThreshold: pfmdIncidentWarn, MaxBundles: pfmdIncidentCap,
		Log: m.log, Tracer: otr, Ledger: ledger, RuntimeStats: true,
	})
	if err != nil {
		return nil, err
	}

	nProbes := in.events/probeEvery + 1
	sendNs := make([]int64, nProbes)
	applyNs := make([]int64, nProbes)
	// Apply is pfmd's mirror.apply behind the probe stamp; the traced run
	// adds a span around the sampled events.
	apply := func(ev runtime.Event) error {
		if ev.Kind == runtime.KindSample && ev.Variable == probeVar {
			applyNs[int(ev.Value)] = nanos()
			return nil
		}
		if stApp != nil {
			if id := eventID(ev.Time, ev.Value); sampled(id) {
				t0 := nanos()
				err := m.apply(ev)
				stApp.add(id, t0, nanos(), 1)
				return err
			}
		}
		return m.apply(ev)
	}
	var simNow atomic.Uint64
	cfg := runtime.Config{
		Engine: engine, Apply: apply,
		Clock:         func() float64 { return math.Float64frombits(simNow.Load()) },
		QueueCapacity: pfmdQueue, Overflow: runtime.Block,
		Tracer: otr, Ledger: ledger, Recorder: recorder,
	}
	if o.serial {
		cfg.BatchSize = 1
	}
	rt, err := runtime.New(cfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	heap0 := heapAfterGC()
	if err := rt.Start(ctx); err != nil {
		return nil, err
	}

	r := &rep{}
	mt := startMeter()
	t0 := nanos()
	trace, err := runtime.ReadColumnar(bytes.NewReader(in.pfc1))
	if err != nil {
		return nil, err
	}
	if o.tr != nil {
		stDec.add(0, t0, nanos(), trace.Len())
	}
	nErrors, _ := trace.CountKinds()
	m.log.Grow(nErrors)

	n := trace.Len()
	if o.horizon > 0 {
		for n > 0 && trace.Times[n-1] >= o.horizon {
			n--
		}
	}
	cycles := make([]float64, 0, 1024)
	flush := func() error {
		if len(cycles) == 0 {
			return nil
		}
		tb := nanos()
		if err := rt.Barrier(ctx); err != nil {
			return err
		}
		tc := nanos()
		id := cycleID.Add(1)
		pool.next = 0
		if o.serial {
			for _, at := range cycles {
				pool.next = 0
				simNow.Store(math.Float64bits(at))
				target := rt.Cycles() + 1
				rt.EvaluateNow()
				for rt.Cycles() < target {
					stdruntime.Gosched()
				}
			}
		} else {
			simNow.Store(math.Float64bits(cycles[len(cycles)-1]))
			rt.CycleBatch(cycles)
		}
		te := nanos()
		if o.tr != nil && o.tr.cycleSampled(id) {
			stBar.add(id, tb, tc, len(cycles))
			stCyc.add(id, tc, te, len(cycles))
		}
		r.cycleUs = append(r.cycleUs, float64(te-tc)/1e3/float64(len(cycles)))
		cycles = cycles[:0]
		return nil
	}
	recordFailure := ledger.RecordFailure
	fi, probes := 0, 0
	next := math.Inf(1)
	if n > 0 {
		next = trace.Times[0] + cadence
	}
	for i := 0; i < n; i++ {
		t := trace.Times[i]
		for next <= t {
			for fi < len(trace.Failures) && trace.Failures[fi] <= next {
				if err := flush(); err != nil {
					return nil, err
				}
				recordFailure(trace.Failures[fi])
				fi++
			}
			cycles = append(cycles, next)
			next += cadence
		}
		if err := flush(); err != nil {
			return nil, err
		}
		for fi < len(trace.Failures) && trace.Failures[fi] <= t {
			recordFailure(trace.Failures[fi])
			fi++
		}
		simNow.Store(math.Float64bits(t))
		if i%probeEvery == 0 {
			sendNs[probes] = nanos()
			if err := rt.Ingest(ctx, runtime.Event{
				Kind: runtime.KindSample, Time: t, Variable: probeVar, Value: float64(probes),
			}); err != nil {
				return nil, err
			}
			probes++
		}
		ev := trace.Event(i)
		if o.tr != nil {
			if id := eventID(ev.Time, ev.Value); sampled(id) {
				ti := nanos()
				err := rt.Ingest(ctx, ev)
				stIngest.add(id, ti, nanos(), 1)
				if err != nil {
					return nil, err
				}
				continue
			}
		}
		if err := rt.Ingest(ctx, ev); err != nil {
			return nil, err
		}
	}
	for fi < len(trace.Failures) && (o.horizon == 0 || trace.Failures[fi] < o.horizon) {
		recordFailure(trace.Failures[fi])
		fi++
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if err := rt.Barrier(ctx); err != nil {
		return nil, err
	}
	if err := r.finish(mt, heap0, rt.Stop); err != nil {
		return nil, err
	}
	stdruntime.KeepAlive(trace)

	mm := rt.Metrics()
	r.attempt = int64(n + probes)
	r.events = mm.Applied.Value()
	r.cycles = rt.Cycles()
	missing := int64(0)
	for i := 0; i < probes; i++ {
		if applyNs[i] == 0 {
			missing++
			continue
		}
		r.applyUs = append(r.applyUs, float64(applyNs[i]-sendNs[i])/1e3)
	}
	r.account(mm, missing, fmt.Sprintf("missing probes %d", missing))
	r.quality = ledger.Cumulative(obs.CombinedLayer).FMeasure()
	r.fingerprint = fmt.Sprintf("%+v evaluations=%d warnings=%d actions=%d suppressed=%d",
		ledger.Snapshot(), mm.Evaluations.Value(), mm.Warnings.Value(), mm.Actions.Value(), mm.Suppressed.Value())
	return r, nil
}
