package main

import (
	"bytes"
	"fmt"
	"math"
	stdruntime "runtime"

	"repro/internal/eventlog"
	"repro/internal/fleet"
	"repro/internal/hsmm"
	"repro/internal/mat"
	"repro/internal/predict"
	"repro/internal/runtime"
	"repro/internal/scp"
	ts "repro/internal/timeseries"
	"repro/internal/ubf"
)

// sizes fixes how much work each input holds. Every value is a constant of
// the benchmark, not an option: full is what BENCHMARK.json measures, quick
// is the seconds-scale shrink the test drives.
type sizes struct {
	singleDays   float64 // single-tenant trace horizon [sim days]
	trainDays    float64 // training trace horizon [sim days]
	prefixDays   float64 // serial-reference prefix [sim days]
	tenants      int     // fleet size
	fleetSeconds float64 // fleet trace horizon [sim s]
	sliceLen     int     // records per wire slice (one probe + trace records)
	caseTrain    float64 // RunCaseStudy TrainDays
	caseTest     float64 // RunCaseStudy TestDays
	isoBudget    int     // operations per stage-isolation replay
	maxMinReps   int     // cap on a workload's minimum repetitions

	// Sanity floors, far enough below what the product scores that only a
	// broken pipeline trips them. The combined decision's F-measure is 0.26
	// to 0.28 on the full single_replay (the HSMM layer alone scores 0.7, but
	// pfmd's hand-tuned memory layer warns on a quarter of all cycles and any
	// one layer suffices), so its floor is 0.2, not the 0.3 the issue guessed;
	// models trained on the quick run's three days score lower still.
	f1Floor, aucFloor float64
}

var (
	fullSizes = sizes{
		singleDays: 20, trainDays: 30, prefixDays: 5,
		tenants: 1000, fleetSeconds: 3600, sliceLen: 250,
		caseTrain: 28, caseTest: 14, isoBudget: 400000, maxMinReps: 10,
		f1Floor: 0.2, aucFloor: 0.7,
	}
	quickSizes = sizes{
		singleDays: 0.5, trainDays: 3, prefixDays: 0.25,
		tenants: 20, fleetSeconds: 600, sliceLen: 25,
		caseTrain: 2, caseTest: 1, isoBudget: 2000, maxMinReps: 2,
		f1Floor: 0.05, aucFloor: 0.6,
	}
)

const (
	// cadence is the domain-time MEA cadence of the closed-loop workloads.
	cadence = 60.0
	// dataWindow Δtd and leadTime Δtl are the paper's five minutes.
	dataWindow = 300.0
	leadTime   = 300.0
	slack      = 300.0
	// pacedSlice is the wall period of one open-loop slice; with sliceLen
	// 250 the offered rate is 250 000 events/s.
	pacedSliceNs = int64(1e6)
	// pacedCycleEvery is the wall cadence of EvaluateCycle under paced load.
	pacedCycleNs = int64(10e6)
	probeVar     = "probe"
)

// ubfFeatures are the SAR variables the online UBF layer reads (the
// slow-call fraction is the regression target, as in the case study).
var ubfFeatures = []string{"load", "cpu", "mem_free", "swap", "queue", "semops", "err_rate"}

// models are the trained predictors single_replay scores with.
type models struct {
	clf          *hsmm.Classifier // Threshold calibrated on the training grid
	net          *ubf.Network
	ubfThreshold float64
	means, stds  []float64 // standardization of the UBF feature columns

	// Kept for the training-side isolation replays.
	fail, nonFail []eventlog.Sequence
	trainX        *mat.Matrix
	trainY        []float64
	trainLog      *eventlog.Log
	trainFailures []float64
}

// singleInputs is everything single_replay needs.
type singleInputs struct {
	pfc1   []byte
	events int
	models *models
	simS   float64 // wall seconds the simulator took, for scp.sim_s_per_simday
}

func simulate(seed int64, days float64) (*scp.System, error) {
	cfg := scp.DefaultConfig()
	cfg.Seed = seed
	sys, err := scp.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.Run(days * 86400); err != nil {
		return nil, err
	}
	return sys, nil
}

// sarSeries returns the simulator's SAR series in scp.SARVariables order.
func sarSeries(sys *scp.System) ([]*ts.Series, error) {
	out := make([]*ts.Series, len(scp.SARVariables))
	for j, name := range scp.SARVariables {
		s, err := sys.SAR(name)
		if err != nil {
			return nil, err
		}
		out[j] = s
	}
	return out, nil
}

// buildColumnar merges the error log and SAR rows into one time-ordered
// PFC1 trace, errors before samples at equal timestamps — the order
// loggen -columnar writes and the live feeder emits.
func buildColumnar(sys *scp.System) (*runtime.ColumnarTrace, error) {
	series, err := sarSeries(sys)
	if err != nil {
		return nil, err
	}
	log := sys.Log()
	rows := series[0].Len()
	b := runtime.NewColumnarBuilder()
	b.Grow(log.Len() + rows*len(series))
	ei := 0
	for i := 0; i < rows; i++ {
		t := series[0].At(i).T
		for ; ei < log.Len() && log.TimeAt(ei) <= t; ei++ {
			if err := b.AddError(log.At(ei)); err != nil {
				return nil, err
			}
		}
		for j, s := range series {
			p := s.At(i)
			if p.T != t {
				return nil, fmt.Errorf("SAR series %s not aligned at row %d", scp.SARVariables[j], i)
			}
			if err := b.AddSample(t, scp.SARVariables[j], p.V); err != nil {
				return nil, err
			}
		}
	}
	for ; ei < log.Len(); ei++ {
		if err := b.AddError(log.At(ei)); err != nil {
			return nil, err
		}
	}
	for _, f := range sys.FailureTimes() {
		if err := b.AddFailure(f); err != nil {
			return nil, err
		}
	}
	return b.Trace(), nil
}

// labelAt reports whether a failure falls in (t, t+Δtl+slack].
func labelAt(failures []float64, t float64) bool {
	for _, f := range failures {
		if f > t && f <= t+leadTime+slack {
			return true
		}
	}
	return false
}

// trainModels fits the HSMM classifier the way `predict train` does and a
// UBF network on the SAR feature grid the way the case study does, each
// with its decision threshold calibrated at the max-F point of the
// training grid. GOMAXPROCS is pinned while training (as the runtime's
// parity tests do): parallel reductions regroup across GOMAXPROCS values,
// and the models must depend on the seed alone.
func trainModels(seed int64, days float64) (*models, error) {
	prev := stdruntime.GOMAXPROCS(2)
	defer stdruntime.GOMAXPROCS(prev)

	sys, err := simulate(seed, days)
	if err != nil {
		return nil, err
	}
	log, failures := sys.Log(), sys.FailureTimes()
	m := &models{trainLog: log, trainFailures: failures}
	for _, lead := range []float64{leadTime, 0} {
		f, nf, err := eventlog.Extract(log, failures, eventlog.ExtractConfig{
			DataWindow: dataWindow, LeadTime: lead, MinEvents: 2, NonFailureStride: 2 * dataWindow,
		})
		if err != nil {
			return nil, err
		}
		m.fail = append(m.fail, f...)
		if m.nonFail == nil {
			m.nonFail = nf
		}
	}
	m.clf, err = hsmm.TrainClassifier(m.fail, m.nonFail, hsmm.Config{States: 6, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("hsmm train: %w", err)
	}

	// Training grid: every Δtd from the first full window to the last point
	// whose target is observed.
	end := days*86400 - leadTime - slack
	var grid []float64
	for t := 2 * dataWindow; t < end; t += dataWindow {
		grid = append(grid, t)
	}
	scored := make([]predict.Scored, len(grid))
	for i, t := range grid {
		s, err := m.clf.Score(eventlog.SlidingWindow(log, t, dataWindow))
		if err != nil {
			return nil, err
		}
		scored[i] = predict.Scored{Score: s, Actual: labelAt(failures, t)}
	}
	if m.clf.Threshold, _, err = predict.MaxFMeasure(scored); err != nil {
		return nil, err
	}

	specs := make([]ts.FeatureSpec, len(ubfFeatures))
	for j, name := range ubfFeatures {
		s, err := sys.SAR(name)
		if err != nil {
			return nil, err
		}
		specs[j] = ts.FeatureSpec{Series: s}
	}
	if m.trainX, _, err = ts.BuildMatrix(specs, grid); err != nil {
		return nil, err
	}
	m.means, m.stds = ts.StandardizeColumns(m.trainX)
	target, err := sys.SAR("frac_slow")
	if err != nil {
		return nil, err
	}
	m.trainY = make([]float64, len(grid))
	for i, t := range grid {
		v, _ := target.ValueAt(t + leadTime)
		m.trainY[i] = math.Log10(v + 1e-6)
	}
	m.net, err = ubf.Train(m.trainX, m.trainY, ubf.TrainConfig{
		NumKernels: 12, Candidates: 15, Refinements: 10, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("ubf train: %w", err)
	}
	pred, err := m.net.PredictRows(m.trainX)
	if err != nil {
		return nil, err
	}
	for i := range scored {
		scored[i].Score = pred[i]
	}
	if m.ubfThreshold, _, err = predict.MaxFMeasure(scored); err != nil {
		return nil, err
	}
	return m, nil
}

// buildSingle generates single_replay's inputs: the PFC1 bytes of a
// simulated trace (seed S) and models trained on an independent one (S+1).
func buildSingle(seed int64, sz sizes) (*singleInputs, error) {
	t0 := nanos()
	sys, err := simulate(seed, sz.singleDays)
	if err != nil {
		return nil, err
	}
	simS := float64(nanos()-t0) / 1e9
	trace, err := buildColumnar(sys)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := trace.WriteTo(&buf); err != nil {
		return nil, err
	}
	m, err := trainModels(seed+1, sz.trainDays)
	if err != nil {
		return nil, err
	}
	return &singleInputs{
		pfc1: buf.Bytes(), events: trace.Len(), models: m, simS: simS,
	}, nil
}

// fleetInputs is the fleet trace in both shapes the fleet workloads feed
// from: records for the in-process source and wire bytes for TCP. Both
// carry the same records in the same order, cut into slices of sliceLen
// records whose first record is a probe. The wire bytes are opaque to the
// harness: it only ever cuts them at the Flush boundaries in wireCut.
type fleetInputs struct {
	ids     []string
	weights []float64
	recs    []fleet.Record
	slices  int // number of complete slices
	wire    []byte
	wireCut []int   // wireCut[i] is the byte offset where slice i ends
	simS    float64 // wall seconds the multi-tenant simulator took
}

// sliceRecs returns slice i's records.
func (in *fleetInputs) sliceRecs(i, sliceLen int) []fleet.Record {
	return in.recs[i*sliceLen : (i+1)*sliceLen]
}

// sliceWire returns slice i's wire bytes.
func (in *fleetInputs) sliceWire(i int) []byte {
	lo := 0
	if i > 0 {
		lo = in.wireCut[i-1]
	}
	return in.wire[lo:in.wireCut[i]]
}

// buildFleet simulates the Zipf fleet, inserts one probe per slice (an
// ordinary sample event, Variable "probe", Value = slice index, tenants
// rotated hot to cold) and encodes the result once with fleet.NewWriter.
func buildFleet(seed int64, sz sizes) (*fleetInputs, error) {
	t0 := nanos()
	multi, err := scp.NewMulti(scp.MultiConfig{Tenants: sz.tenants, Skew: 1, BaseSeed: seed})
	if err != nil {
		return nil, err
	}
	if err := multi.Run(sz.fleetSeconds); err != nil {
		return nil, err
	}
	trace := fleet.SCPRecords(multi.Drain())
	in := &fleetInputs{ids: multi.IDs(), weights: multi.Weights(), simS: float64(nanos()-t0) / 1e9}

	per := sz.sliceLen - 1
	in.slices = len(trace) / per
	if in.slices == 0 {
		return nil, fmt.Errorf("fleet trace too short: %d records", len(trace))
	}
	in.recs = make([]fleet.Record, 0, in.slices*sz.sliceLen)
	for i := 0; i < in.slices; i++ {
		chunk := trace[i*per : (i+1)*per]
		in.recs = append(in.recs, fleet.Record{Event: fleet.Event{
			Tenant: in.ids[(i*7)%len(in.ids)], Kind: runtime.KindSample,
			Time: chunk[0].Event.Time, Variable: probeVar, Value: float64(i),
		}})
		in.recs = append(in.recs, chunk...)
	}

	var buf bytes.Buffer
	buf.Grow(len(in.recs) * 24)
	w := fleet.NewWriter(&buf)
	in.wireCut = make([]int, in.slices)
	for i := 0; i < in.slices; i++ {
		for _, r := range in.sliceRecs(i, sz.sliceLen) {
			if err := w.Write(r); err != nil {
				return nil, err
			}
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		in.wireCut[i] = buf.Len()
	}
	in.wire = buf.Bytes()
	return in, nil
}
