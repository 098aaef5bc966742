package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/act"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/scp"
)

// pfmd -fleet-scopes default.
const pfmdFleetScopes = 64

// fleetState is pfmd's per-tenant monitoring mirror: EWMA utilization over
// the load samples plus a decaying error-pressure signal.
type fleetState struct {
	capacity float64
	util     float64
	errs     float64
	index    int // registration order; the traced run times every 16th tenant
}

func (s *fleetState) apply(ev fleet.Event) error {
	if ev.Kind == runtime.KindError {
		if ev.Error.Severity >= 2 {
			s.errs += 1
		} else {
			s.errs += 0.25
		}
		return nil
	}
	if ev.Variable == "load" {
		s.util = 0.8*s.util + 0.2*ev.Value/s.capacity
		s.errs *= 0.9
	}
	return nil
}

// fleetMode selects how the fleet trace reaches the fleet.
type fleetMode int

const (
	modeTCP    fleetMode = iota // wire bytes over loopback, closed by backpressure
	modeInproc                  // the same records from a SliceSource
	modePaced                   // wire bytes over loopback on a wall schedule
	modeQuiet                   // in-process, no-op Apply, no cycles (isolation)
)

// fleetOpts selects the variant of one fleet repetition.
type fleetOpts struct {
	mode   fleetMode
	tr     *tracer // non-nil: the traced run
	slices int     // slices to send (0 = all)
}

// fleetLayers builds pfmd's two shared layer templates: utilization through
// the cross-tenant batch path, error pressure per tenant. In a traced run
// each scorer is timed; the per-tenant scorer times every 16th tenant and
// scales, because a thousand clock reads per cycle would be the cycle.
func fleetLayers(tr *tracer, cycleID *atomic.Uint64) []fleet.LayerTemplate {
	loadBatch := func(states []fleet.TenantState, _ float64, out []float64) error {
		for i, st := range states {
			out[i] = st.(*fleetState).util
		}
		return nil
	}
	errScore := func(st fleet.TenantState, _ float64) (float64, error) {
		return 1 - math.Exp(-st.(*fleetState).errs/3), nil
	}
	if tr != nil {
		stLoad := tr.stage(stLayer("load"), stCycle)
		stErr := tr.stage(stLayer("errors"), stCycle)
		plainBatch, plainScore := loadBatch, errScore
		loadBatch = func(states []fleet.TenantState, now float64, out []float64) error {
			t0 := nanos()
			err := plainBatch(states, now, out)
			stLoad.add(cycleID.Load(), t0, nanos(), 0)
			return err
		}
		errScore = func(st fleet.TenantState, now float64) (float64, error) {
			if st.(*fleetState).index&15 != 0 {
				return plainScore(st, now)
			}
			t0 := nanos()
			s, err := plainScore(st, now)
			stErr.addScaled(cycleID.Load(), t0, nanos(), 16)
			return s, err
		}
	}
	return []fleet.LayerTemplate{
		{Name: "load", Threshold: 0.85, ScoreBatch: loadBatch},
		{Name: "errors", Threshold: 0.6, Score: errScore},
	}
}

// fleetRun is one repetition's wiring: the fleet, its domain clock, the
// probe stamps and the cycle log.
type fleetRun struct {
	in    *fleetInputs
	f     *fleet.Fleet
	led   *obs.ScopedLedger
	clock atomic.Uint64 // Float64bits of the domain time

	dueNs   []int64 // per probe: when its slice was (due to be) handed over
	applyNs []int64 // per probe: when Apply saw it

	cycleID  atomic.Uint64
	cycleMu  sync.Mutex
	cycleBeg []int64
	cycleEnd []int64
	depthMax int

	cycleSpent int64 // wall ns the pump goroutine spent in barriers and cycles

	stCyc, stBar *stage
}

func (fr *fleetRun) now() float64 { return math.Float64frombits(fr.clock.Load()) }

// cycle runs one EvaluateCycle at domain time at, timed from outside.
func (fr *fleetRun) cycle(at float64) {
	fr.clock.Store(math.Float64bits(at))
	if d := fr.f.QueueDepth(); d > fr.depthMax {
		fr.depthMax = d
	}
	id := fr.cycleID.Add(1)
	t0 := nanos()
	fr.f.EvaluateCycle()
	t1 := nanos()
	if fr.stCyc != nil {
		fr.stCyc.add(id, t0, t1, 1)
	}
	fr.cycleMu.Lock()
	fr.cycleBeg = append(fr.cycleBeg, t0)
	fr.cycleEnd = append(fr.cycleEnd, t1)
	fr.cycleMu.Unlock()
}

// newFleetRun builds a fleet configured as pfmd -fleet configures it:
// criticality from the Zipf weight, scoped ledger with per-layer journaling,
// tracer at the default sampling, Block overflow, library-default shard and
// worker counts.
func newFleetRun(in *fleetInputs, o fleetOpts) (*fleetRun, error) {
	fr := &fleetRun{in: in,
		dueNs: make([]int64, in.slices), applyNs: make([]int64, in.slices)}
	specs := make([]fleet.TenantSpec, len(in.ids))
	for i, id := range in.ids {
		specs[i] = fleet.TenantSpec{ID: id, Criticality: in.weights[i]}
	}
	var err error
	fr.led, err = obs.NewScopedLedger(obs.LedgerConfig{LeadTime: leadTime, Slack: slack},
		pfmdFleetScopes, "load", "errors")
	if err != nil {
		return nil, err
	}
	otr := obs.NewTracer(pfmdTraceCap)
	otr.SetSampleInterval(obs.DefaultSampleInterval)
	capacity := scp.DefaultConfig().Capacity
	states := 0
	var stApp *stage
	if o.tr != nil {
		stApp = o.tr.stage(stApply, stFIngest)
	}
	// Apply is pfmd's fleetState.apply behind the probe stamp; the traced
	// run adds a span around the sampled events.
	apply := func(st fleet.TenantState, ev fleet.Event) error {
		if ev.Kind == runtime.KindSample && ev.Variable == probeVar {
			fr.applyNs[int(ev.Value)] = nanos()
		}
		if stApp != nil {
			if id := eventID(ev.Time, ev.Value); sampled(id) {
				t0 := nanos()
				err := st.(*fleetState).apply(ev)
				stApp.add(id, t0, nanos(), 1)
				return err
			}
		}
		return st.(*fleetState).apply(ev)
	}
	if o.mode == modeQuiet {
		apply = func(fleet.TenantState, fleet.Event) error { return nil }
	}
	cfg := fleet.Config{
		Tenants: specs,
		Layers:  fleetLayers(o.tr, &fr.cycleID),
		NewState: func(fleet.TenantSpec) (fleet.TenantState, error) {
			states++
			return &fleetState{capacity: capacity, index: states - 1}, nil
		},
		Apply: apply,
		Engine: core.Config{
			EvalInterval: cadence, LeadTime: leadTime, WarnThreshold: 0.5,
			OscillationWindow: 1800, MaxActionsPerWindow: 6,
		},
		QueueCapacity: pfmdQueue,
		Overflow:      runtime.Block,
		Clock:         fr.now,
		Tracer:        otr,
		Ledger:        fr.led,
		JournalLayers: true,
	}
	if o.tr != nil {
		fr.stCyc = o.tr.stage(stCycle, "")
		fr.stBar = o.tr.stage(stBarrier, "")
		stAc := o.tr.stage(stAct, stCycle)
		// The fleet's default countermeasure, rebuilt here only so that the
		// act function is the harness's and can be timed.
		cfg.NewActions = func(fleet.TenantSpec) (*act.Selector, []*act.Action, error) {
			sel, err := act.NewSelector(act.DefaultWeights())
			if err != nil {
				return nil, nil, err
			}
			observe, err := act.New("observe", act.StateCleanup, act.Params{SuccessProb: 1}, func() error {
				t0 := nanos()
				stAc.add(fr.cycleID.Load(), t0, nanos(), 1)
				return nil
			})
			return sel, []*act.Action{observe}, err
		}
	}
	fr.f, err = fleet.New(cfg)
	return fr, err
}

// countingSource is the outermost source Pump sees. It ends the pump once
// every record of the run has been seen (a ListenSource alone only ends on
// Close) and, in a traced run, times the wrapped Next — less whatever the
// cycle driver below it spent on a barrier and a cycle — and the gap until
// Pump asks again, which is Pump's Ingest call.
type countingSource struct {
	src   fleet.Source
	fr    *fleetRun
	left  int
	calls uint64
	// traced run only
	stNext, stIngest *stage
	ingestID         uint64
	ingestAt         int64
}

func (c *countingSource) Next() (fleet.Record, error) {
	if c.stNext == nil {
		if c.left == 0 {
			return fleet.Record{}, io.EOF
		}
		c.left--
		return c.src.Next()
	}
	// The clock is read only for the calls that record a span.
	c.calls++
	timeNext := c.calls&eventMask == 0
	var t0 int64
	if timeNext || c.ingestAt != 0 {
		t0 = nanos()
	}
	if c.ingestAt != 0 {
		c.stIngest.add(c.ingestID, c.ingestAt, t0, 1)
		c.ingestAt = 0
	}
	if c.left == 0 {
		return fleet.Record{}, io.EOF
	}
	c.left--
	spent := c.fr.cycleSpent
	rec, err := c.src.Next()
	if err != nil {
		return rec, err
	}
	id := eventID(rec.Event.Time, rec.Event.Value)
	timeIngest := !rec.Failure && sampled(id)
	if timeNext || timeIngest {
		t1 := nanos()
		if timeNext {
			c.stNext.add(id, t0, t1-(c.fr.cycleSpent-spent), 1)
		}
		if timeIngest {
			c.ingestID, c.ingestAt = id, t1
		}
	}
	return rec, nil
}

// cycleSource drives closed-loop cycles deterministically from record time:
// when a record crosses the next cadence boundary it drains the fleet, sets
// the domain clock to the boundary and runs one cycle before handing the
// record on.
type cycleSource struct {
	src  fleet.Source
	fr   *fleetRun
	next float64
}

func (c *cycleSource) Next() (fleet.Record, error) {
	rec, err := c.src.Next()
	if err != nil {
		return rec, err
	}
	for rec.Event.Time >= c.next {
		t0 := nanos()
		if err := c.fr.f.Barrier(context.Background()); err != nil {
			return rec, err
		}
		if c.fr.stBar != nil {
			c.fr.stBar.add(c.fr.cycleID.Load()+1, t0, nanos(), 1)
		}
		c.fr.cycle(c.next)
		c.next += cadence
		c.fr.cycleSpent += nanos() - t0
	}
	return rec, nil
}

// clockSource is pfmd's listen-mode clock: the domain time follows the
// newest record seen.
type clockSource struct {
	src fleet.Source
	fr  *fleetRun
}

func (c *clockSource) Next() (fleet.Record, error) {
	rec, err := c.src.Next()
	if err == nil && rec.Event.Time > c.fr.now() {
		c.fr.clock.Store(math.Float64bits(rec.Event.Time))
	}
	return rec, err
}

// send writes the wire slices to addr over one connection. Closed loop
// (pacedStart == 0) writes back to back and TCP flow control sets the pace;
// open loop writes slice i at pacedStart + i·pacedSliceNs whether or not the
// previous write was delayed, and returns how late each write began.
func (fr *fleetRun) send(addr string, slices int, pacedStart int64) ([]float64, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	var late []float64
	for i := 0; i < slices; i++ {
		if pacedStart != 0 {
			due := pacedStart + int64(i)*pacedSliceNs
			if wait := due - nanos(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			fr.dueNs[i] = due
			late = append(late, float64(nanos()-due)/1e3)
		} else {
			fr.dueNs[i] = nanos()
		}
		if _, err := conn.Write(fr.in.sliceWire(i)); err != nil {
			return late, err
		}
	}
	return late, nil
}

// stampSource stamps each probe's hand-over time on the in-process path,
// where no sender goroutine exists to do it.
type stampSource struct {
	src fleet.Source
	fr  *fleetRun
}

func (s *stampSource) Next() (fleet.Record, error) {
	rec, err := s.src.Next()
	if err == nil && rec.Event.Variable == probeVar && rec.Event.Kind == runtime.KindSample {
		s.fr.dueNs[int(rec.Event.Value)] = nanos()
	}
	return rec, err
}

// runFleet runs one repetition of a fleet workload.
func runFleet(in *fleetInputs, sz sizes, o fleetOpts) (*rep, error) {
	slices := o.slices
	if slices == 0 || slices > in.slices {
		slices = in.slices
	}
	nrecs := slices * sz.sliceLen
	events, lastTime := 0, 0.0
	for _, r := range in.recs[:nrecs] {
		if !r.Failure {
			events++
		}
		lastTime = r.Event.Time
	}

	heap0 := heapAfterGC()
	fr, err := newFleetRun(in, o)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if err := fr.f.Start(ctx); err != nil {
		return nil, err
	}

	var ls *fleet.ListenSource
	var base fleet.Source
	if o.mode == modeTCP || o.mode == modePaced {
		if ls, err = fleet.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		defer ls.Close()
		base = ls
	} else {
		base = &stampSource{src: fleet.NewSliceSource(in.recs[:nrecs]), fr: fr}
	}
	switch o.mode {
	case modeTCP, modeInproc:
		base = &cycleSource{src: base, fr: fr, next: cadence}
	case modePaced:
		base = &clockSource{src: base, fr: fr}
	}
	src := &countingSource{src: base, fr: fr, left: nrecs}
	if o.tr != nil {
		src.stIngest = o.tr.stage(stFIngest, "")
		src.stNext = o.tr.stage(stNext, "")
	}

	r := &rep{attempt: int64(events)}
	mt := startMeter()
	var sendErr error
	var sender sync.WaitGroup
	if ls != nil {
		pacedStart := int64(0)
		if o.mode == modePaced {
			pacedStart = nanos() + 2*pacedSliceNs
		}
		sender.Add(1)
		go func() {
			defer sender.Done()
			r.lateUs, sendErr = fr.send(ls.Addr(), slices, pacedStart)
		}()
	}
	stopCycles := make(chan struct{})
	var cycler sync.WaitGroup
	if o.mode == modePaced {
		cycler.Add(1)
		go func() {
			defer cycler.Done()
			tick := time.NewTicker(time.Duration(pacedCycleNs))
			defer tick.Stop()
			for {
				select {
				case <-stopCycles:
					return
				case <-tick.C:
					fr.cycle(fr.now())
				}
			}
		}()
	}
	pumped, pumpErr := fleet.Pump(ctx, fr.f, src)
	close(stopCycles)
	cycler.Wait()
	sender.Wait()
	if pumpErr != nil {
		return nil, fmt.Errorf("pump: %w", pumpErr)
	}
	if sendErr != nil {
		return nil, fmt.Errorf("send: %w", sendErr)
	}
	if err := fr.f.Barrier(ctx); err != nil {
		return nil, err
	}
	fr.clock.Store(math.Float64bits(lastTime)) // the final cycle's domain time
	if err := r.finish(mt, heap0, fr.f.Stop); err != nil {
		return nil, err
	}

	mm := fr.f.Metrics()
	r.events = mm.Applied.Value()
	r.cycles = fr.f.Cycles()
	r.depthMax = fr.depthMax
	decodeErrs := int64(0)
	if ls != nil {
		decodeErrs = ls.DecodeErrors()
	}
	missing := int64(0)
	if o.mode != modeQuiet {
		for i := 0; i < slices; i++ {
			if fr.applyNs[i] == 0 {
				missing++
				continue
			}
			r.applyUs = append(r.applyUs, float64(fr.applyNs[i]-fr.dueNs[i])/1e3)
			// The decision that covers a probe is the first cycle that
			// started after Apply saw it.
			if k := sort.Search(len(fr.cycleBeg), func(k int) bool { return fr.cycleBeg[k] >= fr.applyNs[i] }); k < len(fr.cycleBeg) {
				r.decideMs = append(r.decideMs, float64(fr.cycleEnd[k]-fr.dueNs[i])/1e6)
			}
		}
	}
	for k := range fr.cycleBeg {
		r.cycleUs = append(r.cycleUs, float64(fr.cycleEnd[k]-fr.cycleBeg[k])/1e3)
	}
	r.account(mm, decodeErrs+missing+int64(nrecs-pumped),
		fmt.Sprintf("decode errors %d, missing probes %d, pumped %d of %d", decodeErrs, missing, pumped, nrecs))
	r.fingerprint, r.quality = fr.fingerprint()
	return r, nil
}

// fingerprint renders everything the closed-loop fleet paths must agree on
// exactly: ledger totals and tables per scope, pipeline counters, and
// per-tenant event and warning counts. It also returns the F-measure of
// the combined decision summed over every scope.
func (fr *fleetRun) fingerprint() (string, float64) {
	var b strings.Builder
	preds, fails := fr.led.Totals()
	mm := fr.f.Metrics()
	fmt.Fprintf(&b, "predictions=%d failures=%d cycles=%d evaluations=%d warnings=%d actions=%d suppressed=%d\n",
		preds, fails, fr.f.Cycles(), mm.Evaluations.Value(), mm.Warnings.Value(), mm.Actions.Value(), mm.Suppressed.Value())
	var tp, fp, fn int
	for _, scope := range fr.led.Scopes() {
		led := fr.led.Scope(scope)
		fmt.Fprintf(&b, "%s %+v\n", scope, led.Snapshot())
		c := led.Cumulative(obs.CombinedLayer)
		tp, fp, fn = tp+c.TP, fp+c.FP, fn+c.FN
	}
	for _, id := range fr.in.ids {
		v, _ := fr.f.TenantStatus(id)
		fmt.Fprintf(&b, "%s events=%d warnings=%d failures=%d\n", id, v.Events, v.Warnings, v.Failures)
	}
	f1 := 0.0
	if d := 2*tp + fp + fn; d > 0 {
		f1 = 2 * float64(tp) / float64(d)
	}
	return b.String(), f1
}
