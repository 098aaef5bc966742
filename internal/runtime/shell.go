package runtime

import (
	"context"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ShellConfig plugs a pipeline's own parts into the shared stage shell.
type ShellConfig struct {
	// Err is the owning package's sentinel; Start/Stop errors wrap it.
	Err error
	// Workers sizes the evaluation pool Start creates (none below 2).
	Workers int
	// Tracer is the pipeline's span tracer (nil when tracing is off); the
	// shell only reads its clock, see Nanos.
	Tracer *obs.Tracer
	// Cycle is the pipeline's cycle body. Its runs (CycleCore.Run) and Stop's
	// final one take the shell's cycle lock, so a slow countermeasure delays
	// the next cycle instead of overlapping it.
	Cycle *CycleCore
	// CloseQueues rejects new ingest and lets the consumers run their queues
	// dry. Idempotent: Stop calls it, and so does a hard stop.
	CloseQueues func()
	// Quiesced runs once inside Stop after every consumer has exited and the
	// pool is closed — no Apply, no cycle can run any more.
	Quiesced func()
}

// Shell is the stage skeleton Runtime and fleet.Fleet share: N drain
// consumers, the evaluation pool, and the protocol that stops them. It owns
// no cycle goroutine and no clock: a cycle runs on whichever goroutine asks
// for it (CycleCore.Run), at whatever domain time the owner's clock reads.
//
// Stop protocol. A graceful Stop marks the pipeline draining, closes the
// queues, and waits: each consumer applies its backlog and exits; when the
// last one has, Stop runs exactly one final cycle itself (so late events
// still reach a decision); then the pool closes, Quiesced runs, and the
// pipeline is stopped. If Stop's ctx expires first — or the context given to
// Start is canceled at any time — the stop turns hard: consumers shed what is
// still queued (the owners count it dropped with reason "shutdown", so
// ingested = applied + dropped still closes), no final cycle runs, and Stop
// returns ctx's error. Readiness reads "ok" → "draining" → "stopped" along the
// way; liveness does not change.
type Shell struct {
	cfg     ShellConfig
	pool    *Pool
	created time.Time // Nanos' base when tracing is off

	// wg tracks the drain consumers.
	wg       sync.WaitGroup
	hardCtx  context.Context
	hardStop context.CancelFunc
	// cycleMu is held around every cycle and around Stop's pool close, so a
	// cycle never overlaps another or outlives the pool.
	cycleMu sync.Mutex

	start     atomic.Pointer[time.Time] // nil until Start
	stopping  atomic.Bool
	stopped   atomic.Bool // graceful or hard stop complete
	stopOnce  sync.Once
	stopErr   error
	cycles    atomic.Int64
	lastCycle atomic.Int64 // unix nanos of the last completed cycle
}

// NewShell assembles a shell (not yet running; call Start).
func NewShell(cfg ShellConfig) *Shell {
	return &Shell{cfg: cfg, created: time.Now()}
}

// Nanos stamps a stage boundary once for both of its readers — the span
// stamps sampled traces carry and the stage-latency histograms — on the
// tracer's clock when tracing is on, so a traced pipeline reads the clock
// no more often than an untraced one.
func (s *Shell) Nanos() int64 {
	if tr := s.cfg.Tracer; tr != nil {
		return tr.Now()
	}
	return int64(time.Since(s.created))
}

// AwaitSettled is the Barrier loop: it polls settled — "every event admitted
// so far has been applied or shed" — until it holds or ctx is done. The
// consumers are usually a few events from settling, so it yields first: a
// timer sleep costs the timer's wake-up granularity (around a millisecond on a
// loaded box) per barrier, which would dominate a replay that barriers at
// every evaluation cadence.
func AwaitSettled(ctx context.Context, settled func() bool) error {
	for spin := 0; !settled(); spin++ {
		if spin < 1000 {
			stdruntime.Gosched()
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Microsecond):
		}
	}
	return nil
}

// Start launches the pool and n drain consumers — consume(0) …
// consume(n-1), one goroutine each. Canceling ctx hard-stops the pipeline;
// use Stop for a graceful shutdown.
func (s *Shell) Start(ctx context.Context, n int, consume func(i int)) error {
	now := time.Now()
	if !s.start.CompareAndSwap(nil, &now) {
		return fmt.Errorf("%w: already started", s.cfg.Err)
	}
	s.hardCtx, s.hardStop = context.WithCancel(ctx)
	if s.cfg.Workers > 1 {
		s.pool = NewPool(s.cfg.Workers)
	}
	for i := 0; i < n; i++ {
		s.Go(func() { consume(i) })
	}
	// Hard stop, from the parent context or from Stop: close the queues so
	// the consumers' drain loops terminate (shedding, see HardStopped).
	context.AfterFunc(s.hardCtx, func() {
		s.stopping.Store(true)
		s.cfg.CloseQueues()
	})
	return nil
}

// Go runs one more drain consumer under the shell's accounting: Stop waits
// for it to run dry before the final cycle. Start uses it for the initial
// consumers; a live resize adds consumers with it. The caller must exclude
// Stop's CloseQueues while it adds (a consumer added to a pipeline whose
// consumers have all exited would be missed).
func (s *Shell) Go(consume func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		consume()
	}()
}

// Stop shuts the pipeline down by the protocol on Shell. It is idempotent;
// every call returns the first call's result.
func (s *Shell) Stop(ctx context.Context) error {
	if !s.Started() {
		return fmt.Errorf("%w: not started", s.cfg.Err)
	}
	s.stopOnce.Do(func() {
		s.stopping.Store(true)
		s.cfg.CloseQueues()
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.hardStop()
			<-done
			s.stopErr = ctx.Err()
		}
		graceful := !s.HardStopped()
		s.hardStop()
		// Under cycleMu: a cycle already running finishes first, and
		// none after this runs a cycle on the closed pool.
		s.cycleMu.Lock()
		if graceful {
			s.cfg.Cycle.run(nil)
		}
		if s.pool != nil {
			s.pool.Close()
		}
		s.cycleMu.Unlock()
		s.cfg.Quiesced()
		s.stopped.Store(true)
	})
	return s.stopErr
}

// HardStopped reports whether the stop turned hard: drain loops then shed
// their backlog instead of applying it, so shutdown is prompt and the depth
// gauges and drop counters settle on consistent final values.
func (s *Shell) HardStopped() bool { return s.hardCtx.Err() != nil }

// CycleDone accounts one completed cycle.
func (s *Shell) CycleDone() {
	s.lastCycle.Store(time.Now().UnixNano())
	s.cycles.Add(1)
}

// Started reports whether Start has been called.
func (s *Shell) Started() bool { return s.start.Load() != nil }

// Stopping reports whether shutdown has begun.
func (s *Shell) Stopping() bool { return s.stopping.Load() }

// Running reports whether the pipeline is started and not yet stopping.
func (s *Shell) Running() bool { return s.Started() && !s.Stopping() }

// Uptime returns the wall-clock time since Start (0 before it).
func (s *Shell) Uptime() time.Duration {
	if t := s.start.Load(); t != nil {
		return time.Since(*t)
	}
	return 0
}

// Cycles returns how many cycles have completed since Start — a
// deterministic synchronization point for tests and replay drivers
// (the last-cycle stamp is wall-clock-based and can collide across fast
// cycles).
func (s *Shell) Cycles() int64 { return s.cycles.Load() }

// Health fills the shell's part of a readiness body — status, uptime,
// last-cycle age; the owner adds its queue and tenant figures.
func (s *Shell) Health() Health {
	h := Health{Status: "ok", UptimeSeconds: s.Uptime().Seconds(), LastCycleAgoSeconds: -1}
	switch {
	case s.stopped.Load():
		h.Status = "stopped"
	case !s.Running():
		h.Status = "draining"
	}
	if ns := s.lastCycle.Load(); ns != 0 {
		h.LastCycleAgoSeconds = time.Since(time.Unix(0, ns)).Seconds()
	}
	return h
}
