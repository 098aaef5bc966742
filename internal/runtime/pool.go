package runtime

import (
	"sync"
	"sync/atomic"
)

// Pool is a fixed pool of long-lived workers for index-addressed fan-out
// (Do) — the shared evaluation workers. A single-runtime pipeline fans its
// layers across them; the fleet runtime fans cross-tenant batches, so
// thousands of tenants share one set of evaluation goroutines instead of
// spawning per-tenant ones. Indices are claimed in ranges, so what a job
// pays in shared-cache-line traffic grows with the worker count, not with n.
type Pool struct {
	tasks   chan *poolJob
	workers int
	wg      sync.WaitGroup

	// free recycles job state between Do calls, so a steady-state Do
	// allocates nothing.
	freeMu sync.Mutex
	free   []*poolJob
}

// poolJob is one Do call: participants claim span consecutive indices of
// [0,n) at a time via the shared atomic cursor — one add on next and one on
// done per range, not per index — and every worker that receives the job
// participates until the cursor is exhausted. refs counts who still holds
// the job — the submitter and every copy sent to a worker, including copies
// no worker has picked up when Do returns; the last one to let go recycles
// it, so a job is only ever rewritten while nobody else can see it.
type poolJob struct {
	fn   func(i int)
	n    int
	span int
	next atomic.Int64
	done sync.WaitGroup
	refs atomic.Int32
}

func (j *poolJob) run() {
	for {
		hi := int(j.next.Add(int64(j.span)))
		lo := hi - j.span
		if lo >= j.n {
			return
		}
		if hi > j.n {
			hi = j.n
		}
		for i := lo; i < hi; i++ {
			j.fn(i)
		}
		j.done.Add(lo - hi)
	}
}

// NewPool starts workers goroutines (minimum 1). Close releases them.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{tasks: make(chan *poolJob, workers), workers: workers}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for j := range p.tasks {
				j.run()
				p.release(j)
			}
		}()
	}
	return p
}

// job returns a recycled (or new) job armed for n calls of fn, claimed span
// at a time.
func (p *Pool) job(n, span int, fn func(i int)) *poolJob {
	var j *poolJob
	p.freeMu.Lock()
	if k := len(p.free); k > 0 {
		j, p.free = p.free[k-1], p.free[:k-1]
	}
	p.freeMu.Unlock()
	if j == nil {
		j = new(poolJob)
	}
	j.fn, j.n, j.span = fn, n, span
	j.next.Store(0)
	j.done.Add(n)
	return j
}

// release drops one reference; the last holder recycles the job.
func (p *Pool) release(j *poolJob) {
	if j.refs.Add(-1) != 0 {
		return
	}
	j.fn = nil
	p.freeMu.Lock()
	p.free = append(p.free, j)
	p.freeMu.Unlock()
}

// Do runs fn(i) for every i in [0,n) across the pool's workers and returns
// once all n calls finished. The submitting goroutine participates too, so
// progress is guaranteed even when every worker is busy with another job.
// Output must be index-addressed (fn(i) writes only slot i of its result):
// then the result is independent of worker count and scheduling — the same
// determinism contract as internal/par. A nil pool, and a one-index job, run
// inline.
//
// The range is n/(4·(workers+1)), at least 1: a large job still splits into
// four ranges per participant, so a slow index delays the rest by a quarter
// share at most, and a job of up to 4·(workers+1) indices — a runtime's
// handful of latency-bound layers — is claimed one index at a time. Only as
// many workers as there are ranges beyond the submitter's first are woken;
// a one-index job wakes nobody.
func (p *Pool) Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	span := n / (4 * (p.workers + 1))
	if span < 1 {
		span = 1
	}
	helpers := (n+span-1)/span - 1
	if helpers > p.workers {
		helpers = p.workers
	}
	j := p.job(n, span, fn)
	j.refs.Store(int32(helpers) + 1)
	for w := 0; w < helpers; w++ {
		select {
		case p.tasks <- j:
		default:
			// Buffer full: enough copies are queued; the submitter and the
			// workers already holding one will drain the cursor.
			j.refs.Add(-1)
		}
	}
	j.run()
	j.done.Wait()
	p.release(j)
}

// Close stops the workers after in-flight jobs finish.
func (p *Pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}
