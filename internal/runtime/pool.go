package runtime

import (
	"sync"
	"sync/atomic"
)

// Pool is a fixed pool of long-lived workers for index-addressed fan-out
// (Do) — the shared evaluation workers. A single-runtime pipeline fans its
// layers across them; the fleet runtime fans cross-tenant batches, so
// thousands of tenants share one set of evaluation goroutines instead of
// spawning per-tenant ones.
type Pool struct {
	tasks   chan *poolJob
	workers int
	wg      sync.WaitGroup

	// free recycles job state between Do calls, so a steady-state Do
	// allocates nothing.
	freeMu sync.Mutex
	free   []*poolJob
}

// poolJob is one Do call: workers claim indices [0,n) via the shared atomic
// cursor and mark each completed index on done. Every worker that receives
// the job participates until the cursor is exhausted. refs counts who still
// holds the job — the submitter and every copy sent to a worker, including
// copies no worker has picked up when Do returns; the last one to let go
// recycles it, so a job is only ever rewritten while nobody else can see it.
type poolJob struct {
	fn   func(i int)
	n    int
	next atomic.Int64
	done sync.WaitGroup
	refs atomic.Int32
}

func (j *poolJob) run() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		j.fn(i)
		j.done.Done()
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

// job returns a recycled (or new) job armed for n calls of fn.
func (p *Pool) job(n int, fn func(i int)) *poolJob {
	var j *poolJob
	p.freeMu.Lock()
	if k := len(p.free); k > 0 {
		j, p.free = p.free[k-1], p.free[:k-1]
	}
	p.freeMu.Unlock()
	if j == nil {
		j = new(poolJob)
	}
	j.fn, j.n = fn, n
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
// determinism contract as internal/par. A nil pool runs inline and serial.
func (p *Pool) Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := p.job(n, fn)
	j.refs.Store(int32(p.workers) + 1)
	for w := 0; w < p.workers; w++ {
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
