// Package par is the parallel execution core shared by every stage of the
// DUST pipeline: deterministic chunked loops for data-parallel kernels
// (distance matrices, tuple embedding, per-table scoring) and a bounded
// worker pool for irregular task graphs (serving concurrent pipeline
// queries).
//
// Determinism contract: every helper here only decides WHICH goroutine
// executes an index range, never the order in which results are combined.
// Kernels that write their output by index — the pattern used throughout
// the repo — therefore produce bit-identical results for any worker count,
// including the sequential workers=1 case. Reductions that are sensitive to
// floating-point association must keep their accumulation order inside one
// index (or one chunk) and combine chunk results in chunk order.
package par

import (
	"runtime"
	"sync"
)

// DefaultWorkers is the GOMAXPROCS-derived default parallelism. Every knob
// in the repo treats workers <= 0 as "use DefaultWorkers()".
func DefaultWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// Normalize maps a workers knob to an effective worker count: values <= 0
// select the GOMAXPROCS-derived default, everything else passes through.
func Normalize(workers int) int {
	if workers <= 0 {
		return DefaultWorkers()
	}
	return workers
}

// ForChunks splits [0, n) into at most workers contiguous chunks and runs
// body(lo, hi) for each chunk, concurrently when workers > 1. A panic in any
// chunk is re-raised in the caller after all chunks finish.
func ForChunks(workers, n int, body func(lo, hi int)) {
	workers = Normalize(workers)
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		body(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	var once sync.Once
	var panicked any
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { panicked = r })
				}
			}()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// For runs body(i) for every i in [0, n) across at most workers goroutines.
func For(workers, n int, body func(i int)) {
	ForChunks(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// Map evaluates fn(i) for every i in [0, n) across at most workers
// goroutines and returns the results in index order. Because each slot is
// written exactly once by its own index, the output is identical for every
// worker count.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	For(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// Pool is a bounded worker pool: at most `workers` tasks execute
// concurrently, and Submit applies backpressure once every worker is busy.
// It suits irregular workloads (e.g. serving a batch of pipeline queries of
// very different sizes) where static chunking would load-balance poorly.
type Pool struct {
	tasks   chan func()
	workers sync.WaitGroup
	pending sync.WaitGroup
	mu      sync.Mutex
	panicV  any
}

// NewPool starts a pool with Normalize(workers) worker goroutines. Callers
// must Close it to release them.
func NewPool(workers int) *Pool {
	n := Normalize(workers)
	p := &Pool{tasks: make(chan func())}
	p.workers.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.workers.Done()
			for t := range p.tasks {
				t()
			}
		}()
	}
	return p
}

// Submit enqueues one task, blocking while all workers are busy. A panic
// inside the task is captured and re-raised by Wait.
func (p *Pool) Submit(task func()) {
	p.pending.Add(1)
	p.tasks <- func() {
		defer p.pending.Done()
		defer func() {
			if r := recover(); r != nil {
				p.mu.Lock()
				if p.panicV == nil {
					p.panicV = r
				}
				p.mu.Unlock()
			}
		}()
		task()
	}
}

// Wait blocks until every submitted task has finished, then re-raises the
// first captured task panic, if any.
func (p *Pool) Wait() {
	p.pending.Wait()
	p.mu.Lock()
	r := p.panicV
	p.panicV = nil
	p.mu.Unlock()
	if r != nil {
		panic(r)
	}
}

// Close waits for outstanding tasks and stops the workers. The pool cannot
// be reused afterwards.
func (p *Pool) Close() {
	p.pending.Wait()
	close(p.tasks)
	p.workers.Wait()
}
