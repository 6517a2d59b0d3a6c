// Package runner is the shared concurrent trial engine behind every
// experiment in internal/exp. An experiment expresses its trial loop as
// a set of independent, index-addressed jobs; the runner executes them
// on a bounded worker pool and returns the results in index order.
//
// Determinism contract: a job must derive all of its randomness from
// the experiment seed and its own index (see rng.Derive) and must not
// share mutable state with other jobs. Under that contract the results
// are bit-identical for every worker count, including 1 — the
// per-figure determinism tests assert exactly this — so parallelism is
// purely a wall-clock optimization, never a statistical one.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers holds the process-wide worker count used by Do. Zero
// means "one worker per CPU". cmd/abwsim's -parallel flag and the
// determinism tests set it; everything else should leave it alone.
var defaultWorkers atomic.Int64

// SetWorkers sets the worker count used by the default pool. n <= 0
// resets to one worker per CPU (GOMAXPROCS).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Workers reports the worker count the default pool will use.
func Workers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Pool executes independent jobs concurrently. The zero value is ready
// to use and runs one worker per CPU.
type Pool struct {
	// Workers is the number of concurrent workers; <= 0 means one per
	// CPU (GOMAXPROCS).
	Workers int
	// OnProgress, if set, is called after each job completes with the
	// number of completed jobs and the total. Calls are serialized.
	OnProgress func(done, total int)
}

func (p *Pool) workers(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn(ctx, i) for every i in [0, n) on the pool's workers and
// returns the n results in index order, independent of scheduling. The
// first error cancels the context passed to in-flight jobs, stops
// unstarted ones, and is returned; results are nil in that case. A nil
// pool behaves like the zero Pool.
func Map[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if p == nil {
		p = &Pool{}
	}
	if n <= 0 {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, n)
	jobs := make(chan int, n) // bounded queue: all indices, workers drain it
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		done     atomic.Int64
		progMu   sync.Mutex
	)
	for w := p.workers(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					return
				}
				v, err := fn(ctx, i)
				if err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
				results[i] = v
				if p.OnProgress != nil {
					// Count under the lock so the callback sees a
					// strictly increasing done counter.
					progMu.Lock()
					p.OnProgress(int(done.Add(1)), n)
					progMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// defaultProgress, if set, observes every default-pool job (see
// SetProgress). Stored as a pointer so the atomic holds a comparable
// type.
var defaultProgress atomic.Pointer[func(done, total int)]

// SetProgress installs a progress callback on the default pool used by
// All: it is invoked, serialized, after every trial with the completed
// and total counts of that experiment's current fan-out. Pass nil to
// remove it. cmd/abwsim's -progress flag is the intended caller.
func SetProgress(fn func(done, total int)) {
	if fn == nil {
		defaultProgress.Store(nil)
		return
	}
	defaultProgress.Store(&fn)
}

// All runs fn(i) for every i in [0, n) on the default pool (see
// SetWorkers, SetProgress) and returns the results in index order. It
// is the convenience the experiments use for their trial loops.
func All[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	p := &Pool{Workers: Workers()}
	if cb := defaultProgress.Load(); cb != nil {
		p.OnProgress = *cb
	}
	return Map(context.Background(), p, n,
		func(_ context.Context, i int) (T, error) { return fn(i) })
}
