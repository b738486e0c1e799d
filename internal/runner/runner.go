// Package runner fans independent simulation runs out across a bounded
// worker pool and delivers their results deterministically.
//
// Every experiment in this repository averages many independently-seeded
// wmsn runs (seed × sweep-point). Each run owns its kernel, RNG and world,
// so runs never share mutable state and are safe to execute concurrently;
// the only threat to reproducibility is merge order. MapEach therefore
// assigns every job a submission index up front and delivers each result in
// index order — the output is bit-identical to the sequential loop no
// matter how the scheduler interleaves workers or in what order jobs
// complete.
package runner

import (
	"runtime"
	"sync/atomic"
)

// DefaultWorkers is the default fan-out width: one worker per logical CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Resolve maps a user-facing workers setting to a concrete pool width:
// values below 1 select DefaultWorkers.
func Resolve(workers int) int {
	if workers < 1 {
		return DefaultWorkers()
	}
	return workers
}

// MapEach runs fn(i) for every i in [0,n) on at most workers goroutines and
// hands each (index, value, error) to deliver exactly once, in ascending
// index order, on the caller's goroutine. A long sweep's early results
// reach the consumer while later jobs are still running, bounded only by
// completion skew (an out-of-order completion is buffered until every lower
// index has been delivered).
//
// workers<=0 selects DefaultWorkers; workers==1 (or n==1) runs inline with
// no synchronization, so the sequential path produces byte-for-byte the
// stream a plain loop would. fn is always called for every index — a caller
// that wants to stop early must make fn itself return fast (e.g. by checking
// a context), which is exactly what scenario.RunEach does. deliver runs with
// no lock held and may block; workers keep computing meanwhile.
//
// fn must not touch state shared with other jobs: each invocation should
// build its own world/kernel/metrics from its index. Jobs are handed out
// through an atomic cursor, so cheap early jobs do not serialize behind an
// expensive first job.
func MapEach[T any](workers, n int, fn func(int) (T, error), deliver func(int, T, error)) {
	if n <= 0 {
		return
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			deliver(i, v, err)
		}
		return
	}
	type slot struct {
		v    T
		err  error
		done bool
	}
	type msg struct {
		i   int
		v   T
		err error
	}
	ch := make(chan msg, workers)
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(i)
				ch <- msg{i: i, v: v, err: err}
			}
		}()
	}
	buf := make([]slot, n)
	cursor := 0
	for received := 0; received < n; received++ {
		m := <-ch
		buf[m.i] = slot{v: m.v, err: m.err, done: true}
		for cursor < n && buf[cursor].done {
			deliver(cursor, buf[cursor].v, buf[cursor].err)
			buf[cursor] = slot{} // release the value for GC
			cursor++
		}
	}
}
