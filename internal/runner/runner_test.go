package runner

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// collect gathers MapEach's deliveries into a slice indexed by job, failing
// the test on an error or an out-of-order delivery.
func collect[T any](t *testing.T, workers, n int, fn func(int) T) []T {
	t.Helper()
	out := make([]T, 0, n)
	MapEach(workers, n, func(i int) (T, error) { return fn(i), nil },
		func(i int, v T, err error) {
			if err != nil || i != len(out) {
				t.Fatalf("workers=%d: delivery (%d, %v) out of order at %d", workers, i, err, len(out))
			}
			out = append(out, v)
		})
	return out
}

func TestMapOrdersBySubmissionIndex(t *testing.T) {
	// Jobs finish in reverse order (early indices sleep longest); the
	// results must still come back in index order.
	n := 32
	out := collect(t, 8, n, func(i int) int {
		time.Sleep(time.Duration(n-i) * time.Millisecond / 4)
		return i * i
	})
	if len(out) != n {
		t.Fatalf("MapEach delivered %d results, want %d", len(out), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapMatchesSequential(t *testing.T) {
	job := func(i int) []int64 {
		// Per-job RNG seeded by index, as real experiment jobs do.
		rng := rand.New(rand.NewSource(int64(i)))
		vals := make([]int64, 16)
		for j := range vals {
			vals[j] = rng.Int63()
		}
		return vals
	}
	seq := collect(t, 1, 20, job)
	par := collect(t, 8, 20, job)
	if len(seq) != 20 || len(par) != 20 {
		t.Fatalf("delivered %d sequential and %d parallel results, want 20", len(seq), len(par))
	}
	for i := range seq {
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Fatalf("job %d diverges at value %d: %d vs %d", i, j, seq[i][j], par[i][j])
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	// Even on one CPU goroutines interleave at the sleep below, so the
	// bound stays observable on every machine.
	const workers = 3
	var cur, peak atomic.Int64
	MapEach(workers, 24, func(i int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return i, nil
	}, func(int, int, error) {})
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent jobs, want <= %d", got, workers)
	}
}

func TestMapEveryJobRunsExactlyOnce(t *testing.T) {
	var counts [100]atomic.Int32
	MapEach(7, len(counts), func(i int) (struct{}, error) {
		counts[i].Add(1)
		return struct{}{}, nil
	}, func(int, struct{}, error) {})
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("job %d ran %d times, want 1", i, got)
		}
	}
}

func TestMapEdgeCases(t *testing.T) {
	if out := collect(t, 0, 3, func(i int) int { return i }); len(out) != 3 {
		t.Fatalf("MapEach with workers=0 (default) delivered %v, want 3 results", out)
	}
	if out := collect(t, -1, 1, func(int) int { return 7 }); len(out) != 1 || out[0] != 7 {
		t.Fatalf("MapEach n=1 delivered %v", out)
	}
}

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != DefaultWorkers() {
		t.Fatalf("Resolve(0) = %d, want %d", got, DefaultWorkers())
	}
	if got := Resolve(-3); got != DefaultWorkers() {
		t.Fatalf("Resolve(-3) = %d, want %d", got, DefaultWorkers())
	}
	if got := Resolve(5); got != 5 {
		t.Fatalf("Resolve(5) = %d, want 5", got)
	}
}

func TestMapEachDeliversInOrderExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		n := 25
		var got []int
		var errs int
		MapEach(workers, n, func(i int) (int, error) {
			// Reverse-staggered finish order stresses the reorder buffer.
			time.Sleep(time.Duration(n-i) * time.Millisecond / 8)
			if i%7 == 3 {
				return 0, errTest
			}
			return i * 10, nil
		}, func(i int, v int, err error) {
			if err != nil {
				errs++
				if i%7 != 3 {
					t.Fatalf("workers=%d: unexpected error at index %d", workers, i)
				}
				return
			}
			if v != i*10 {
				t.Fatalf("workers=%d: index %d delivered %d, want %d", workers, i, v, i*10)
			}
			got = append(got, i)
		})
		want := 0
		for _, i := range got {
			for want%7 == 3 {
				want++
			}
			if i != want {
				t.Fatalf("workers=%d: delivery order %v breaks at %d", workers, got, i)
			}
			want++
		}
		if errs != 4 { // indices 3, 10, 17, 24
			t.Fatalf("workers=%d: delivered %d errors, want 4", workers, errs)
		}
	}
}

var errTest = fmt.Errorf("synthetic job failure")

// TestMapEachMatchesMap checks MapEach's streamed deliveries against a
// plain loop mapping the job over every index.
func TestMapEachMatchesMap(t *testing.T) {
	job := func(i int) []int64 {
		rng := rand.New(rand.NewSource(int64(i)))
		vals := make([]int64, 8)
		for j := range vals {
			vals[j] = rng.Int63()
		}
		return vals
	}
	const n = 16
	var want [n][]int64
	for i := range want {
		want[i] = job(i)
	}
	for _, workers := range []int{1, 8} {
		i := 0
		MapEach(workers, n, func(j int) ([]int64, error) { return job(j), nil },
			func(j int, v []int64, err error) {
				if err != nil || j != i {
					t.Fatalf("workers=%d: delivery (%d, %v) out of order at %d", workers, j, err, i)
				}
				for x := range v {
					if v[x] != want[j][x] {
						t.Fatalf("workers=%d: job %d value %d diverges from the plain loop", workers, j, x)
					}
				}
				i++
			})
		if i != n {
			t.Fatalf("workers=%d: %d deliveries, want %d", workers, i, n)
		}
	}
}

func TestMapEachEmptyIsNoop(t *testing.T) {
	MapEach(4, 0, func(i int) (int, error) { return i, nil },
		func(int, int, error) { t.Fatal("deliver called for n=0") })
}
