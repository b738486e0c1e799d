package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"wmsn/internal/sim"
)

// longCfg is a run that takes many wall-clock seconds uncanceled: dense
// field, chatty reporting, ten-hour virtual horizon.
func longCfg(seed int64) Config {
	return Config{
		Seed:           seed,
		Protocol:       SPR,
		NumSensors:     300,
		Side:           300,
		SensorRange:    40,
		NumGateways:    3,
		ReportInterval: 100 * sim.Millisecond,
		RunFor:         10 * sim.Hour,
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := RunContext(ctx, longCfg(1))
	if time.Since(start) > time.Second {
		t.Fatalf("pre-canceled RunContext took %v", time.Since(start))
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
}

func TestRunContextCanceledMidRunReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunContext(ctx, longCfg(2))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// One event batch is 4096 events — microseconds of work. Give the
	// slowest CI machine three orders of magnitude of slack.
	if elapsed > 5*time.Second {
		t.Fatalf("canceled run returned after %v; cancellation is not reaching the kernel", elapsed)
	}
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, longCfg(3))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("deadline run returned after %v", time.Since(start))
	}
}

func TestRunContextInvalidConfigIsNotCanceled(t *testing.T) {
	_, err := RunContext(context.Background(), Config{NumSensors: -1})
	if err == nil || errors.Is(err, ErrCanceled) {
		t.Fatalf("invalid config returned %v, want a non-cancellation error", err)
	}
}

func TestRunContextBackgroundMatchesRunE(t *testing.T) {
	cfg := Config{Seed: 11, Protocol: SPR, NumSensors: 60, RunFor: 30 * sim.Second}
	a, err := RunE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A cancelable-but-never-canceled context must not perturb results
	// either.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]Result{"background": b, "cancelable": c} {
		if got, want := snapshotJSON(t, r), snapshotJSON(t, a); got != want {
			t.Fatalf("%s RunContext diverges from RunE:\n got %s\nwant %s", name, got, want)
		}
		if r.Elapsed != a.Elapsed || r.FirstDeath != a.FirstDeath || r.SensorsAlive != a.SensorsAlive {
			t.Fatalf("%s RunContext summary fields diverge from RunE", name)
		}
	}
}

func snapshotJSON(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r.Metrics.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// RunEach must deliver every index exactly once, ascending, with the same
// bytes RunMany returns — at any worker count.
func TestRunEachOrderAndBytesMatchRunMany(t *testing.T) {
	cfgs := make([]Config, 9)
	for i := range cfgs {
		cfgs[i] = Config{Seed: int64(100 + i), Protocol: SPR, NumSensors: 40 + 5*i, RunFor: 20 * sim.Second}
	}
	want := RunMany(1, append([]Config(nil), cfgs...))
	for _, workers := range []int{1, 4} {
		next := 0
		err := RunEach(context.Background(), workers, cfgs, func(i int, r Result, err error) {
			if err != nil {
				t.Fatalf("workers=%d: run %d failed: %v", workers, i, err)
			}
			if i != next {
				t.Fatalf("workers=%d: delivery order broken: got index %d, want %d", workers, i, next)
			}
			next++
			if got, wantS := snapshotJSON(t, r), snapshotJSON(t, want[i]); got != wantS {
				t.Fatalf("workers=%d: run %d metrics diverge from RunMany:\n got %s\nwant %s", workers, i, got, wantS)
			}
			if r.Elapsed != want[i].Elapsed || r.FirstDeath != want[i].FirstDeath {
				t.Fatalf("workers=%d: run %d summary fields diverge from RunMany", workers, i)
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: RunEach error: %v", workers, err)
		}
		if next != len(cfgs) {
			t.Fatalf("workers=%d: delivered %d results, want %d", workers, next, len(cfgs))
		}
	}
}

func TestRunManyContextCanceledMidSweep(t *testing.T) {
	// A few quick runs, then long ones; cancel once the first quick results
	// are in. Completed results must match direct runs; canceled entries must
	// report errors.
	cfgs := make([]Config, 6)
	quick := Config{Seed: 50, Protocol: SPR, NumSensors: 30, RunFor: 5 * sim.Second}
	for i := range cfgs {
		if i < 2 {
			c := quick
			c.Seed = int64(50 + i)
			cfgs[i] = c
		} else {
			cfgs[i] = longCfg(int64(50 + i))
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	start := time.Now()
	err := RunEach(ctx, 2, cfgs, func(i int, r Result, err error) {
		if err == nil {
			delivered++
			direct, derr := RunE(cfgs[i])
			if derr != nil {
				t.Fatal(derr)
			}
			if snapshotJSON(t, r) != snapshotJSON(t, direct) {
				t.Fatalf("run %d completed before cancel but diverges from a direct run", i)
			}
		} else if !errors.Is(err, ErrCanceled) {
			t.Fatalf("run %d: unexpected error %v", i, err)
		}
		if i == 0 {
			cancel() // first delivery triggers cancellation of the rest
		}
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("RunEach after cancel returned %v, want ErrCanceled", err)
	}
	if delivered == 0 {
		t.Fatal("no run completed before cancellation; the test exercised nothing")
	}
	if time.Since(start) > 30*time.Second {
		t.Fatalf("canceled sweep took %v", time.Since(start))
	}
}

// Canceled runs must not leak goroutines: the AfterFunc watcher is stopped
// and pool workers exit.
func TestCanceledRunsLeakNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		if _, err := RunContext(ctx, longCfg(int64(200+i))); !errors.Is(err, ErrCanceled) {
			t.Fatalf("run %d: %v", i, err)
		}
		cancel()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_ = RunEach(ctx, 4, []Config{longCfg(300), longCfg(301), longCfg(302), longCfg(303)}, nil)

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // let finalizer/timer goroutines settle
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after canceled runs", before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
