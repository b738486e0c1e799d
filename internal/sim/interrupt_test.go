package sim

import (
	"sync/atomic"
	"testing"
)

// A pre-set interrupt flag must stop every run loop at entry, before any
// event executes.
func TestInterruptPreSetStopsImmediately(t *testing.T) {
	for name, run := range map[string]func(*Kernel) uint64{
		"Run":    func(k *Kernel) uint64 { return k.Run(Second) },
		"RunAll": func(k *Kernel) uint64 { return k.RunAll() },
	} {
		k := NewKernel(1)
		fired := 0
		var reschedule func()
		reschedule = func() {
			fired++
			k.After(Millisecond, reschedule)
		}
		k.After(0, reschedule)
		var flag atomic.Bool
		flag.Store(true)
		k.SetInterrupt(&flag)
		if got := run(k); got != 0 {
			t.Errorf("%s with pre-set interrupt executed %d events, want 0", name, got)
		}
		if fired != 0 {
			t.Errorf("%s fired %d callbacks despite pre-set interrupt", name, fired)
		}
	}
}

// A flag set mid-run must stop the loop within one interrupt stride of
// events, not at the horizon.
func TestInterruptMidRunStopsWithinStride(t *testing.T) {
	k := NewKernel(1)
	var flag atomic.Bool
	k.SetInterrupt(&flag)
	var reschedule func()
	count := 0
	reschedule = func() {
		count++
		if count == 10 {
			// Simulate an external canceler: the flag flips while the loop is
			// mid-batch. (Setting it from a callback is safe too — atomics.)
			flag.Store(true)
		}
		k.After(Millisecond, reschedule)
	}
	k.After(0, reschedule)
	ran := k.Run(Hour)
	if ran == 0 {
		t.Fatal("run stopped before any event despite unset flag")
	}
	if ran > 10+interruptStride {
		t.Fatalf("interrupt honored after %d events, want within %d of the set point", ran, interruptStride)
	}
	if k.Now() >= Hour {
		t.Fatalf("clock reached the horizon (%v); the interrupt did not stop the run", k.Now())
	}
}

// An installed but never-set flag must not change what runs.
func TestInterruptUnsetFlagIsInert(t *testing.T) {
	fired := func(install bool) (uint64, Time) {
		k := NewKernel(7)
		if install {
			var flag atomic.Bool
			k.SetInterrupt(&flag)
		}
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < 20000 {
				k.After(Microsecond, tick)
			}
		}
		k.After(0, tick)
		return k.Run(Hour), k.Now()
	}
	nPlain, tPlain := fired(false)
	nFlag, tFlag := fired(true)
	if nPlain != nFlag || tPlain != tFlag {
		t.Fatalf("armed-but-quiet interrupt changed the run: %d@%v vs %d@%v",
			nFlag, tFlag, nPlain, tPlain)
	}
}
