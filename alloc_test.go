//go:build !race

// The race detector allocates for its own bookkeeping, and not the same
// amount from run to run, so the pins are not built under -race.

package wmsn_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"wmsn"
	"wmsn/internal/experiments"
)

// TestEndToEndAllocsPinned pins the heap allocations of the end-to-end
// benchmark workloads over seeds 1-8. Each pin is the highest count and
// each spread the distance down to the lowest seen on go1.24.0 linux/amd64
// in 860 processes: 400 of the whole test, 360 runs with -count=3 -cpu
// 1,4 and 100 of each workload alone. Every map gets its own random hash
// seed, so map growth, and with it the count, varies a little from run to
// run. SPR and armed ARQ on the clean medium read their pin in 5 and 3 of
// the 860 and one less in the rest. Armed ARQ on the lossy medium read
// 153,862 in 833, 153,863 in 26 and 153,864 in 1, so its spread is 2.
// SecMLR's count moves by about a hundred, and its range kept widening
// with the number of processes: 121 over 2,200 processes of an earlier
// version, 124 (356,606-356,730) over 1,720 processes of this one.
//
// A count above its pin is a regression. A count below pin-spread means
// allocations were removed: lower the pin, re-measure the spread over many
// processes, and say so in CHANGES.md. Read the counts with
// go test -count=1 -run EndToEndAllocsPinned -v .
func TestEndToEndAllocsPinned(t *testing.T) {
	for _, p := range []struct {
		name        string
		cfg         func(seed int64) wmsn.Config
		pin, spread uint64
	}{
		{"spr", sprWorkload, 164_081, 1},
		{"secmlr", secMLRWorkload, 356_730, 124},
		{"arq-on", arqWorkload(0), 186_167, 1},
		{"arq-on-lossy", arqWorkload(0.2), 153_864, 2},
	} {
		t.Run(p.name, func(t *testing.T) {
			requirePin(t, seedSetMallocs(t, p.cfg), p.pin, p.spread, "over seeds 1-8")
		})
	}
}

// TestScaleAllocsPinned pins the heap allocations of the two calls
// wmsnbench -scale makes, at 2,000 sensors on its field seed: the hop
// sweep over m = 1, 4 and 16 on one worker, and the broadcast wave. The
// graph is a few flat arrays and every reception lives inside its batch,
// so neither count grows with the edges or the receptions; per-vertex map
// entries or per-reception heap objects would multiply them. Pins and
// spreads were measured as TestEndToEndAllocsPinned's were, and the sweep
// alone over 2,000 processes more. The sweep read its pin, one allocation
// more than usual, in 2 of the 760 runs of the whole test; alone, in none
// of 1,000 processes on an otherwise idle machine and in 28 of 1,000
// beside a second process running the whole test (see mallocs).
func TestScaleAllocsPinned(t *testing.T) {
	const n, seed = 2000, 901
	for _, p := range []struct {
		name        string
		call        func()
		pin, spread uint64
	}{
		{"sweep", func() { experiments.ScaleSweep(experiments.Opts{Workers: 1}, n, []int{1, 4, 16}, seed) }, 137, 1},
		{"traffic", func() { experiments.ScaleTraffic(experiments.Opts{}, n, seed) }, 17_177, 1},
	} {
		t.Run(p.name, func(t *testing.T) {
			requirePin(t, mallocs(p.call), p.pin, p.spread, "at 2,000 sensors")
		})
	}
}

// requirePin fails t unless got lies within [pin-spread, pin].
func requirePin(t *testing.T, got, pin, spread uint64, what string) {
	t.Helper()
	t.Logf("%d allocations (pin %d, spread %d, %s)", got, pin, spread, runtime.Version())
	switch {
	case got > pin:
		t.Errorf("%d allocations %s, above the pin %d (%s)", got, what, pin, runtime.Version())
	case got+spread < pin:
		t.Errorf("%d allocations %s, below the pin %d by more than its spread %d (%s): lower the pin",
			got, what, pin, spread, runtime.Version())
	}
}

// seedSetMallocs counts the heap allocations of one pass over seeds 1-8 of
// cfg.
func seedSetMallocs(t *testing.T, cfg func(seed int64) wmsn.Config) uint64 {
	t.Helper()
	return mallocs(func() {
		for seed := int64(1); seed <= 8; seed++ {
			res, err := wmsn.RunContext(context.Background(), cfg(seed))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if res.Metrics.Delivered == 0 {
				t.Fatalf("seed %d delivered nothing", seed)
			}
		}
	})
}

// mallocs counts the heap allocations of one call of pass. A warm-up call
// comes first, so every lazily built table is filled. Every call runs on
// one P, and the measured one with the collector off: without them a fixed
// run's count varies more from process to process (over 120 processes
// without them, SPR's spread was 14 allocations and armed ARQ's 11; over
// 900 with them, 1 each).
//
// A second warm-up call runs with the collector already off. A collection
// empties every sync.Pool's per-P array, and the pool's next Get allocates
// it again (sync.Pool.pinSlow: the array, and at times a longer list of
// pools). A collection that began after the first warm-up's last
// fmt.Sprintf and before the measured call would add one or two
// allocations to the measured count; a forced runtime.GC() at that point
// adds two, both in pinSlow under ScaleSweep's first fmt.Sprintf. The
// second warm-up refills the pools, and no collection can empty them
// again before the measured call.
//
// The runtime still allocates for itself now and then inside the measured
// call, which is why no spread here is 0. It builds a type assertion's
// cache on a random miss, about one in 1,024 (runtime.typeAssert), at one
// allocation. Over 5,400 processes of the sweep alone, profiled with every
// allocation recorded (runtime.MemProfileRate = 1), 10 read one more: 8
// had the extra allocation there, under the rand.New of sim.NewKernel.
// The other 2, both beside a second process running the whole test,
// showed no extra allocation site in the profile, so what allocated there
// is not known.
func mallocs(pass func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pass()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
