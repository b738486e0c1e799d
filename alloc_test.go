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
)

// TestEndToEndAllocsPinned pins the heap allocations of the end-to-end
// benchmark workloads over seeds 1-8. Each pin is the highest count and
// each spread the distance down to the lowest seen on go1.24.0 linux/amd64
// in 900 processes (2,400 for SecMLR): run alone, after the other
// workloads, and with -count=3 -cpu 1,4. Every map gets its own random
// hash seed, so map growth, and with it the count, varies a little from
// run to run: by one allocation for SPR and ARQ, by about a hundred for
// SecMLR.
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
		{"spr", sprWorkload, 177_917, 1},
		{"secmlr", secMLRWorkload, 367_223, 116},
		{"arq-on", arqWorkload(0), 200_007, 1},
		{"arq-on-lossy", arqWorkload(0.2), 165_803, 1},
	} {
		t.Run(p.name, func(t *testing.T) {
			got := seedSetMallocs(t, p.cfg)
			t.Logf("%d allocations (pin %d, spread %d, %s)", got, p.pin, p.spread, runtime.Version())
			switch {
			case got > p.pin:
				t.Errorf("%d allocations over seeds 1-8, above the pin %d (%s)", got, p.pin, runtime.Version())
			case got+p.spread < p.pin:
				t.Errorf("%d allocations over seeds 1-8, below the pin %d by more than its spread %d (%s): lower the pin",
					got, p.pin, p.spread, runtime.Version())
			}
		})
	}
}

// seedSetMallocs counts the heap allocations of one pass over seeds 1-8 of
// cfg. A warm-up pass over the same seeds comes first, so every lazily
// built table is filled. Both passes run on one P, and the measured pass
// with the collector off: without them a fixed run's count varies more
// from process to process (over 120 processes without them, SPR's spread
// was 14 allocations and armed ARQ's 11; over 900 with them, 1 each).
func seedSetMallocs(t *testing.T, cfg func(seed int64) wmsn.Config) uint64 {
	t.Helper()
	pass := func() {
		for seed := int64(1); seed <= 8; seed++ {
			res, err := wmsn.RunContext(context.Background(), cfg(seed))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if res.Metrics.Delivered == 0 {
				t.Fatalf("seed %d delivered nothing", seed)
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pass()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
