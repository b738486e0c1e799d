package scenario

import (
	"sync"

	"wmsn/internal/radio"
	"wmsn/internal/sim"
)

// runArena bundles the recycled per-run storage — pooled kernel events and
// the two radio media's delivery/batch/scratch buffers. Sweeps (RunEach,
// the E-experiments) build and tear down thousands of worlds whose steady
// state is nearly identical, so recycling this storage removes the bulk of
// per-run allocation without touching simulation behavior: pools carry only
// empty capacity, never live state.
//
// An arena is owned by exactly one run at a time. RunContext threads it
// through node.Config, and World.ReleasePools hands the storage back after
// the result is summarized. It is deliberately NOT part of the public Config
// (Result.Cfg copies Config into every result, which must stay inert data).
type runArena struct {
	events sim.EventPool
	sensor radio.Pool
	mesh   radio.Pool
}

// arenas recycles runArenas across runs and goroutines. sync.Pool gives
// per-P caches, so parallel RunEach workers effectively each keep their own
// arena hot, and idle arenas are reclaimed by the GC rather than pinned.
var arenas = sync.Pool{New: func() any { return new(runArena) }}
