package scenario

import (
	"reflect"
	"testing"

	"wmsn/internal/sim"
)

// Arena reuse must be invisible: a run drawing storage from a warmed pool
// produces bit-identical results to a fresh GC-managed world, because pools
// carry only empty capacity, never state. Lossy + collisions exercises the
// RNG-sensitive radio paths, faults-free keeps the run quick.
func TestArenaReuseIsInvisible(t *testing.T) {
	cfg := Config{Seed: 11, Protocol: SPR, NumSensors: 30, Side: 120,
		SensorRange: 35, NumGateways: 2, LossRate: 0.1, Collisions: true,
		RunFor: 30 * sim.Second}

	// Reference: no arena (the BuildE path keeps worlds un-pooled).
	fresh := mustBuild(t, cfg).RunTraffic()

	// Several pooled runs in sequence so later ones adopt storage harvested
	// from earlier ones (sync.Pool is per-P; single goroutine makes reuse
	// all but certain, and even a pool miss just degenerates to the
	// reference behavior).
	for i := 0; i < 4; i++ {
		got := mustRun(t, cfg)
		if !reflect.DeepEqual(*got.Metrics, *fresh.Metrics) {
			t.Fatalf("run %d: metrics diverge with arena reuse:\npooled: %+v\nfresh:  %+v",
				i, *got.Metrics, *fresh.Metrics)
		}
		if got.Radio != fresh.Radio {
			t.Fatalf("run %d: radio stats diverge: %+v vs %+v", i, got.Radio, fresh.Radio)
		}
		if got.Energy != fresh.Energy || got.FirstDeath != fresh.FirstDeath ||
			got.SensorsAlive != fresh.SensorsAlive || got.Elapsed != fresh.Elapsed {
			t.Fatalf("run %d: summary diverges: %+v vs %+v", i, got, fresh)
		}
	}
}

// StopAtFirstDeath stops the kernel mid-delivery-batch; harvesting a
// stopped world (pending events still queued) must hand storage back
// without tripping the stale-handle protection on the next run.
func TestArenaHarvestOfStoppedWorld(t *testing.T) {
	cfg := Config{Seed: 3, Protocol: SPR, NumSensors: 20, Side: 100,
		SensorRange: 40, NumGateways: 1, SensorBattery: 0.02,
		StopAtFirstDeath: true, RunFor: 600 * sim.Second}
	fresh := mustBuild(t, cfg).RunTraffic()
	if fresh.FirstDeath < 0 {
		t.Fatal("config never kills a sensor; test needs a mid-run stop")
	}
	for i := 0; i < 3; i++ {
		got := mustRun(t, cfg)
		if !reflect.DeepEqual(*got.Metrics, *fresh.Metrics) || got.FirstDeath != fresh.FirstDeath {
			t.Fatalf("run %d: stopped-world harvest changed results: death %v vs %v",
				i, got.FirstDeath, fresh.FirstDeath)
		}
	}
}
