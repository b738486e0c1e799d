package scenario

import (
	"encoding/json"
	"testing"

	"wmsn/internal/metrics"
	"wmsn/internal/sim"
)

// TestWorkerCountAggregateIdentical pins the merge side of the contract: the
// aggregate of a sweep, folded in submission order, is byte-identical at any
// worker count — histogram Merge is order-independent and the fold order is
// pinned, so parallelism cannot leak into the numbers.
func TestWorkerCountAggregateIdentical(t *testing.T) {
	var cfgs []Config
	for s := 0; s < 6; s++ {
		cfgs = append(cfgs, Config{Protocol: SPR, Seed: int64(s), NumSensors: 60, RunFor: 30 * sim.Second})
	}
	snap := func(workers int) string {
		agg := metrics.NewAggregate()
		for _, r := range mustRunEach(t, workers, cfgs) {
			agg.Absorb(r.Metrics)
		}
		b, err := json.Marshal(agg.Snapshot())
		if err != nil {
			t.Fatalf("marshal aggregate: %v", err)
		}
		return string(b)
	}
	seq, par := snap(1), snap(8)
	if seq != par {
		t.Fatalf("aggregate snapshot differs between workers=1 and workers=8\nworkers=1: %s\nworkers=8: %s", seq, par)
	}
}

// TestRunPublishesProgress checks the live watermark end to end through the
// scenario layer: a run with Config.Progress set publishes virtual time,
// event and delivery counts, and marks itself done — with the delivery count
// agreeing exactly with the run's metrics.
func TestRunPublishesProgress(t *testing.T) {
	board := NewProgressBoard(1)
	cfg := Config{Protocol: SPR, Seed: 3, NumSensors: 60, RunFor: 30 * sim.Second,
		Progress: board.Run(0)}
	r := mustRun(t, cfg)
	p := board.Snapshot(true)
	if p.DoneRuns != 1 || !p.PerRun[0].Done {
		t.Fatalf("run not marked done: %+v", p)
	}
	if p.Deliveries != r.Metrics.Delivered {
		t.Errorf("progress deliveries %d != metrics delivered %d", p.Deliveries, r.Metrics.Delivered)
	}
	if p.Events == 0 || p.SimTimeS <= 0 {
		t.Errorf("watermark missing events/time: %+v", p)
	}
}
