package network

import (
	"fmt"
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

func TestPowerControlKBasic(t *testing.T) {
	// Four nodes on a line, spacing 10.
	pos := map[packet.NodeID]geom.Point{
		1: {}, 2: {X: 10}, 3: {X: 20}, 4: {X: 30},
	}
	ranges := PowerControlK(pos, 1, 100)
	// Every node's nearest neighbor is 10 m away.
	for id, r := range ranges {
		if r != 10 {
			t.Fatalf("node %v range = %v, want 10", id, r)
		}
	}
	ranges2 := PowerControlK(pos, 2, 100)
	if ranges2[1] != 20 { // node 1 needs to reach node 3
		t.Fatalf("k=2 range for edge node = %v, want 20", ranges2[1])
	}
	if ranges2[2] != 10 { // node 2 has neighbors at 10 on both sides
		t.Fatalf("k=2 range for interior node = %v, want 10", ranges2[2])
	}
}

func TestPowerControlClampsToMax(t *testing.T) {
	pos := map[packet.NodeID]geom.Point{1: {}, 2: {X: 500}}
	ranges := PowerControlK(pos, 1, 100)
	if ranges[1] != 100 || ranges[2] != 100 {
		t.Fatalf("ranges not clamped: %v", ranges)
	}
}

func TestPowerControlMoreNeighborsThanNodes(t *testing.T) {
	pos := map[packet.NodeID]geom.Point{1: {}, 2: {X: 10}, 3: {X: 20}}
	ranges := PowerControlK(pos, 10, 100)
	if ranges[1] != 20 { // reach everyone it can
		t.Fatalf("range = %v, want 20", ranges[1])
	}
	solo := PowerControlK(map[packet.NodeID]geom.Point{7: {}}, 3, 100)
	if solo[7] != 0 {
		t.Fatalf("singleton range = %v, want 0", solo[7])
	}
}

func TestPowerControlPreservesConnectivityOnGrid(t *testing.T) {
	// On a jittered grid, k=4 power control should usually keep the graph
	// connected while shrinking ranges well below the max.
	pos := map[packet.NodeID]geom.Point{}
	i := packet.NodeID(1)
	for x := 0; x < 6; x++ {
		for y := 0; y < 6; y++ {
			pos[i] = geom.Point{X: float64(x) * 20, Y: float64(y) * 20}
			i++
		}
	}
	ranges := PowerControlK(pos, 4, 200)
	g := Build(pos, ranges)
	if !g.Connected() {
		t.Fatal("k=4 power control disconnected a 6x6 grid")
	}
	// Corner nodes need to reach 2 cells away (40 m) for 4 neighbors;
	// everything should still sit far below the 200 m max.
	for id, r := range ranges {
		if r > 41 {
			t.Fatalf("node %v kept range %v; power control ineffective", id, r)
		}
	}
}

func TestApplyRanges(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 1})
	w.AddSensor(1, geom.Point{}, 50, 0, nil)
	dead := w.AddSensor(2, geom.Point{X: 10}, 50, 0, nil)
	dead.Fail()
	ApplyRanges(w, map[packet.NodeID]float64{1: 25, 2: 25, 99: 10})
	if got := w.Device(1).SensorStation().Range(); got != 25 {
		t.Fatalf("range = %v, want 25", got)
	}
}

func TestSleepSchedulerDutyCycle(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 3})
	for i := 1; i <= 20; i++ {
		w.AddSensor(packet.NodeID(i), geom.Point{X: float64(i)}, 30, 0, nil)
	}
	s := NewSleepScheduler(w, 100*sim.Millisecond, 0.3, nil)
	s.Start()
	// Sample listening fraction over several periods.
	samples, listening := 0, 0
	w.Kernel().Every(7*sim.Millisecond, func() {
		for i := 1; i <= 20; i++ {
			d := w.Device(packet.NodeID(i))
			samples++
			if d.SensorStation().Listening() {
				listening++
			}
		}
	})
	w.Run(2 * sim.Second)
	frac := float64(listening) / float64(samples)
	if frac < 0.2 || frac > 0.45 {
		t.Fatalf("listening fraction %v with 30%% duty cycle", frac)
	}
	s.Stop()
	for i := 1; i <= 20; i++ {
		if !w.Device(packet.NodeID(i)).SensorStation().Listening() {
			t.Fatal("Stop did not wake all nodes")
		}
	}
	// After stop, no more transitions occur.
	w.Run(3 * sim.Second)
	for i := 1; i <= 20; i++ {
		if !w.Device(packet.NodeID(i)).SensorStation().Listening() {
			t.Fatal("node slept after Stop")
		}
	}
}

func TestSleepSchedulerFullDutyIsNoop(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 1})
	w.AddSensor(1, geom.Point{}, 30, 0, nil)
	s := NewSleepScheduler(w, 100*sim.Millisecond, 1.0, nil)
	s.Start()
	if w.Kernel().Pending() != 0 {
		t.Fatal("full duty cycle scheduled events")
	}
	// Clamping.
	s2 := NewSleepScheduler(w, 100*sim.Millisecond, 7.0, nil)
	if s2.OnFraction != 1 {
		t.Fatalf("OnFraction = %v, want clamped to 1", s2.OnFraction)
	}
	s3 := NewSleepScheduler(w, 100*sim.Millisecond, -2, nil)
	if s3.OnFraction != 0 {
		t.Fatalf("OnFraction = %v, want clamped to 0", s3.OnFraction)
	}
}

func TestSleepSchedulerExplicitTargets(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 2})
	w.AddSensor(1, geom.Point{}, 30, 0, nil)
	w.AddSensor(2, geom.Point{X: 5}, 30, 0, nil)
	s := NewSleepScheduler(w, 50*sim.Millisecond, 0.1, []packet.NodeID{2})
	s.Start()
	sleptAnySample := false
	w.Kernel().Every(3*sim.Millisecond, func() {
		if !w.Device(1).SensorStation().Listening() {
			t.Error("untargeted node slept")
		}
		if !w.Device(2).SensorStation().Listening() {
			sleptAnySample = true
		}
	})
	w.Run(sim.Second)
	if !sleptAnySample {
		t.Fatal("targeted node never slept")
	}
}

// powerControlField builds a deterministic jittered field of n nodes for the
// PowerControlK benchmarks — no RNG so runs are comparable.
func powerControlField(n int) map[packet.NodeID]geom.Point {
	pos := make(map[packet.NodeID]geom.Point, n)
	for i := 0; i < n; i++ {
		jx := float64((i*7919)%13) / 13
		jy := float64((i*104729)%17) / 17
		pos[packet.NodeID(i+1)] = geom.Point{
			X: float64(i%20)*10 + jx,
			Y: float64(i/20)*10 + jy,
		}
	}
	return pos
}

// PowerControlK must allocate a constant number of objects regardless of
// field size: one output map, one sorted id slice and one reusable distance
// scratch buffer. The original implementation rebuilt the distance slice per
// node (O(n) allocations, with append-growth churn on top).
func TestPowerControlKAllocsConstant(t *testing.T) {
	measure := func(n int) float64 {
		pos := powerControlField(n)
		return testing.AllocsPerRun(10, func() { PowerControlK(pos, 6, 60) })
	}
	small, large := measure(40), measure(200)
	// Allow a little slack for map bucket sizing, but 5x the nodes must not
	// mean 5x the allocations.
	if large > small+8 {
		t.Fatalf("allocations grow with field size: n=40 -> %.0f, n=200 -> %.0f", small, large)
	}
	if large > 24 {
		t.Fatalf("PowerControlK allocates %.0f objects for n=200; scratch buffer not reused", large)
	}
}

func BenchmarkPowerControlK(b *testing.B) {
	for _, n := range []int{50, 200} {
		pos := powerControlField(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PowerControlK(pos, 6, 60)
			}
		})
	}
}
