package experiments

import (
	"testing"
	"time"

	"wmsn/internal/geom"
	"wmsn/internal/network"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/placement"
	"wmsn/internal/radio"
	"wmsn/internal/sim"
)

// The hot-path work (grid topology construction, multi-source hop
// evaluation, batched radio delivery) exists so that field sizes two orders
// of magnitude beyond the paper's figures stay interactive. These tests pin
// that property: an E1-style 10k-node placement sweep and a 10k-sensor
// traffic smoke must complete in seconds, not minutes. CI runs this file
// under -race as the scalability smoke job.

const scaleN = 10_000

// scaleField deploys scaleN sensors at the same density E1 uses
// (300 sensors on a 300 m side).
func scaleField(seed int64) (sensors []geom.Point, side float64, w *node.World) {
	side = 300 * 5.7735 // ≈ side·√(10000/300): constant density vs E1
	w = node.NewWorld(node.Config{Seed: seed})
	sensors = (geom.Uniform{}).Deploy(scaleN, geom.Square(side), w.Kernel().Rand())
	return sensors, side, w
}

func TestScale10kPlacementSweep(t *testing.T) {
	start := time.Now()
	sensors, side, w := scaleField(901)
	prev := -1.0
	for _, m := range []int{1, 4, 16} {
		gpos := (placement.Grid{}).Place(sensors, m, geom.Square(side), w.Kernel().Rand())
		ev := placement.Evaluate(sensors, gpos, 40)
		if ev.AvgHops <= 0 {
			t.Fatalf("m=%d: no sensor reaches a gateway (unreachable=%d)", m, ev.Unreachable)
		}
		if frac := float64(ev.Unreachable) / scaleN; frac > 0.05 {
			t.Fatalf("m=%d: %.1f%% of the field unreachable; density regression", m, 100*frac)
		}
		if prev > 0 && ev.AvgHops >= prev {
			t.Fatalf("more gateways did not reduce avg hops: %v -> %v at m=%d", prev, ev.AvgHops, m)
		}
		prev = ev.AvgHops
		t.Logf("m=%2d: avg %.2f hops, max %d, unreachable %d", m, ev.AvgHops, ev.MaxHops, ev.Unreachable)
	}
	t.Logf("3-point sweep over %d nodes in %v", scaleN, time.Since(start))
}

// TestScale10kConnectivity exercises the grid Build + component analysis at
// scale: the constant-density field must form one dominant component.
func TestScale10kConnectivity(t *testing.T) {
	sensors, _, _ := scaleField(902)
	pos := make(map[packet.NodeID]geom.Point, len(sensors))
	ranges := make(map[packet.NodeID]float64, len(sensors))
	for i, p := range sensors {
		pos[packet.NodeID(i+1)] = p
		ranges[packet.NodeID(i+1)] = 40
	}
	g := network.Build(pos, ranges)
	comps := g.Components()
	if len(comps) == 0 || len(comps[0]) < scaleN*9/10 {
		t.Fatalf("field fragmented: %d components, largest %d", len(comps), len(comps[0]))
	}
	if d := g.AvgDegree(); d < 5 || d > 60 {
		t.Fatalf("avg degree %.1f outside the expected constant-density band", d)
	}
}

// TestScale10kRadioSmoke pushes one broadcast from every one of 10k
// stations through the shared medium — ~300k deliveries at this density —
// exercising the spatial grid lookup and batched delivery path end to end.
// (A full SPR run at 10k is out of CI reach by design: per-sensor route
// discovery floods are O(n²·degree) no matter how fast each delivery is.)
func TestScale10kRadioSmoke(t *testing.T) {
	start := time.Now()
	sensors, _, w := scaleField(903)
	k := w.Kernel()
	m := radio.New(k, radio.SensorRadio())
	received := 0
	for i, p := range sensors {
		m.Attach(packet.NodeID(i+1), p, 40, radio.HandlerFunc(func(*packet.Packet) { received++ }))
	}
	for i := range sensors {
		st := m.Station(packet.NodeID(i + 1))
		pkt := &packet.Packet{Kind: packet.KindHello, From: st.ID(), Origin: st.ID(),
			To: packet.Broadcast, Target: packet.Broadcast, TTL: 1}
		k.After(sim.Duration(i)*sim.Microsecond, func() { m.Transmit(st, pkt) })
	}
	k.RunAll()
	if received < scaleN { // every station must have live neighbors
		t.Fatalf("only %d receptions across a 10k broadcast wave", received)
	}
	avgDeg := float64(received) / scaleN
	if avgDeg < 5 || avgDeg > 60 {
		t.Fatalf("average %.1f receivers per broadcast; outside the constant-density band", avgDeg)
	}
	t.Logf("10k broadcasts, %d deliveries (%.1f per tx) in %v",
		received, avgDeg, time.Since(start))
}
