package baseline

import (
	"testing"

	"wmsn/internal/core"
	"wmsn/internal/energy"
	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

func line(n int, x0, d float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: x0 + float64(i)*d}
	}
	return pts
}

func TestFloodingDelivers(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 1})
	m := core.NewMetrics()
	stacks := map[packet.NodeID]*Flooding{}
	for i, pos := range line(6, 0, 10) {
		id := packet.NodeID(i + 1)
		st := NewFlooding(m, 16)
		stacks[id] = st
		w.AddSensor(id, pos, 12, 0, st)
	}
	w.AddGateway(1000, geom.Point{X: 60}, 12, 100, NewSink(m))
	stacks[1].OriginateData([]byte("x"))
	w.Run(10 * sim.Second)
	if m.Delivered != 1 {
		t.Fatalf("delivered %d", m.Delivered)
	}
	// Implosion: every node transmitted the packet once.
	if m.DataSent != 6 {
		t.Fatalf("DataSent = %d, want 6 (every node floods once)", m.DataSent)
	}
	if m.MeanHops() != 6 {
		t.Fatalf("hops = %v, want 6", m.MeanHops())
	}
}

func TestFloodingTTLBounds(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 1})
	m := core.NewMetrics()
	var first *Flooding
	for i, pos := range line(10, 0, 10) {
		st := NewFlooding(m, 3) // too few hops to cross 9 links
		if first == nil {
			first = st
		}
		w.AddSensor(packet.NodeID(i+1), pos, 12, 0, st)
	}
	w.AddGateway(1000, geom.Point{X: 100}, 12, 100, NewSink(m))
	first.OriginateData([]byte("x"))
	w.Run(10 * sim.Second)
	if m.Delivered != 0 {
		t.Fatal("TTL-limited flood crossed the whole network")
	}
	if m.DataSent > 4 {
		t.Fatalf("DataSent = %d despite TTL 3", m.DataSent)
	}
}

func TestDirectDrainsEdgeNodesFaster(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 1, EnergyModel: energy.DefaultFirstOrder})
	m := core.NewMetrics()
	sink := packet.NodeID(1000)
	sinkPos := geom.Point{X: 0}
	near := NewDirect(m, sink, geom.Point{X: 20}.Dist(sinkPos))
	far := NewDirect(m, sink, geom.Point{X: 200}.Dist(sinkPos))
	dNear := w.AddSensor(1, geom.Point{X: 20}, 12, 1.0, near)
	dFar := w.AddSensor(2, geom.Point{X: 200}, 12, 1.0, far)
	w.AddGateway(sink, sinkPos, 250, 300, NewSink(m))
	for i := 0; i < 50; i++ {
		near.OriginateData([]byte("x"))
		far.OriginateData([]byte("x"))
	}
	w.Run(20 * sim.Second)
	if m.Delivered != 100 {
		t.Fatalf("delivered %d, want 100", m.Delivered)
	}
	if dFar.Battery().Used() <= dNear.Battery().Used() {
		t.Fatalf("far node used %g <= near %g; quadratic cost missing",
			dFar.Battery().Used(), dNear.Battery().Used())
	}
	if m.MeanHops() != 1 {
		t.Fatalf("hops = %v, want 1", m.MeanHops())
	}
}

func TestMCFABuildsCostFieldAndDelivers(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 1})
	m := core.NewMetrics()
	stacks := map[packet.NodeID]*MCFA{}
	for i, pos := range line(6, 0, 10) {
		id := packet.NodeID(i + 1)
		st := NewMCFA(m, 16)
		stacks[id] = st
		w.AddSensor(id, pos, 12, 0, st)
	}
	w.AddGateway(1000, geom.Point{X: 60}, 12, 100, NewMCFASink(m, 16))
	w.Run(2 * sim.Second) // let the beacon flood settle
	// Cost field: node 6 (adjacent to sink) = 1, node 1 = 6.
	for i, want := range map[packet.NodeID]int{1: 6, 2: 5, 3: 4, 4: 3, 5: 2, 6: 1} {
		if got := stacks[i].Cost(); got != want {
			t.Fatalf("node %v cost = %d, want %d", i, got, want)
		}
	}
	stacks[1].OriginateData([]byte("x"))
	w.Run(w.Kernel().Now() + 5*sim.Second)
	if m.Delivered != 1 {
		t.Fatalf("delivered %d", m.Delivered)
	}
	if m.MeanHops() != 6 {
		t.Fatalf("hops = %v, want 6 (gradient descent)", m.MeanHops())
	}
}

func TestMCFADropsWithoutBeacon(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 1})
	m := core.NewMetrics()
	st := NewMCFA(m, 16)
	w.AddSensor(1, geom.Point{}, 12, 0, st)
	// No sink, no beacon: origination must count as no-route.
	st.OriginateData([]byte("x"))
	w.Run(sim.Second)
	if m.DroppedNoRoute != 1 || m.Delivered != 0 {
		t.Fatalf("dropped=%d delivered=%d", m.DroppedNoRoute, m.Delivered)
	}
}

func TestMCFAOffGradientNodesStaySilent(t *testing.T) {
	// Y topology: the packet from the stem must not be amplified back up.
	w := node.NewWorld(node.Config{Seed: 1})
	m := core.NewMetrics()
	stacks := map[packet.NodeID]*MCFA{}
	add := func(id packet.NodeID, p geom.Point) {
		st := NewMCFA(m, 16)
		stacks[id] = st
		w.AddSensor(id, p, 12, 0, st)
	}
	add(1, geom.Point{X: 0})
	add(2, geom.Point{X: 10})
	add(3, geom.Point{X: 20})        // on gradient toward sink
	add(4, geom.Point{X: 10, Y: 10}) // same cost as 2; off gradient for 1->sink
	w.AddGateway(1000, geom.Point{X: 30}, 12, 100, NewMCFASink(m, 16))
	w.Run(2 * sim.Second)
	stacks[1].OriginateData([]byte("x"))
	w.Run(w.Kernel().Now() + 5*sim.Second)
	if m.Delivered != 1 {
		t.Fatalf("delivered %d", m.Delivered)
	}
	// 4's cost equals 2's; 4 hears 2's relay (cost 3 -> its 3 not less) and
	// must not forward.
	if m.DataSent > 3 {
		t.Fatalf("DataSent = %d; off-gradient amplification", m.DataSent)
	}
}

func TestLEACHElectionThreshold(t *testing.T) {
	m := core.NewMetrics()
	l := NewLEACH(m, 0.2, 1000, geom.Point{}, 50)
	// Never been head: positive threshold.
	if l.threshold(0) <= 0 {
		t.Fatal("fresh node has zero election probability")
	}
	// Just served: ineligible for the rest of the epoch (1/P = 5 rounds).
	l.lastCH = 3
	for r := 3; r < 8; r++ {
		if l.threshold(r) != 0 {
			t.Fatalf("round %d: recent head eligible again too soon", r)
		}
	}
	if l.threshold(8) <= 0 {
		t.Fatal("node not re-eligible after epoch")
	}
	// Threshold rises across the epoch.
	fresh := NewLEACH(m, 0.2, 1000, geom.Point{}, 50)
	if fresh.threshold(4) <= fresh.threshold(0) {
		t.Fatalf("threshold not increasing: T(0)=%v T(4)=%v", fresh.threshold(0), fresh.threshold(4))
	}
	// Invalid P falls back to the classic 0.05.
	if NewLEACH(m, 7, 1000, geom.Point{}, 50).P != 0.05 {
		t.Fatal("invalid P not defaulted")
	}
}

func TestLEACHRoundsClusterAndDeliver(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 11, EnergyModel: energy.DefaultFirstOrder})
	m := core.NewMetrics()
	sinkID := packet.NodeID(1000)
	sinkPos := geom.Point{X: 250, Y: 50}
	var stacks []*LEACH
	rng := w.Kernel().Rand()
	region := geom.Square(100)
	for i, pos := range (geom.Uniform{}).Deploy(40, region, rng) {
		st := NewLEACH(m, 0.1, sinkID, sinkPos, 40)
		stacks = append(stacks, st)
		w.AddSensor(packet.NodeID(i+1), pos, 30, 5.0, st)
	}
	w.AddGateway(sinkID, sinkPos, 300, 300, NewLEACHSink(m))
	rounds := &LEACHRounds{World: w, Stacks: stacks, RoundLen: 5 * sim.Second}
	rounds.Start()

	// Each node reports once per second.
	rep := w.Kernel().Every(sim.Second, func() {
		for _, st := range stacks {
			st.OriginateData([]byte("t"))
		}
	})
	w.Run(30 * sim.Second)
	rep.Stop()
	rounds.Stop()
	// Flush the tail by starting one more round.
	for _, st := range stacks {
		st.beginRound(rounds.Round() + 1)
	}
	w.Run(w.Kernel().Now() + 5*sim.Second)

	if m.DeliveryRatio() < 0.9 {
		t.Fatalf("delivery ratio %v; clustering broken (delivered %d of %d)",
			m.DeliveryRatio(), m.Delivered, m.Generated)
	}
	// Heads existed: advertisement traffic happened.
	if m.NotifySent == 0 {
		t.Fatal("no cluster-head advertisements")
	}
	// Aggregation: far fewer long-hop data transmissions than readings.
	if m.DataSent >= m.Generated {
		t.Fatalf("DataSent %d >= Generated %d; aggregation is not working", m.DataSent, m.Generated)
	}
}

func TestLEACHHeadRotationSpreadsEnergy(t *testing.T) {
	// With rotation, no node should be head in two consecutive epochs, so
	// max energy use should be bounded relative to the mean.
	w := node.NewWorld(node.Config{Seed: 5, EnergyModel: energy.DefaultFirstOrder})
	m := core.NewMetrics()
	sinkID := packet.NodeID(1000)
	sinkPos := geom.Point{X: 150}
	var stacks []*LEACH
	for i, pos := range line(10, 0, 10) {
		st := NewLEACH(m, 0.2, sinkID, sinkPos, 60)
		stacks = append(stacks, st)
		w.AddSensor(packet.NodeID(i+1), pos, 30, 5.0, st)
	}
	w.AddGateway(sinkID, sinkPos, 300, 300, NewLEACHSink(m))
	rounds := &LEACHRounds{World: w, Stacks: stacks, RoundLen: 2 * sim.Second}
	rounds.Start()
	headCounts := map[int]int{}
	w.Kernel().Every(2*sim.Second+sim.Millisecond, func() {
		for i, st := range stacks {
			if st.IsClusterHead() {
				headCounts[i]++
			}
		}
	})
	rep := w.Kernel().Every(sim.Second, func() {
		for _, st := range stacks {
			st.OriginateData([]byte("t"))
		}
	})
	w.Run(60 * sim.Second)
	rep.Stop()
	rounds.Stop()
	heads := 0
	for _, c := range headCounts {
		if c > 0 {
			heads++
		}
	}
	if heads < 5 {
		t.Fatalf("only %d distinct nodes ever led a cluster; rotation broken (%v)", heads, headCounts)
	}
}

func TestSinkIgnoresNonData(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 1})
	m := core.NewMetrics()
	w.AddGateway(1000, geom.Point{X: 5}, 30, 100, NewSink(m))
	d := w.AddSensor(1, geom.Point{}, 30, 0, NewFlooding(m, 8))
	d.Send(&packet.Packet{Kind: packet.KindHello, From: 1, To: packet.Broadcast,
		Origin: 1, Target: packet.Broadcast, TTL: 1})
	w.Run(sim.Second)
	if m.Delivered != 0 {
		t.Fatal("sink recorded a HELLO as data")
	}
}
