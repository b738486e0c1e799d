package core

import (
	"math/rand"
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/network"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// sprWorld builds a world of sensors at the given positions plus gateways,
// all running SPR, and returns the world, the metrics, and the stacks.
func sprWorld(t testing.TB, seed int64, sensors []geom.Point, gateways []geom.Point, rangeM float64) (*node.World, *Metrics, map[packet.NodeID]*SPRSensor) {
	t.Helper()
	w := node.NewWorld(node.Config{Seed: seed})
	m := NewMetrics()
	p := DefaultParams()
	stacks := make(map[packet.NodeID]*SPRSensor)
	for i, pos := range sensors {
		id := packet.NodeID(i + 1)
		st := NewSPRSensor(p, m)
		stacks[id] = st
		w.AddSensor(id, pos, rangeM, 0, st)
	}
	for i, pos := range gateways {
		id := packet.NodeID(1000 + i)
		w.AddGateway(id, pos, rangeM, 500, NewSPRGateway(p, m))
	}
	return w, m, stacks
}

// line returns n points spaced d apart on the x axis starting at x0.
func line(n int, x0, d float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: x0 + float64(i)*d}
	}
	return pts
}

func TestSPRDeliversOverMultipleHops(t *testing.T) {
	// Sensors at x=0..40, gateway at x=50, range 12: 5 hops from node 1.
	w, m, stacks := sprWorld(t, 1, line(5, 0, 10), []geom.Point{{X: 50}}, 12)
	stacks[1].OriginateData([]byte("reading"))
	w.Run(5 * sim.Second)
	if m.Delivered != 1 {
		t.Fatalf("delivered %d, want 1 (generated %d, dropped %d)", m.Delivered, m.Generated, m.DroppedNoRoute)
	}
	if got := m.MeanHops(); got != 5 {
		t.Fatalf("hops = %v, want 5", got)
	}
	if m.MeanLatency() <= 0 {
		t.Fatal("latency not recorded")
	}
	r := stacks[1].BestRoute()
	if r == nil || r.Gateway != 1000 || r.Hops != 5 {
		t.Fatalf("best route = %+v", r)
	}
}

func TestSPRFindsBFSOptimalPaths(t *testing.T) {
	// Random connected topology; every sensor's discovered hop count must
	// equal the BFS optimum (loss-free medium, Property 1/E12 oracle).
	rng := rand.New(rand.NewSource(42))
	var sensors []geom.Point
	for i := 0; i < 60; i++ {
		sensors = append(sensors, geom.Point{X: rng.Float64() * 180, Y: rng.Float64() * 180})
	}
	gws := []geom.Point{{X: 30, Y: 30}, {X: 150, Y: 150}}
	w, m, stacks := sprWorld(t, 7, sensors, gws, 45)
	g := network.FromWorld(w)
	if !g.Connected() {
		t.Skip("random topology disconnected; try another seed")
	}
	gwIDs := []packet.NodeID{1000, 1001}
	for id, st := range stacks {
		_ = id
		st.OriginateData([]byte("x"))
	}
	w.Run(30 * sim.Second)
	if m.DeliveryRatio() < 1 {
		t.Fatalf("delivery ratio %v, want 1 on loss-free medium", m.DeliveryRatio())
	}
	for id, st := range stacks {
		r := st.BestRoute()
		if r == nil {
			t.Fatalf("sensor %v has no route", id)
		}
		_, wantHops := g.NearestOf(id, gwIDs)
		if r.Hops != wantHops {
			t.Errorf("sensor %v found %d hops, BFS optimum %d", id, r.Hops, wantHops)
		}
	}
}

func TestSPRSecondPacketUsesTables(t *testing.T) {
	w, m, stacks := sprWorld(t, 1, line(4, 0, 10), []geom.Point{{X: 40}}, 12)
	stacks[1].OriginateData([]byte("a"))
	w.Run(3 * sim.Second)
	rreqAfterFirst := m.RReqSent
	stacks[1].OriginateData([]byte("b"))
	w.Run(6 * sim.Second)
	if m.Delivered != 2 {
		t.Fatalf("delivered %d, want 2", m.Delivered)
	}
	if m.RReqSent != rreqAfterFirst {
		t.Fatalf("second packet triggered discovery: RREQ %d -> %d", rreqAfterFirst, m.RReqSent)
	}
}

func TestSPROnPathNodesLearnRoutes(t *testing.T) {
	w, _, stacks := sprWorld(t, 1, line(4, 0, 10), []geom.Point{{X: 40}}, 12)
	stacks[1].OriginateData([]byte("a"))
	w.Run(3 * sim.Second)
	// Nodes 2,3,4 are on the installed path; each should have a route with
	// the correct suffix hop count (step 5.2).
	for i, wantHops := range map[packet.NodeID]int{2: 3, 3: 2, 4: 1} {
		r, ok := stacks[i].Table()[1000]
		if !ok {
			t.Fatalf("node %v did not learn a route", i)
		}
		if r.Hops != wantHops {
			t.Fatalf("node %v learned %d hops, want %d", i, r.Hops, wantHops)
		}
	}
}

func TestSPRCachedRouteAnswersQueries(t *testing.T) {
	w, m, stacks := sprWorld(t, 1, line(6, 0, 10), []geom.Point{{X: 60}}, 12)
	stacks[1].OriginateData([]byte("a"))
	w.Run(3 * sim.Second)
	// Node 1's flood installed routes on 2..6. A later discovery by a
	// fresh flood from node 1 again... instead check the shortcut: node 2's
	// own discovery should be answered by an on-path node without the
	// flood reaching the gateway as a new path.
	rreqBefore := m.RReqSent
	stacks[2].OriginateData([]byte("b"))
	w.Run(6 * sim.Second)
	if m.Delivered != 2 {
		t.Fatalf("delivered %d, want 2", m.Delivered)
	}
	// Node 2 already had a table entry from the first flow's path install,
	// so it should not even flood (best != nil short-circuit).
	if m.RReqSent != rreqBefore {
		t.Fatalf("cached-route node flooded anyway: %d -> %d", rreqBefore, m.RReqSent)
	}
}

func TestSPRPicksNearestOfMultipleGateways(t *testing.T) {
	// Node 1 at x=0: gateway A at x=20 (2 hops), gateway B at x=90 (far).
	w, m, stacks := sprWorld(t, 1, line(9, 0, 10), []geom.Point{{X: 20}, {X: 90}}, 12)
	// All nodes send; each should pick its closer gateway.
	for _, st := range stacks {
		st.OriginateData([]byte("x"))
	}
	w.Run(10 * sim.Second)
	if m.DeliveryRatio() < 1 {
		t.Fatalf("delivery ratio %v", m.DeliveryRatio())
	}
	if r := stacks[1].BestRoute(); r == nil || r.Gateway != 1000 {
		t.Fatalf("node 1 best = %+v, want gw 1000", r)
	}
	if r := stacks[9].BestRoute(); r == nil || r.Gateway != 1001 {
		t.Fatalf("node 9 best = %+v, want gw 1001", r)
	}
	per := m.PerGateway()
	if per[1000] == 0 || per[1001] == 0 {
		t.Fatalf("both gateways should carry load: %v", per)
	}
}

func TestSPRUnreachableGatewayDropsAfterRetries(t *testing.T) {
	// Gateway far out of range of everyone.
	w, m, stacks := sprWorld(t, 1, line(3, 0, 10), []geom.Point{{X: 500}}, 12)
	stacks[1].OriginateData([]byte("x"))
	stacks[1].OriginateData([]byte("y"))
	w.Run(20 * sim.Second)
	if m.Delivered != 0 {
		t.Fatal("delivered to unreachable gateway")
	}
	if m.DroppedNoRoute != 2 {
		t.Fatalf("DroppedNoRoute = %d, want 2", m.DroppedNoRoute)
	}
	if stacks[1].BestRoute() != nil {
		t.Fatal("route invented to unreachable gateway")
	}
	// Retries happened: initial flood + 2 retries = 3 RREQ from origin at
	// least (no forwarding since others also flooded... at minimum 3).
	if m.RReqSent < 3 {
		t.Fatalf("RReqSent = %d, want >= 3 (retries)", m.RReqSent)
	}
}

func TestSPRQueueLimit(t *testing.T) {
	w, m, stacks := sprWorld(t, 1, line(2, 0, 10), []geom.Point{{X: 500}}, 12)
	st := NewSPRSensor(DefaultParams(), m)
	w.AddSensor(99, geom.Point{X: 5, Y: 5}, 12, 0, st)
	for i := 0; i < queueLimit+7; i++ {
		st.OriginateData([]byte{byte(i)})
	}
	if m.DroppedQueue != 7 {
		t.Fatalf("DroppedQueue = %d, want 7", m.DroppedQueue)
	}
	_ = stacks
	w.Run(time10s())
}

func time10s() sim.Time { return 10 * sim.Second }

func TestSPRGatewayUplinkCallback(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 1})
	m := NewMetrics()
	p := DefaultParams()
	var uplinked []uint32
	gw := NewSPRGateway(p, m)
	gw.Uplink = func(origin packet.NodeID, seq uint32, payload []byte) {
		uplinked = append(uplinked, seq)
		if string(payload) != "pay" {
			t.Errorf("payload = %q", payload)
		}
	}
	w.AddGateway(1000, geom.Point{X: 10}, 30, 100, gw)
	st := NewSPRSensor(p, m)
	w.AddSensor(1, geom.Point{}, 30, 0, st)
	st.OriginateData([]byte("pay"))
	w.Run(5 * sim.Second)
	if len(uplinked) != 1 {
		t.Fatalf("uplink called %d times", len(uplinked))
	}
}

// An SPR sensor with adverts off still relays a liveness advert it hears
// and notes its gateway as alive. That first note makes the liveness map,
// which sensors start without, so the sensor must neither panic nor stop
// routing.
func TestSPRAdvertWithAdvertsOff(t *testing.T) {
	w, m, stacks := sprWorld(t, 1, line(3, 0, 10), []geom.Point{{X: 30}}, 12)
	if stacks[2].lastHeard != nil {
		t.Fatal("a sensor that heard no gateway has a liveness map")
	}
	stacks[2].HandleMessage(&packet.Packet{
		Kind: packet.KindNotify, From: 3, To: packet.Broadcast, Origin: 1000,
		Target: packet.Broadcast, Seq: 1, TTL: TTL, Payload: marshalAdvert(NoPlace),
	})
	if _, ok := stacks[2].lastHeard[1000]; !ok {
		t.Fatal("the advert did not mark gateway 1000 as heard")
	}
	stacks[1].OriginateData([]byte("reading"))
	w.Run(5 * sim.Second)
	if m.Delivered != 1 {
		t.Fatalf("delivered %d after the advert, want 1", m.Delivered)
	}
}

func TestSPRDirectNeighborOfGateway(t *testing.T) {
	w, m, stacks := sprWorld(t, 1, []geom.Point{{X: 0}}, []geom.Point{{X: 10}}, 15)
	stacks[1].OriginateData([]byte("x"))
	w.Run(3 * sim.Second)
	if m.Delivered != 1 || m.MeanHops() != 1 {
		t.Fatalf("delivered=%d hops=%v, want 1/1", m.Delivered, m.MeanHops())
	}
}

func TestSPRSurvivesLossyMedium(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 5})
	// Rebuild with loss: need custom world config.
	cfg := node.Config{Seed: 5}
	cfg.SensorRadio.BitRate = 250_000
	cfg.SensorRadio.LossRate = 0.1
	w = node.NewWorld(cfg)
	m := NewMetrics()
	p := DefaultParams()
	stacks := map[packet.NodeID]*SPRSensor{}
	for i, pos := range line(5, 0, 10) {
		id := packet.NodeID(i + 1)
		st := NewSPRSensor(p, m)
		stacks[id] = st
		w.AddSensor(id, pos, 15, 0, st)
	}
	w.AddGateway(1000, geom.Point{X: 55}, 15, 100, NewSPRGateway(p, m))
	for i := 0; i < 20; i++ {
		for _, st := range stacks {
			st.OriginateData([]byte("x"))
		}
		w.Run(w.Kernel().Now() + sim.Second)
	}
	w.Run(w.Kernel().Now() + 10*sim.Second)
	if m.DeliveryRatio() < 0.5 {
		t.Fatalf("delivery ratio %v under 10%% loss; protocol too fragile", m.DeliveryRatio())
	}
	if m.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestSPRDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, uint64, float64) {
		w, m, stacks := sprWorld(t, 99, line(10, 0, 10), []geom.Point{{X: 105}}, 15)
		for _, st := range stacks {
			st.OriginateData([]byte("x"))
		}
		w.Run(20 * sim.Second)
		return m.Delivered, m.RReqSent, m.MeanHops()
	}
	d1, r1, h1 := run()
	d2, r2, h2 := run()
	if d1 != d2 || r1 != r2 || h1 != h2 {
		t.Fatalf("non-deterministic: (%d,%d,%v) vs (%d,%d,%v)", d1, r1, h1, d2, r2, h2)
	}
}

func TestBestOfTieBreak(t *testing.T) {
	rs := []Route{
		{Gateway: 1002, Hops: 3, Path: []packet.NodeID{1, 2, 3, 1002}},
		{Gateway: 1000, Hops: 3, Path: []packet.NodeID{1, 4, 5, 1000}},
		{Gateway: 1001, Hops: 4, Path: []packet.NodeID{1, 2, 3, 4, 1001}},
	}
	b := bestOf(rs)
	if b.Gateway != 1000 {
		t.Fatalf("tie break chose %v", b.Gateway)
	}
	if bestOf(nil) != nil {
		t.Fatal("bestOf(nil) != nil")
	}
}

func TestRouteHelpers(t *testing.T) {
	r := Route{Gateway: 9, Place: 2, Hops: 2, Path: []packet.NodeID{1, 5, 9}}
	if r.NextHop() != 5 {
		t.Fatalf("NextHop = %v", r.NextHop())
	}
	if (Route{Path: []packet.NodeID{7}}).NextHop() != 7 {
		t.Fatal("single-element path NextHop")
	}
	if (Route{}).NextHop() != packet.None {
		t.Fatal("empty path NextHop")
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSeenSetBounded(t *testing.T) {
	s := packet.NewDedupe(10)
	for i := uint32(0); i < 100; i++ {
		if s.Check(1, i) {
			t.Fatalf("fresh key %d reported seen", i)
		}
	}
	if s.Len() > 10 {
		t.Fatalf("seen set grew to %d > limit", s.Len())
	}
	if !s.Check(1, 99) {
		t.Fatal("just-inserted key not seen")
	}
}

func TestMetricsAggregates(t *testing.T) {
	m := NewMetrics()
	m.RecordGenerated(1, 1, 0)
	m.RecordGenerated(1, 2, 100)
	m.RecordDelivered(1, 1, 1000, 3, 1000)
	m.RecordDelivered(1, 1, 1000, 3, 2000) // duplicate
	if m.Delivered != 1 || m.Duplicates != 1 {
		t.Fatalf("delivered/dup = %d/%d", m.Delivered, m.Duplicates)
	}
	if m.DeliveryRatio() != 0.5 {
		t.Fatalf("ratio = %v", m.DeliveryRatio())
	}
	if m.MeanHops() != 3 {
		t.Fatalf("hops = %v", m.MeanHops())
	}
	if m.MeanLatency() != 1000 {
		t.Fatalf("latency = %v", m.MeanLatency())
	}
	if m.LatencyPercentile(50) != 1000 || m.LatencyPercentile(100) != 1000 {
		t.Fatal("percentiles wrong")
	}
	if NewMetrics().DeliveryRatio() != 1 {
		t.Fatal("empty ratio should be 1")
	}
	if NewMetrics().LatencyPercentile(99) != 0 || NewMetrics().MeanHops() != 0 || NewMetrics().MeanLatency() != 0 {
		t.Fatal("empty metric aggregates should be 0")
	}
	if m.GatewayLoadImbalance() != 1 {
		t.Fatalf("imbalance = %v, want 1 for single gateway", m.GatewayLoadImbalance())
	}
	if NewMetrics().GatewayLoadImbalance() != 0 {
		t.Fatal("empty imbalance should be 0")
	}
}
