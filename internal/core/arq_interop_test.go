package core

import (
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// arqSprWorld builds an SPR world with link ARQ and liveness adverts armed:
// one sensor in direct range of two gateways, so both failure detectors —
// ARQ exhaustion and advert expiry — watch the same dead gateway.
func arqSprWorld(t *testing.T, p Params) (*node.World, *Metrics, *SPRSensor) {
	t.Helper()
	w := node.NewWorld(node.Config{Seed: 11})
	m := NewMetrics()
	st := NewSPRSensor(p, m)
	w.AddSensor(1, geom.Point{}, 15, 0, st)
	w.AddGateway(1000, geom.Point{X: 10}, 15, 500, NewSPRGateway(p, m))
	w.AddGateway(1001, geom.Point{Y: 10}, 15, 500, NewSPRGateway(p, m))
	return w, m, st
}

// TestSPRARQFailureThenAdvertExpiryCountsOneReroute kills the active
// gateway and lets the ARQ verdict land first (short backoff span), with
// the advert sweep expiring the same gateway afterwards. The reroute must
// be credited exactly once, by whichever detector fired first.
func TestSPRARQFailureThenAdvertExpiryCountsOneReroute(t *testing.T) {
	p := DefaultParams()
	p.AdvertInterval = sim.Second
	p.LinkRetries = 2
	p.LinkAckWait = 50 * sim.Millisecond // span 350 ms << 2 s advert deadline
	w, m, st := arqSprWorld(t, p)

	st.OriginateData([]byte("warm"))
	w.Run(5 * sim.Second)
	if m.Delivered != 1 {
		t.Fatalf("warmup not delivered: %d", m.Delivered)
	}
	best := st.BestRoute()
	if best == nil || best.Gateway != 1000 {
		t.Fatalf("best route %+v, want gateway 1000 (tie-break)", best)
	}

	w.Device(1000).Fail()
	st.OriginateData([]byte("recovered"))
	w.Run(15 * sim.Second) // several advert sweeps past the liveness deadline

	if m.Reroutes != 1 {
		t.Fatalf("Reroutes = %d, want exactly 1 (ARQ verdict and advert expiry double-counted?)", m.Reroutes)
	}
	if m.LinkFailures == 0 {
		t.Fatal("no link failure recorded — the ARQ detector never fired")
	}
	if m.Delivered != 2 {
		t.Fatalf("delivered %d, want 2 — the frame lost to the dead hop was not recovered", m.Delivered)
	}
	if r := st.BestRoute(); r == nil || r.Gateway != 1001 {
		t.Fatalf("best route after failover %+v, want gateway 1001", r)
	}
	if err := m.CheckLinkConservation(w.LinkQueueDepth()); err != nil {
		t.Fatal(err)
	}
}

// TestSPRAdvertExpiryThenARQFailureCountsOneReroute reverses the race: the
// ARQ backoff span (3.1 s) outlasts the advert liveness deadline (2 s), so
// the sweep reroutes while the frame is still retrying. When the ARQ
// verdict finally lands it must not credit a second reroute, and the
// retired frame must still be recovered over the new best route.
func TestSPRAdvertExpiryThenARQFailureCountsOneReroute(t *testing.T) {
	p := DefaultParams()
	p.AdvertInterval = sim.Second
	p.LinkRetries = 4
	p.LinkAckWait = 100 * sim.Millisecond // span 3.1 s >> 2 s advert deadline
	w, m, st := arqSprWorld(t, p)

	st.OriginateData([]byte("warm"))
	w.Run(5 * sim.Second)
	if m.Delivered != 1 {
		t.Fatalf("warmup not delivered: %d", m.Delivered)
	}

	w.Device(1000).Fail()
	st.OriginateData([]byte("in-flight during sweep"))
	w.Run(15 * sim.Second)

	if m.Reroutes != 1 {
		t.Fatalf("Reroutes = %d, want exactly 1 (advert sweep then ARQ verdict double-counted?)", m.Reroutes)
	}
	if m.LinkFailures == 0 {
		t.Fatal("no link failure recorded — the frame should have exhausted its budget on the dead hop")
	}
	if m.Delivered != 2 {
		t.Fatalf("delivered %d, want 2 — the retired frame was not re-sent over the post-sweep route", m.Delivered)
	}
	if err := m.CheckLinkConservation(w.LinkQueueDepth()); err != nil {
		t.Fatal(err)
	}
}

// TestMLRARQRedirectsAroundFailedForwarder exercises the mid-path case on a
// place-routed MLR chain: s1 -> s2 -> gateway, with a second gateway in s2's
// direct range. Killing the chain's gateway makes s2's link layer exhaust
// its budget, invalidate the place, and redirect the frame to the surviving
// place — any deployed gateway is a valid sink.
func TestMLRARQRedirectsAroundFailedForwarder(t *testing.T) {
	p := DefaultParams()
	p.LinkRetries = 2
	p.LinkAckWait = 20 * sim.Millisecond
	w := node.NewWorld(node.Config{Seed: 13})
	m := NewMetrics()
	s1 := NewMLRSensor(p, m)
	s2 := NewMLRSensor(p, m)
	w.AddSensor(1, geom.Point{}, 12, 0, s1)
	w.AddSensor(2, geom.Point{X: 10}, 12, 0, s2)
	g1 := NewMLRGateway(p, m)
	g2 := NewMLRGateway(p, m)
	w.AddGateway(1000, geom.Point{X: 20}, 12, 500, g1)
	w.AddGateway(1001, geom.Point{X: 10, Y: 10}, 12, 500, g2)
	rounds := &Rounds{
		World:    w,
		Places:   []geom.Point{{X: 20}, {X: 10, Y: 10}},
		Gateways: []packet.NodeID{1000, 1001},
		RoundLen: sim.Hour,
		Schedule: [][]int{{0, 1}},
	}
	rounds.Start()

	s1.OriginateData([]byte("warm"))
	w.Run(5 * sim.Second)
	if m.Delivered != 1 {
		t.Fatalf("warmup not delivered: %d (no-route drops %d)", m.Delivered, m.DroppedNoRoute)
	}

	w.Device(1000).Fail()
	s1.OriginateData([]byte("redirected"))
	w.Run(10 * sim.Second)

	if m.Delivered != 2 {
		t.Fatalf("delivered %d, want 2 — s2 should redirect the frame to the surviving place", m.Delivered)
	}
	if m.LinkFailures == 0 {
		t.Fatal("no link failure recorded at the forwarder")
	}
	if err := m.CheckLinkConservation(w.LinkQueueDepth()); err != nil {
		t.Fatal(err)
	}
}

// TestSPRARQRediscoveryCreditsRerouteWithoutAdverts loses SPR's only cached
// route to an ARQ verdict with liveness adverts off (E14's setting). With
// no alternative cached, the sensor rediscovers at once, and the discovery
// that installs the new route must credit the reroute and clear the pending
// state, so a second loss later rediscovers and is credited too.
func TestSPRARQRediscoveryCreditsRerouteWithoutAdverts(t *testing.T) {
	p := DefaultParams()
	p.LinkRetries = 2
	p.LinkAckWait = 50 * sim.Millisecond
	w, m, st := arqSprWorld(t, p)

	st.OriginateData([]byte("warm"))
	w.Run(5 * sim.Second)
	if best := st.BestRoute(); best == nil || best.Gateway != 1000 {
		t.Fatalf("best route %+v, want gateway 1000 (tie-break)", best)
	}
	if n := len(st.Table()); n != 1 {
		t.Fatalf("table holds %d routes, want only the chosen one with adverts off", n)
	}

	w.Device(1000).Fail()
	st.OriginateData([]byte("lost with the hop"))
	w.Run(10 * sim.Second)
	if m.Reroutes != 1 {
		t.Fatalf("Reroutes = %d after the first loss, want 1 credited by the rediscovery", m.Reroutes)
	}
	if r := st.BestRoute(); r == nil || r.Gateway != 1001 {
		t.Fatalf("best route after rediscovery %+v, want gateway 1001", r)
	}

	w.Device(1000).Recover()
	w.Device(1001).Fail()
	st.OriginateData([]byte("lost with the second hop"))
	w.Run(15 * sim.Second)
	if m.Reroutes != 2 {
		t.Fatalf("Reroutes = %d after the second loss, want 2 (pending reroute never cleared?)", m.Reroutes)
	}
	if r := st.BestRoute(); r == nil || r.Gateway != 1000 {
		t.Fatalf("best route after the second rediscovery %+v, want gateway 1000", r)
	}
	st.OriginateData([]byte("after"))
	w.Run(20 * sim.Second)
	if m.Delivered != 2 {
		t.Fatalf("delivered %d, want 2 (warmup and the reading after both failovers)", m.Delivered)
	}
	if err := m.CheckLinkConservation(w.LinkQueueDepth()); err != nil {
		t.Fatal(err)
	}
}
