package attack

import (
	"bytes"
	"testing"

	"wmsn/internal/core"
	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// line returns n points spaced d apart on the x axis.
func line(n int, x0, d float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: x0 + float64(i)*d}
	}
	return pts
}

// mlrNet builds a plain-MLR network: sensors 1..n on a line, gateways at the
// given places (all active, one round forever).
func mlrNet(seed int64, sensors []geom.Point, places []geom.Point, rangeM float64) (*node.World, *core.Metrics, map[packet.NodeID]*core.MLRSensor) {
	w := node.NewWorld(node.Config{Seed: seed})
	m := core.NewMetrics()
	p := core.DefaultParams()
	stacks := map[packet.NodeID]*core.MLRSensor{}
	for i, pos := range sensors {
		id := packet.NodeID(i + 1)
		st := core.NewMLRSensor(p, m)
		stacks[id] = st
		w.AddSensor(id, pos, rangeM, 0, st)
	}
	var gwIDs []packet.NodeID
	sched := make([]int, len(places))
	for i, pos := range places {
		id := packet.NodeID(1000 + i)
		gwIDs = append(gwIDs, id)
		sched[i] = i
		w.AddGateway(id, pos, rangeM, 500, core.NewMLRGateway(p, m))
	}
	r := &core.Rounds{World: w, Places: places, Gateways: gwIDs, RoundLen: sim.Hour, Schedule: [][]int{sched}}
	r.Start()
	return w, m, stacks
}

// secNet builds the equivalent SecMLR network.
func secNet(seed int64, sensors []geom.Point, places []geom.Point, rangeM float64) (*node.World, *core.Metrics, map[packet.NodeID]*core.SecMLRSensor) {
	w := node.NewWorld(node.Config{Seed: seed})
	m := core.NewMetrics()
	p := core.DefaultParams()
	var sensorIDs, gwIDs []packet.NodeID
	for i := range sensors {
		sensorIDs = append(sensorIDs, packet.NodeID(i+1))
	}
	for i := range places {
		gwIDs = append(gwIDs, packet.NodeID(1000+i))
	}
	sKeys, gKeys := core.ProvisionKeys([]byte("attack-test"), sensorIDs, gwIDs, 32)
	stacks := map[packet.NodeID]*core.SecMLRSensor{}
	for i, pos := range sensors {
		id := sensorIDs[i]
		st := core.NewSecMLRSensor(p, m, sKeys[id])
		stacks[id] = st
		w.AddSensor(id, pos, rangeM, 0, st)
	}
	sched := make([]int, len(places))
	for i, pos := range places {
		sched[i] = i
		w.AddGateway(gwIDs[i], pos, rangeM, 500, core.NewSecMLRGateway(p, m, gKeys[gwIDs[i]]))
	}
	r := &core.Rounds{World: w, Places: places, Gateways: gwIDs, RoundLen: sim.Hour, Schedule: [][]int{sched}}
	r.Start()
	return w, m, stacks
}

func TestSinkholeLuresMLRButNotSecMLR(t *testing.T) {
	sensors := line(6, 0, 10)
	places := []geom.Point{{X: 60}}

	// Plain MLR: the sinkhole near the source forges a 1-hop response.
	w, m, ss := mlrNet(1, sensors, places, 12)
	sh := &Sinkhole{FakeGateway: 1000, Place: 0, TTL: 8}
	w.AddSensor(666, geom.Point{X: 5, Y: 5}, 12, 0, sh)
	ss[1].OriginateData([]byte("x"))
	w.Run(20 * sim.Second)
	if m.Delivered != 0 {
		t.Fatalf("MLR delivered %d despite sinkhole", m.Delivered)
	}
	if sh.Counters.Dropped == 0 {
		t.Fatal("sinkhole attracted no traffic; attack setup broken")
	}

	// SecMLR: the forged response cannot carry the gateway's MAC.
	w2, m2, ss2 := secNet(1, sensors, places, 12)
	sh2 := &Sinkhole{FakeGateway: 1000, Place: 0, TTL: 8}
	w2.AddSensor(666, geom.Point{X: 5, Y: 5}, 12, 0, sh2)
	ss2[1].OriginateData([]byte("x"))
	w2.Run(20 * sim.Second)
	if m2.Delivered != 1 {
		t.Fatalf("SecMLR delivered %d under sinkhole, want 1", m2.Delivered)
	}
	if m2.RejectedMAC == 0 {
		t.Fatal("forged RRES was not MAC-rejected")
	}
}

func TestReplayDuplicatesMLRButNotSecMLR(t *testing.T) {
	sensors := line(4, 0, 10)
	places := []geom.Point{{X: 40}}

	w, m, ss := mlrNet(2, sensors, places, 12)
	rp := NewReplayer(2 * sim.Second)
	w.AddSensor(666, geom.Point{X: 35, Y: 3}, 12, 0, rp)
	ss[1].OriginateData([]byte("x"))
	w.Run(20 * sim.Second)
	if m.Delivered != 1 {
		t.Fatalf("MLR delivered %d", m.Delivered)
	}
	if m.Duplicates == 0 {
		t.Fatal("replay produced no duplicate delivery under plain MLR")
	}

	w2, m2, ss2 := secNet(2, sensors, places, 12)
	rp2 := NewReplayer(2 * sim.Second)
	w2.AddSensor(666, geom.Point{X: 35, Y: 3}, 12, 0, rp2)
	ss2[1].OriginateData([]byte("x"))
	w2.Run(20 * sim.Second)
	if m2.Delivered != 1 {
		t.Fatalf("SecMLR delivered %d", m2.Delivered)
	}
	if m2.Duplicates != 0 {
		t.Fatal("SecMLR double-delivered a replay")
	}
	if m2.RejectedReplay == 0 {
		t.Fatal("SecMLR did not reject the replay")
	}
}

func TestHelloFloodMisdirectsMLRButNotSecMLR(t *testing.T) {
	sensors := line(6, 0, 10)
	// Both places host real gateways. The victim first learns genuine
	// routes to both, then the attacker floods "gateway 1001 moved from
	// place 1 to place 0". A plain-MLR sensor believes it and addresses
	// its next reading to gateway 1001 at place 0 — where gateway 1000
	// actually sits and drops the mis-addressed packet.
	places := []geom.Point{{X: 60}, {X: -10}}

	w, m, ss := mlrNet(3, sensors, places, 12)
	ss[1].OriginateData([]byte("before"))
	w.Run(5 * sim.Second)
	if m.Delivered != 1 {
		t.Fatalf("setup: delivered %d", m.Delivered)
	}
	hf := &HelloFlood{Gateway: 1001, Place: 0, PrevPlace: 1, Range: 200,
		Interval: sim.Second, TTL: 8}
	w.AddSensor(666, geom.Point{X: 30, Y: 5}, 12, 0, hf)
	w.Run(w.Kernel().Now() + 3*sim.Second) // forged notifies spread
	ss[1].OriginateData([]byte("after"))
	w.Run(w.Kernel().Now() + 30*sim.Second)
	hf.Stop()
	if m.Delivered != 1 {
		t.Fatalf("MLR delivered %d; hello flood had no effect", m.Delivered)
	}

	w2, m2, ss2 := secNet(3, sensors, places, 12)
	ss2[1].OriginateData([]byte("before"))
	w2.Run(5 * sim.Second)
	hf2 := &HelloFlood{Gateway: 1001, Place: 0, PrevPlace: 1, Range: 200,
		Interval: sim.Second, TTL: 8}
	w2.AddSensor(666, geom.Point{X: 30, Y: 5}, 12, 0, hf2)
	w2.Run(w2.Kernel().Now() + 3*sim.Second)
	ss2[1].OriginateData([]byte("after"))
	w2.Run(w2.Kernel().Now() + 30*sim.Second)
	hf2.Stop()
	if m2.Delivered != 2 {
		t.Fatalf("SecMLR delivered %d under hello flood, want 2", m2.Delivered)
	}
}

func TestSybilPollutesMLRButNotSecMLR(t *testing.T) {
	sensors := line(3, 0, 10)
	places := []geom.Point{{X: 30}}

	w, m, _ := mlrNet(4, sensors, places, 12)
	sy := &Sybil{Identities: []packet.NodeID{201, 202, 203}, Gateway: 1000,
		Place: 0, NextHop: 1000, Interval: sim.Second, TTL: 4}
	w.AddSensor(666, geom.Point{X: 25}, 12, 0, sy)
	w.Run(5 * sim.Second)
	sy.Stop()
	if m.Delivered == 0 {
		t.Fatal("MLR gateway accepted no forged readings; Sybil setup broken")
	}

	w2, m2, _ := secNet(4, sensors, places, 12)
	sy2 := &Sybil{Identities: []packet.NodeID{201, 202, 203}, Gateway: 1000,
		Place: 0, NextHop: 1000, Interval: sim.Second, TTL: 4}
	w2.AddSensor(666, geom.Point{X: 25}, 12, 0, sy2)
	w2.Run(5 * sim.Second)
	sy2.Stop()
	if m2.Delivered != 0 {
		t.Fatalf("SecMLR gateway accepted %d forged readings", m2.Delivered)
	}
	if m2.RejectedMAC == 0 {
		t.Fatal("SecMLR did not reject Sybil data")
	}
}

func TestWormholeShortcutsMLR(t *testing.T) {
	// Long line; wormhole between the source end and the gateway end.
	sensors := line(10, 0, 10)
	places := []geom.Point{{X: 100}}
	w, m, ss := mlrNet(5, sensors, places, 12)
	wh, endA, endB := NewWormhole()
	w.AddSensor(666, geom.Point{X: 2, Y: 4}, 12, 0, endA)  // near source
	w.AddSensor(667, geom.Point{X: 98, Y: 4}, 12, 0, endB) // near gateway
	ss[1].OriginateData([]byte("x"))
	w.Run(20 * sim.Second)
	if wh.Counters.Captured == 0 || wh.Counters.Injected == 0 {
		t.Fatal("wormhole tunneled nothing")
	}
	// The phantom shortcut lures the data into the wormhole, where it dies.
	if m.Delivered != 0 {
		t.Fatalf("MLR delivered %d; wormhole shortcut not chosen", m.Delivered)
	}
	if wh.Counters.Dropped == 0 {
		t.Fatal("no data entered the wormhole")
	}
}

func TestWormholeAgainstSecMLRRecoversByFailover(t *testing.T) {
	// Same shape plus a second, honest gateway reachable the normal way.
	sensors := line(10, 0, 10)
	places := []geom.Point{{X: 100}, {X: -10}}
	w, m, ss := secNet(6, sensors, places, 12)
	wh, endA, endB := NewWormhole()
	w.AddSensor(666, geom.Point{X: 2, Y: 4}, 12, 0, endA)
	w.AddSensor(667, geom.Point{X: 98, Y: 4}, 12, 0, endB)
	ss[1].OriginateData([]byte("x"))
	w.Run(40 * sim.Second)
	// The wormhole defeats path authenticity (known µTESLA/MAC limitation),
	// but the missing ACK triggers failover to the honest gateway.
	if m.Delivered != 1 {
		t.Fatalf("SecMLR delivered %d under wormhole, want 1 via failover (failovers=%d, wormhole=%+v)",
			m.Delivered, m.Failovers, wh.Counters)
	}
	if m.Failovers == 0 && wh.Counters.Dropped > 0 {
		t.Fatal("data died in the wormhole without failover")
	}
}

func TestAckSpoofAgainstSecMLRRejected(t *testing.T) {
	// The spoofer sits on the only short path; a second gateway exists on
	// the other side for failover.
	w := node.NewWorld(node.Config{Seed: 7})
	m := core.NewMetrics()
	p := core.DefaultParams()
	sensorIDs := []packet.NodeID{1, 2, 3, 4}
	gwIDs := []packet.NodeID{1000, 1001}
	sKeys, gKeys := core.ProvisionKeys([]byte("m"), sensorIDs, gwIDs, 16)
	s1 := core.NewSecMLRSensor(p, m, sKeys[1])
	s3 := core.NewSecMLRSensor(p, m, sKeys[3])
	s4 := core.NewSecMLRSensor(p, m, sKeys[4])
	sp := &AckSpoofer{Inner: core.NewSecMLRSensor(p, m, sKeys[2])}
	w.AddSensor(1, geom.Point{X: 0}, 12, 0, s1)
	w.AddSensor(2, geom.Point{X: 10}, 12, 0, sp) // attacker as relay toward gw 1000
	w.AddSensor(3, geom.Point{X: -10}, 12, 0, s3)
	w.AddSensor(4, geom.Point{X: -20}, 12, 0, s4)
	places := []geom.Point{{X: 20}, {X: -30}}
	w.AddGateway(1000, places[0], 12, 500, core.NewSecMLRGateway(p, m, gKeys[1000]))
	w.AddGateway(1001, places[1], 12, 500, core.NewSecMLRGateway(p, m, gKeys[1001]))
	r := &core.Rounds{World: w, Places: places, Gateways: gwIDs, RoundLen: sim.Hour, Schedule: [][]int{{0, 1}}}
	r.Start()

	s1.OriginateData([]byte("x"))
	w.Run(30 * sim.Second)
	if sp.Counters.Injected == 0 {
		t.Skip("spoofer never on path for this topology/seed")
	}
	if m.RejectedMAC == 0 {
		t.Fatal("forged ACK was not MAC-rejected")
	}
	if m.Delivered != 1 {
		t.Fatalf("SecMLR delivered %d under ACK spoofing, want 1 via failover", m.Delivered)
	}
	per := m.PerGateway()
	if per[1001] != 1 {
		t.Fatalf("delivery should have failed over to gw 1001: %v", per)
	}
}

func TestSelectiveForwarderDropProbability(t *testing.T) {
	sensors := line(4, 0, 10)
	places := []geom.Point{{X: 40}}
	w, m, ss := mlrNet(8, sensors, places, 12)
	// Replace node 2's stack... instead add attacker between 1 and 3? The
	// simplest deterministic check: blackhole (DropProb 1) wrapped around a
	// fresh MLR stack placed as the only bridge.
	inner := core.NewMLRSensor(core.DefaultParams(), m)
	sf := &SelectiveForwarder{Inner: inner, DropProb: 1}
	w.AddSensor(50, geom.Point{X: 45, Y: 0}, 12, 0, sf)
	_ = ss
	// Node 50 sits between the line and nothing; instead verify drop
	// counting directly by handing it a data packet.
	sf.HandleMessage(&packet.Packet{Kind: packet.KindData, Origin: 1, Target: 1000,
		Payload: core.EncodePlacePayload(0, nil), TTL: 4})
	if sf.Counters.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", sf.Counters.Dropped)
	}
	// Control traffic passes through to the inner stack (no panic, counted
	// as not-dropped).
	sf.HandleMessage(&packet.Packet{Kind: packet.KindNotify, Origin: 1000, Seq: 1,
		Payload: core.EncodeNotifyPayload(0, int(core.NoPlace), 0), TTL: 4})
	if sf.Counters.Dropped != 1 {
		t.Fatal("control packet wrongly dropped")
	}
	// Own data is never dropped.
	sf.HandleMessage(&packet.Packet{Kind: packet.KindData, Origin: 50, Target: 1000,
		Payload: core.EncodePlacePayload(0, nil), TTL: 4})
	if sf.Counters.Dropped != 1 {
		t.Fatal("own packet dropped")
	}
}

// TestNodeRandDeterministicPerNode pins the attacker RNG contract: the
// stream is a pure function of (scenario seed, node ID), identical across
// calls and distinct across nodes — never the kernel's per-lane RNG.
func TestNodeRandDeterministicPerNode(t *testing.T) {
	draw := func(seed int64, id packet.NodeID) [4]float64 {
		r := NodeRand(seed, id)
		var out [4]float64
		for i := range out {
			out[i] = r.Float64()
		}
		return out
	}
	if draw(7, 3) != draw(7, 3) {
		t.Fatal("same (seed, node) produced different streams")
	}
	if draw(7, 3) == draw(7, 4) {
		t.Fatal("adjacent nodes share an RNG stream")
	}
	if draw(7, 3) == draw(8, 3) {
		t.Fatal("different scenario seeds share an RNG stream")
	}
}

// TestSpecValidateAndNames covers the declarative campaign surface: every
// kind has a stable name, round-trips through ParseKind, and bad knobs are
// rejected.
func TestSpecValidateAndNames(t *testing.T) {
	for _, name := range KindNames() {
		k, ok := ParseKind(name)
		if !ok || k.String() != name {
			t.Fatalf("kind %q does not round-trip (parsed %v ok=%v)", name, k, ok)
		}
	}
	if _, ok := ParseKind("quantum-teleport"); ok {
		t.Fatal("ParseKind accepted an unknown name")
	}
	valid := Spec{Kind: KindReplay, Delay: sim.Second, MaxCopies: 10}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, bad := range []Spec{
		{Kind: 200},
		{Kind: KindSelectiveForward, DropProb: -0.5},
		{Kind: KindReplay, Jitter: -sim.Second},
		{Kind: KindSpoofedRouting, Interval: -sim.Second},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("bad spec %+v validated", bad)
		}
	}
}

// TestSpecInstantiateBindsWithoutStart verifies the compromise path: the
// materialized adversary is bound to the device, wraps the inner stack, and
// the victim's radio is promiscuous exactly for the kinds that eavesdrop.
func TestSpecInstantiateBindsWithoutStart(t *testing.T) {
	cases := []struct {
		spec    Spec
		promisc bool
	}{
		{Spec{Kind: KindSelectiveForward}, false},
		{Spec{Kind: KindBlackhole}, false},
		{Spec{Kind: KindReplay}, true},
		{Spec{Kind: KindSinkhole, FakeGateway: 1000}, true},
		{Spec{Kind: KindSpoofedRouting, FakeGateway: 1000}, false},
	}
	for _, tc := range cases {
		t.Run(tc.spec.String(), func(t *testing.T) {
			w := node.NewWorld(node.Config{Seed: 1})
			inner := core.NewMLRSensor(core.DefaultParams(), core.NewMetrics())
			w.AddSensor(1, geom.Point{}, 35, 0, inner)
			d := w.Device(1)
			st := tc.spec.Instantiate(d, d.Stack(), NodeRand(1, 1), nil)
			if st == d.Stack() {
				t.Fatal("Instantiate returned the inner stack unchanged")
			}
			d.SwapStack(st)
			if d.Promiscuous() != tc.promisc {
				t.Fatalf("promiscuous = %v, want %v", d.Promiscuous(), tc.promisc)
			}
			// The adversary must be live without Start: feeding it frames
			// must not panic on a nil device binding. Like every stack, it
			// must leave the frames it is handed unmodified, including
			// through the replays and forgeries it sends later.
			frames := []*packet.Packet{
				{Kind: packet.KindData, To: 1, Origin: 2, From: 2, Target: 1000, Seq: 1, TTL: 4,
					Payload: core.EncodePlacePayload(0, []byte("reading"))},
				{Kind: packet.KindRReq, To: packet.Broadcast, Origin: 2, From: 2, Target: packet.Broadcast,
					Seq: 2, TTL: 4, Path: []packet.NodeID{2}, Payload: []byte{1, 2, 3}},
			}
			for _, f := range frames {
				before := f.Marshal()
				st.HandleMessage(f)
				w.Run(w.Kernel().Now() + sim.Minute)
				if !bytes.Equal(before, f.Marshal()) {
					t.Fatalf("%v frame modified by its handler", f.Kind)
				}
			}
		})
	}
}
