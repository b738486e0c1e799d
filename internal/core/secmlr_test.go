package core

import (
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
	"wmsn/internal/wsncrypto"
)

// secWorld builds a SecMLR deployment. Sensor IDs are 1..n, gateway IDs
// 1000+i. Returns sensor stacks and gateway stacks keyed by ID.
func secWorld(t testing.TB, seed int64, sensors []geom.Point, places []geom.Point,
	schedule [][]int, roundLen sim.Duration, rangeM float64) (*node.World, *Metrics,
	map[packet.NodeID]*SecMLRSensor, map[packet.NodeID]*SecMLRGateway, *Rounds) {
	t.Helper()
	w := node.NewWorld(node.Config{Seed: seed})
	m := NewMetrics()
	p := DefaultParams()

	var sensorIDs, gwIDs []packet.NodeID
	for i := range sensors {
		sensorIDs = append(sensorIDs, packet.NodeID(i+1))
	}
	for i := range schedule[0] {
		gwIDs = append(gwIDs, packet.NodeID(1000+i))
	}
	sKeys, gKeys := ProvisionKeys([]byte("test-master"), sensorIDs, gwIDs, 64)

	sStacks := make(map[packet.NodeID]*SecMLRSensor)
	for i, pos := range sensors {
		id := sensorIDs[i]
		st := NewSecMLRSensor(p, m, sKeys[id])
		sStacks[id] = st
		w.AddSensor(id, pos, rangeM, 0, st)
	}
	gStacks := make(map[packet.NodeID]*SecMLRGateway)
	for i, id := range gwIDs {
		st := NewSecMLRGateway(p, m, gKeys[id])
		gStacks[id] = st
		w.AddGateway(id, places[schedule[0][i]], rangeM, 500, st)
	}
	r := &Rounds{World: w, Places: places, Gateways: gwIDs, RoundLen: roundLen, Schedule: schedule}
	r.Start()
	return w, m, sStacks, gStacks, r
}

func TestSecMLRDeliversAndAcks(t *testing.T) {
	sensors := line(6, 0, 10)
	places := []geom.Point{{X: 60}, {X: -10}}
	w, m, ss, _, _ := secWorld(t, 1, sensors, places, [][]int{{0, 1}}, sim.Hour, 12)
	ss[3].OriginateData([]byte("secret reading"))
	w.Run(10 * sim.Second)
	if m.Delivered != 1 {
		t.Fatalf("delivered %d (generated %d, noroute %d, abandoned %d)",
			m.Delivered, m.Generated, m.DroppedNoRoute, m.AbandonedData)
	}
	if m.AckSent == 0 {
		t.Fatal("no ACK traffic")
	}
	if m.Failovers != 0 {
		t.Fatalf("spurious failovers: %d", m.Failovers)
	}
	if m.AbandonedData != 0 {
		t.Fatalf("abandoned: %d", m.AbandonedData)
	}
	// Node 3 at x=20: place 1 (x=-10) is 3 hops, place 0 (x=60) is 4 hops.
	best := ss[3].BestRoute()
	if best == nil || best.Place != 1 || best.Hops != 3 {
		t.Fatalf("best = %+v, want place 1, 3 hops", best)
	}
	// Both places verified end to end.
	if len(ss[3].VerifiedRoutes()) != 2 {
		t.Fatalf("verified routes: %v", ss[3].VerifiedRoutes())
	}
}

func TestSecMLRPayloadConfidentialAndIntact(t *testing.T) {
	sensors := line(4, 0, 10)
	places := []geom.Point{{X: 40}}
	w, _, ss, gs, _ := secWorld(t, 1, sensors, places, [][]int{{0}}, sim.Hour, 12)
	var got []byte
	gs[1000].Uplink = func(origin packet.NodeID, seq uint32, payload []byte) {
		got = append([]byte(nil), payload...)
	}
	ss[1].OriginateData([]byte("plaintext-reading"))
	w.Run(10 * sim.Second)
	if string(got) != "plaintext-reading" {
		t.Fatalf("gateway decrypted %q", got)
	}
}

func TestSecMLRGatewayRejectsForgedRReq(t *testing.T) {
	// An attacker floods an RREQ claiming to be sensor 1 without the key.
	sensors := line(3, 0, 10)
	places := []geom.Point{{X: 30}}
	w, m, _, _, _ := secWorld(t, 1, sensors, places, [][]int{{0}}, sim.Hour, 12)
	atk := w.AddSensor(666, geom.Point{X: 25}, 12, 0, nil)
	forged := &packet.Packet{
		Kind: packet.KindRReq, From: 666, To: packet.Broadcast,
		Origin: 1, Target: packet.Broadcast, Seq: 77, TTL: 8,
		Path: []packet.NodeID{1},
		Payload: marshalRReqBlocks([]rreqBlock{{
			Gateway: 1000, Counter: 1, Cipher: 0x00,
			MAC: make([]byte, wsncrypto.MACSize),
		}}),
	}
	atk.Send(forged)
	w.Run(5 * sim.Second)
	if m.RejectedMAC == 0 {
		t.Fatal("forged RREQ not rejected")
	}
	if m.RResSent != 0 {
		t.Fatal("gateway answered a forged RREQ")
	}
}

func TestSecMLRGatewayRejectsUnknownSensor(t *testing.T) {
	sensors := line(3, 0, 10)
	places := []geom.Point{{X: 30}}
	w, m, _, _, _ := secWorld(t, 1, sensors, places, [][]int{{0}}, sim.Hour, 12)
	// Sybil identity 999 was never provisioned.
	atk := w.AddSensor(999, geom.Point{X: 25}, 12, 0, nil)
	forged := &packet.Packet{
		Kind: packet.KindRReq, From: 999, To: packet.Broadcast,
		Origin: 999, Target: packet.Broadcast, Seq: 1, TTL: 8,
		Path: []packet.NodeID{999},
		Payload: marshalRReqBlocks([]rreqBlock{{
			Gateway: 1000, Counter: 1, Cipher: 0x00,
			MAC: make([]byte, wsncrypto.MACSize),
		}}),
	}
	atk.Send(forged)
	w.Run(5 * sim.Second)
	if m.RejectedMAC == 0 {
		t.Fatal("Sybil RREQ not rejected")
	}
}

// TestSecMLRReplayedDataRejected replays a captured DATA frame, then sends
// the captured route request again: verbatim, which the gateway drops as a
// late copy of a concluded request, and under a fresh seq, which still
// fails the counter check as a replay.
func TestSecMLRReplayedDataRejected(t *testing.T) {
	sensors := line(4, 0, 10)
	places := []geom.Point{{X: 40}}
	w, m, ss, _, _ := secWorld(t, 1, sensors, places, [][]int{{0}}, sim.Hour, 12)

	// A promiscuous eavesdropper near the gateway captures data packets
	// and the first route request it hears.
	var captured, capturedRReq *packet.Packet
	capStack := &captureStack{onData: func(p *packet.Packet) {
		switch {
		case p.Kind == packet.KindData && p.Sec != nil:
			captured = p.Clone()
		case p.Kind == packet.KindRReq && capturedRReq == nil:
			capturedRReq = p.Clone()
		}
	}}
	atk := w.AddSensor(666, geom.Point{X: 35}, 12, 0, capStack)
	atk.SetPromiscuous(true)

	ss[1].OriginateData([]byte("reading"))
	w.Run(10 * sim.Second)
	if m.Delivered != 1 || captured == nil || capturedRReq == nil {
		t.Fatalf("setup failed: delivered=%d captured=%v rreq=%v", m.Delivered, captured != nil, capturedRReq != nil)
	}
	// Replay the captured packet verbatim.
	replays := m.RejectedReplay
	rep := captured.Clone()
	rep.From = 666
	atk.Send(rep)
	w.Run(w.Kernel().Now() + 5*sim.Second)
	if m.RejectedReplay <= replays {
		t.Fatal("replayed data not rejected by counter check")
	}
	if m.Delivered != 1 {
		t.Fatalf("replay double-delivered: %d", m.Delivered)
	}

	// The concluded route request sent again verbatim is a late copy.
	replays, late, answered := m.RejectedReplay, m.LateRReqCopies, m.RResSent
	again := *capturedRReq
	again.From = 666
	atk.Send(&again)
	w.Run(w.Kernel().Now() + 5*sim.Second)
	if m.LateRReqCopies != late+1 || m.RejectedReplay != replays {
		t.Fatalf("verbatim RREQ: late copies %d -> %d, replays %d -> %d; want one late copy, no replay",
			late, m.LateRReqCopies, replays, m.RejectedReplay)
	}
	// Its block under a fresh seq is a replay. Relays forward that request,
	// so the gateway's later copies of it count as late.
	fresh := *capturedRReq
	fresh.From = 666
	fresh.Seq += 100
	atk.Send(&fresh)
	w.Run(w.Kernel().Now() + 5*sim.Second)
	if m.RejectedReplay != replays+1 {
		t.Fatalf("RREQ block under a fresh seq: replays %d -> %d, want one replay", replays, m.RejectedReplay)
	}
	if m.RResSent != answered {
		t.Fatalf("gateway answered a resent route request (RRES %d -> %d)", answered, m.RResSent)
	}
}

// captureStack is a passive attacker stack used by tests.
type captureStack struct {
	dev    *node.Device
	onData func(*packet.Packet)
}

func (c *captureStack) Start(dev *node.Device)         { c.dev = dev }
func (c *captureStack) HandleMessage(p *packet.Packet) { c.onData(p) }

func TestSecMLRTamperedDataRejected(t *testing.T) {
	sensors := line(4, 0, 10)
	places := []geom.Point{{X: 40}}
	w, m, ss, _, _ := secWorld(t, 1, sensors, places, [][]int{{0}}, sim.Hour, 12)
	var captured *packet.Packet
	capStack := &captureStack{onData: func(p *packet.Packet) {
		if p.Kind == packet.KindData && p.Sec != nil && captured == nil {
			captured = p.Clone()
		}
	}}
	atk := w.AddSensor(666, geom.Point{X: 35}, 12, 0, capStack)
	atk.SetPromiscuous(true)
	ss[1].OriginateData([]byte("reading"))
	w.Run(10 * sim.Second)
	if captured == nil {
		t.Fatal("no packet captured")
	}
	// Tamper with the ciphertext, advance the counter to defeat the replay
	// guard, and inject: the MAC check must catch it.
	bad := captured.Clone()
	bad.From = 666
	bad.Seq += 100
	bad.Sec.Counter += 100
	if len(bad.Sec.Cipher) > 0 {
		bad.Sec.Cipher[0] ^= 0xFF
	}
	macBefore := m.RejectedMAC
	atk.Send(bad)
	w.Run(w.Kernel().Now() + 5*sim.Second)
	if m.RejectedMAC <= macBefore {
		t.Fatal("tampered data not rejected by MAC check")
	}
	if m.Delivered != 1 {
		t.Fatalf("tampered packet delivered: %d", m.Delivered)
	}
}

func TestSecMLRTeslaNotifyFlow(t *testing.T) {
	sensors := line(8, 0, 10)
	places := []geom.Point{{X: 80}, {X: -10}, {X: 45, Y: 10}}
	schedule := [][]int{{0, 1}, {2, 1}}
	roundLen := 10 * sim.Second
	w, m, ss, _, _ := secWorld(t, 2, sensors, places, schedule, roundLen, 15)
	w.Run(2 * sim.Second)
	// After round 0's announce + disclose, sensors must know both places.
	act := ss[4].ActivePlaces()
	if len(act) != 2 {
		t.Fatalf("active after round 0 = %v, want 2 places", act)
	}
	// Round 1: gateway 0 moves to place 2. Sensors apply it only after the
	// TESLA disclosure verifies.
	w.Run(roundLen + 3*sim.Second)
	act = ss[4].ActivePlaces()
	want := map[int]bool{1: true, 2: true}
	if len(act) != 2 || !want[act[0]] || !want[act[1]] {
		t.Fatalf("active after move = %v, want places {1,2}", act)
	}
	if m.RejectedMAC > 0 {
		t.Fatalf("genuine notifies rejected: %d", m.RejectedMAC)
	}
}

func TestSecMLRForgedNotifyNotApplied(t *testing.T) {
	sensors := line(4, 0, 10)
	places := []geom.Point{{X: 40}, {X: -10}}
	w, _, ss, _, _ := secWorld(t, 1, sensors, places, [][]int{{0}}, sim.Hour, 12)
	w.Run(2 * sim.Second)
	if len(ss[2].ActivePlaces()) != 1 {
		t.Fatalf("setup: active = %v", ss[2].ActivePlaces())
	}
	// Attacker forges "gateway 1000 moved to place 1" with a junk tag and
	// then "discloses" a junk key.
	atk := w.AddSensor(666, geom.Point{X: 15}, 12, 0, nil)
	body := mlrNotify{NewPlace: 1, PrevPlace: 0, Round: 5}.marshal()
	ann := append([]byte{notifyAnnounce}, body...)
	ann = append(ann, 0, 9) // interval 9
	ann = append(ann, make([]byte, wsncrypto.MACSize)...)
	atk.Send(&packet.Packet{Kind: packet.KindNotify, From: 666, To: packet.Broadcast,
		Origin: 1000, Target: packet.Broadcast, Seq: 500, TTL: 8, Payload: ann})
	disc := append([]byte{notifyDisclose}, 0, 9)
	disc = append(disc, make([]byte, wsncrypto.KeySize)...)
	atk.Send(&packet.Packet{Kind: packet.KindNotify, From: 666, To: packet.Broadcast,
		Origin: 1000, Target: packet.Broadcast, Seq: 501, TTL: 8, Payload: disc})
	w.Run(w.Kernel().Now() + 5*sim.Second)
	// The forged move must not have been applied: place 0 still active,
	// place 1 never activated.
	act := ss[2].ActivePlaces()
	if len(act) != 1 || act[0] != 0 {
		t.Fatalf("forged notify applied: active = %v", act)
	}
}

func TestSecMLRFailoverOnSelectiveForwarding(t *testing.T) {
	// Diamond: node 1 can reach gateways at both ends; the path to the
	// nearer place goes through a node that silently drops data packets.
	//
	//   gw1001(place1) -- s4 -- s1 -- drop(s2) -- gw1000(place0)
	//
	// Node 1's best route (fewest hops) must be through s2... make place 0
	// closer: 2 hops via s2, place 1 is 3 hops via s4,s5.
	w := node.NewWorld(node.Config{Seed: 9})
	m := NewMetrics()
	p := DefaultParams()
	sensorIDs := []packet.NodeID{1, 2, 4, 5}
	gwIDs := []packet.NodeID{1000, 1001}
	sKeys, gKeys := ProvisionKeys([]byte("master"), sensorIDs, gwIDs, 16)

	ss := map[packet.NodeID]*SecMLRSensor{}
	for _, id := range sensorIDs {
		ss[id] = NewSecMLRSensor(p, m, sKeys[id])
	}
	// Wrap node 2's stack so it drops DATA but forwards everything else.
	dropper := &selectiveDropper{inner: ss[2]}
	w.AddSensor(1, geom.Point{X: 0}, 12, 0, ss[1])
	w.AddSensor(2, geom.Point{X: 10}, 12, 0, dropper)
	w.AddSensor(4, geom.Point{X: -10}, 12, 0, ss[4])
	w.AddSensor(5, geom.Point{X: -20}, 12, 0, ss[5])
	places := []geom.Point{{X: 20}, {X: -30}}
	gw0 := NewSecMLRGateway(p, m, gKeys[1000])
	gw1 := NewSecMLRGateway(p, m, gKeys[1001])
	w.AddGateway(1000, places[0], 12, 500, gw0)
	w.AddGateway(1001, places[1], 12, 500, gw1)
	r := &Rounds{World: w, Places: places, Gateways: gwIDs, RoundLen: sim.Hour, Schedule: [][]int{{0, 1}}}
	r.Start()

	ss[1].OriginateData([]byte("must arrive"))
	w.Run(30 * sim.Second)
	if m.Delivered != 1 {
		t.Fatalf("data lost despite failover: delivered=%d failovers=%d abandoned=%d",
			m.Delivered, m.Failovers, m.AbandonedData)
	}
	if m.Failovers == 0 {
		t.Fatal("no failover recorded; dropper was not on the primary path")
	}
	per := m.PerGateway()
	if per[1001] != 1 {
		t.Fatalf("delivery did not go via the fallback gateway: %v", per)
	}
}

// selectiveDropper forwards control traffic but silently drops DATA — the
// classic selective-forwarding (grayhole) attacker.
type selectiveDropper struct {
	inner   *SecMLRSensor
	Dropped int
}

func (d *selectiveDropper) Start(dev *node.Device) { d.inner.Start(dev) }
func (d *selectiveDropper) HandleMessage(p *packet.Packet) {
	if p.Kind == packet.KindData {
		d.Dropped++
		return
	}
	d.inner.HandleMessage(p)
}

func TestSecMLRAbandonsWhenAllRoutesFail(t *testing.T) {
	// Single gateway behind a dropper: no alternative exists, so after the
	// failover attempts the packet is abandoned — and counted.
	w := node.NewWorld(node.Config{Seed: 9})
	m := NewMetrics()
	p := DefaultParams()
	sensorIDs := []packet.NodeID{1, 2}
	gwIDs := []packet.NodeID{1000}
	sKeys, gKeys := ProvisionKeys([]byte("master"), sensorIDs, gwIDs, 16)
	s1 := NewSecMLRSensor(p, m, sKeys[1])
	s2 := NewSecMLRSensor(p, m, sKeys[2])
	dropper := &selectiveDropper{inner: s2}
	w.AddSensor(1, geom.Point{X: 0}, 12, 0, s1)
	w.AddSensor(2, geom.Point{X: 10}, 12, 0, dropper)
	places := []geom.Point{{X: 20}}
	w.AddGateway(1000, places[0], 12, 500, NewSecMLRGateway(p, m, gKeys[1000]))
	r := &Rounds{World: w, Places: places, Gateways: gwIDs, RoundLen: sim.Hour, Schedule: [][]int{{0}}}
	r.Start()
	s1.OriginateData([]byte("doomed"))
	w.Run(30 * sim.Second)
	if m.Delivered != 0 {
		t.Fatal("delivered through a dropper with no alternative")
	}
	if m.AbandonedData != 1 {
		t.Fatalf("AbandonedData = %d, want 1", m.AbandonedData)
	}
}

func TestSecMLRRReqBlockRoundTrip(t *testing.T) {
	blocks := []rreqBlock{
		{Gateway: 1000, Counter: 7, Cipher: 0xAB, MAC: make([]byte, wsncrypto.MACSize)},
		{Gateway: 1001, Counter: 9, Cipher: 0xCD, MAC: make([]byte, wsncrypto.MACSize)},
	}
	blocks[0].MAC[0] = 1
	blocks[1].MAC[31] = 2
	got, ok := parseRReqBlocks(marshalRReqBlocks(blocks))
	if !ok || len(got) != 2 {
		t.Fatalf("parse failed: %v %v", got, ok)
	}
	for i := range blocks {
		if got[i].Gateway != blocks[i].Gateway || got[i].Counter != blocks[i].Counter ||
			got[i].Cipher != blocks[i].Cipher || string(got[i].MAC) != string(blocks[i].MAC) {
			t.Fatalf("block %d mismatch: %+v vs %+v", i, got[i], blocks[i])
		}
	}
	if _, ok := parseRReqBlocks(nil); ok {
		t.Fatal("parsed empty")
	}
	if _, ok := parseRReqBlocks([]byte{5, 1, 2}); ok {
		t.Fatal("parsed truncated")
	}
	if p, r, ok := parseResBody(resBody(3, 9)); !ok || p != 3 || r != 9 {
		t.Fatalf("resBody round trip: %d %d %v", p, r, ok)
	}
	if _, _, ok := parseResBody([]byte{1}); ok {
		t.Fatal("parsed short resBody")
	}
}

func TestProvisionKeys(t *testing.T) {
	sIDs := []packet.NodeID{1, 2, 3}
	gIDs := []packet.NodeID{100, 200}
	sk, gk := ProvisionKeys([]byte("m"), sIDs, gIDs, 8)
	if len(sk) != 3 || len(gk) != 2 {
		t.Fatalf("provisioned %d/%d", len(sk), len(gk))
	}
	// Pairwise agreement: sensor's key for gateway == gateway's key for
	// sensor, and both ends share the pair's one AES key schedule.
	for _, s := range sIDs {
		for _, g := range gIDs {
			if sk[s].Gateway[g] != gk[g].Sensor[s] {
				t.Fatalf("(%v,%v): the two ends hold different key pairs", s, g)
			}
			if k := sk[s].Gateway[g].Key; k != wsncrypto.DeriveKey([]byte("m"), s, g) {
				t.Fatalf("key mismatch for (%v,%v)", s, g)
			}
		}
	}
	// Distinct pairs get distinct keys.
	if sk[1].Gateway[100].Key == sk[2].Gateway[100].Key || sk[1].Gateway[100].Key == sk[1].Gateway[200].Key {
		t.Fatal("key reuse across pairs")
	}
	// Commitments match each gateway's chain.
	for _, g := range gIDs {
		if string(sk[1].TeslaCommit[g]) != string(gk[g].Tesla.Commitment()) {
			t.Fatalf("commitment mismatch for %v", g)
		}
	}
	if gk[100].Tesla.Intervals() != 8 {
		t.Fatalf("intervals = %d", gk[100].Tesla.Intervals())
	}
}

// TestSecMLRRevocation exercises the captured-node response: after the
// operator revokes a sensor's keys at the gateway, its (otherwise perfectly
// authentic) traffic is rejected like any forgery.
func TestSecMLRRevocation(t *testing.T) {
	sensors := line(4, 0, 10)
	places := []geom.Point{{X: 40}}
	w, m, ss, gs, _ := secWorld(t, 1, sensors, places, [][]int{{0}}, sim.Hour, 12)
	ss[2].OriginateData([]byte("before-capture"))
	w.Run(5 * sim.Second)
	if m.Delivered != 1 {
		t.Fatalf("setup: delivered %d", m.Delivered)
	}
	// Node 2 is detected as captured: revoke it.
	gs[1000].Keys.Revoke(2)
	if !gs[1000].Keys.Revoked(2) {
		t.Fatal("Revoked not recorded")
	}
	macBefore := m.RejectedMAC
	ss[2].OriginateData([]byte("after-capture"))
	w.Run(w.Kernel().Now() + 10*sim.Second)
	if m.Delivered != 1 {
		t.Fatalf("revoked sensor's data delivered: %d", m.Delivered)
	}
	if m.RejectedMAC <= macBefore {
		t.Fatal("revoked traffic not rejected")
	}
	// Other sensors are unaffected.
	ss[1].OriginateData([]byte("healthy"))
	w.Run(w.Kernel().Now() + 10*sim.Second)
	if m.Delivered != 2 {
		t.Fatalf("healthy sensor affected by revocation: %d", m.Delivered)
	}
}
