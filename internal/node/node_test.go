package node

import (
	"math"
	"testing"

	"wmsn/internal/energy"
	"wmsn/internal/geom"
	"wmsn/internal/obs"
	"wmsn/internal/packet"
	"wmsn/internal/radio"
	"wmsn/internal/sim"
)

// echoStack records received packets and can reply.
type echoStack struct {
	dev  *Device
	got  []*packet.Packet
	auto bool // rebroadcast every packet once
}

func (s *echoStack) Start(dev *Device) { s.dev = dev }
func (s *echoStack) HandleMessage(p *packet.Packet) {
	s.got = append(s.got, p)
	if s.auto && p.TTL > 1 {
		q := p.Clone()
		q.TTL--
		q.Hops++
		q.From = s.dev.ID()
		s.dev.Send(q)
	}
}

func bcast(from packet.NodeID) *packet.Packet {
	return &packet.Packet{Kind: packet.KindHello, From: from, To: packet.Broadcast,
		Origin: from, Target: packet.Broadcast, TTL: 4}
}

func TestSensorSendReceive(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	a := &echoStack{}
	b := &echoStack{}
	da := w.AddSensor(1, geom.Point{}, 30, 0, a)
	w.AddSensor(2, geom.Point{X: 10}, 30, 0, b)
	if !da.Send(bcast(1)) {
		t.Fatal("Send failed")
	}
	w.RunUntilIdle()
	if len(b.got) != 1 {
		t.Fatalf("receiver got %d packets, want 1", len(b.got))
	}
	if len(a.got) != 0 {
		t.Fatal("sender received own broadcast")
	}
	if da.SentPackets() != 1 || da.SentBytes() == 0 {
		t.Fatalf("sender counters: %d pkts %d bytes", da.SentPackets(), da.SentBytes())
	}
}

func TestEnergyChargedOnTxAndRx(t *testing.T) {
	w := NewWorld(Config{Seed: 1, EnergyModel: energy.FixedPerBit{TxPerBit: 1e-6, RxPerBit: 5e-7}})
	a := w.AddSensor(1, geom.Point{}, 30, 1.0, &echoStack{})
	b := w.AddSensor(2, geom.Point{X: 10}, 30, 1.0, &echoStack{})
	pkt := bcast(1)
	a.Send(pkt)
	w.RunUntilIdle()
	wantTx := float64(pkt.SizeBits()) * 1e-6
	wantRx := float64(pkt.SizeBits()) * 5e-7
	if got := a.Battery().TxUsed(); math.Abs(got-wantTx) > 1e-12 {
		t.Fatalf("tx energy = %g, want %g", got, wantTx)
	}
	if got := b.Battery().RxUsed(); math.Abs(got-wantRx) > 1e-12 {
		t.Fatalf("rx energy = %g, want %g", got, wantRx)
	}
}

func TestOverhearingChargesButDoesNotDeliver(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	a := &echoStack{}
	c := &echoStack{}
	da := w.AddSensor(1, geom.Point{}, 30, 0, a)
	w.AddSensor(2, geom.Point{X: 5}, 30, 0, &echoStack{})
	dc := w.AddSensor(3, geom.Point{X: 10}, 30, 0, c)
	uni := bcast(1)
	uni.To = 2 // unicast to node 2
	da.Send(uni)
	w.RunUntilIdle()
	if len(c.got) != 0 {
		t.Fatal("node 3 delivered a unicast addressed to node 2")
	}
	if dc.Battery().RxUsed() == 0 {
		t.Fatal("overhearing node was not charged reception energy")
	}
}

func TestPromiscuousReceivesForeignUnicast(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	c := &echoStack{}
	da := w.AddSensor(1, geom.Point{}, 30, 0, &echoStack{})
	w.AddSensor(2, geom.Point{X: 5}, 30, 0, &echoStack{})
	dc := w.AddSensor(3, geom.Point{X: 10}, 30, 0, c)
	dc.SetPromiscuous(true)
	uni := bcast(1)
	uni.To = 2
	da.Send(uni)
	w.RunUntilIdle()
	if len(c.got) != 1 {
		t.Fatal("promiscuous node missed foreign unicast")
	}
}

func TestBatteryDepletionKillsNode(t *testing.T) {
	w := NewWorld(Config{Seed: 1, EnergyModel: energy.FixedPerBit{TxPerBit: 1e-3, RxPerBit: 1e-3}})
	// Tiny battery: dies on second transmission.
	pkt := bcast(1)
	cost := float64(pkt.SizeBits()) * 1e-3
	d := w.AddSensor(1, geom.Point{}, 30, cost*1.5, &echoStack{})
	if !d.Send(bcast(1)) {
		t.Fatal("first send should succeed")
	}
	if d.Send(bcast(1)) {
		t.Fatal("second send should brown out")
	}
	if d.Alive() {
		t.Fatal("device alive after brownout")
	}
	if w.FirstSensorDeath() < 0 {
		t.Fatal("first death not recorded")
	}
	if w.SensorsAlive() != 0 {
		t.Fatalf("SensorsAlive = %d", w.SensorsAlive())
	}
	if len(w.Deaths()) != 1 || w.Deaths()[0].Cause != CauseBattery {
		t.Fatalf("deaths = %+v", w.Deaths())
	}
	// Dead node sends nothing.
	if d.Send(bcast(1)) {
		t.Fatal("dead device sent a packet")
	}
}

func TestFailKillsAndDetaches(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	b := &echoStack{}
	da := w.AddSensor(1, geom.Point{}, 30, 0, &echoStack{})
	db := w.AddSensor(2, geom.Point{X: 5}, 30, 0, b)
	var deaths []DeathRecord
	w.OnDeath(func(r DeathRecord) { deaths = append(deaths, r) })
	db.Fail()
	if db.Alive() {
		t.Fatal("failed device still alive")
	}
	if len(deaths) != 1 || deaths[0].Cause != CauseFailure || deaths[0].ID != 2 {
		t.Fatalf("death callback: %+v", deaths)
	}
	da.Send(bcast(1))
	w.RunUntilIdle()
	if len(b.got) != 0 {
		t.Fatal("dead device received a packet")
	}
	// Double-fail is a no-op.
	db.Fail()
	if len(deaths) != 1 {
		t.Fatal("second Fail produced another death record")
	}
}

func TestGatewayOnBothMedia(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	gwStack := &echoStack{}
	gw := w.AddGateway(100, geom.Point{X: 50}, 30, 200, gwStack)
	s := w.AddSensor(1, geom.Point{X: 40}, 30, 0, &echoStack{})
	bs := w.AddBaseStation(200, geom.Point{X: 150}, 200)
	var meshGot []*packet.Packet
	bs.SetMeshHandler(func(p *packet.Packet) { meshGot = append(meshGot, p) })

	// Sensor-layer packet reaches the gateway's stack.
	s.Send(bcast(1))
	w.RunUntilIdle()
	if len(gwStack.got) != 1 {
		t.Fatalf("gateway stack got %d sensor packets", len(gwStack.got))
	}
	// Mesh-layer packet from gateway reaches the base station.
	mp := bcast(100)
	gw.SendMesh(mp)
	w.RunUntilIdle()
	if len(meshGot) != 1 {
		t.Fatalf("base station got %d mesh packets", len(meshGot))
	}
	// Gateway battery is infinite: heavy traffic never kills it.
	for i := 0; i < 1000; i++ {
		gw.SendMesh(mp)
	}
	if !gw.Alive() {
		t.Fatal("gateway died despite infinite battery")
	}
}

func TestMeshRouterNotOnSensorMedium(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	r := w.AddMeshRouter(50, geom.Point{X: 10}, 200)
	got := 0
	r.SetMeshHandler(func(*packet.Packet) { got++ })
	s := w.AddSensor(1, geom.Point{}, 30, 0, &echoStack{})
	s.Send(bcast(1))
	w.RunUntilIdle()
	if got != 0 {
		t.Fatal("mesh router heard a sensor-layer packet")
	}
	if r.SensorStation() != nil {
		t.Fatal("mesh router has a sensor station")
	}
	if r.Send(bcast(50)) {
		t.Fatal("mesh router Send on sensor layer should fail")
	}
}

func TestDuplicateIDPanics(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	w.AddSensor(1, geom.Point{}, 30, 0, &echoStack{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate device ID did not panic")
		}
	}()
	w.AddSensor(1, geom.Point{X: 5}, 30, 0, &echoStack{})
}

func TestDevicesOrderAndKindFilter(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	w.AddSensor(3, geom.Point{}, 30, 0, &echoStack{})
	w.AddGateway(100, geom.Point{X: 1}, 30, 100, &echoStack{})
	w.AddSensor(1, geom.Point{X: 2}, 30, 0, &echoStack{})
	w.AddMeshRouter(50, geom.Point{X: 3}, 100)
	ds := w.Devices()
	wantOrder := []packet.NodeID{3, 100, 1, 50}
	for i, d := range ds {
		if d.ID() != wantOrder[i] {
			t.Fatalf("insertion order broken: %v", ds)
		}
	}
	sensors := w.DevicesOfKind(Sensor)
	if len(sensors) != 2 || sensors[0].ID() != 3 || sensors[1].ID() != 1 {
		t.Fatalf("sensor filter: %v", sensors)
	}
	if w.SensorsTotal() != 2 {
		t.Fatalf("SensorsTotal = %d", w.SensorsTotal())
	}
}

func TestSensorEnergyStats(t *testing.T) {
	w := NewWorld(Config{Seed: 1, EnergyModel: energy.FixedPerBit{TxPerBit: 1e-6, RxPerBit: 1e-6}})
	a := w.AddSensor(1, geom.Point{}, 30, 0, &echoStack{})
	w.AddSensor(2, geom.Point{X: 500}, 30, 0, &echoStack{}) // isolated, spends nothing
	w.AddGateway(100, geom.Point{X: 1}, 30, 100, &echoStack{})
	a.Send(bcast(1))
	w.RunUntilIdle()
	st := w.SensorEnergyStats()
	if st.N != 2 {
		t.Fatalf("stats.N = %d, want 2 (gateway excluded)", st.N)
	}
	if st.Max <= 0 || st.Min != 0 {
		t.Fatalf("stats min/max = %g/%g", st.Min, st.Max)
	}
	if st.Variance <= 0 {
		t.Fatal("variance should be positive for unequal consumption")
	}
}

func TestMinSensorBatteryFraction(t *testing.T) {
	w := NewWorld(Config{Seed: 1, EnergyModel: energy.FixedPerBit{TxPerBit: 1e-3, RxPerBit: 0}})
	d := w.AddSensor(1, geom.Point{}, 30, 10, &echoStack{})
	if f := w.MinSensorBatteryFraction(); f != 1 {
		t.Fatalf("fresh world fraction = %v", f)
	}
	d.Send(bcast(1))
	if f := w.MinSensorBatteryFraction(); f >= 1 {
		t.Fatal("fraction did not drop after transmission")
	}
}

func TestMultiHopRelayChain(t *testing.T) {
	// 1 -- 2 -- 3 -- 4 in a line, range 12, spacing 10: packets must relay.
	w := NewWorld(Config{Seed: 1})
	stacks := make([]*echoStack, 5)
	for i := 1; i <= 4; i++ {
		stacks[i] = &echoStack{auto: i != 1 && i != 4} // middle nodes relay
		w.AddSensor(packet.NodeID(i), geom.Point{X: float64(i) * 10}, 12, 0, stacks[i])
	}
	w.Device(1).Send(bcast(1))
	w.RunUntilIdle()
	if len(stacks[4].got) == 0 {
		t.Fatal("packet never reached node 4 through relays")
	}
	if got := stacks[4].got[0].TTL; got >= 4 {
		t.Fatalf("relayed packet TTL = %d, want decremented", got)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Sensor: "sensor", Gateway: "gateway", MeshRouter: "mesh-router", BaseStation: "base-station",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if Kind(77).String() == "" {
		t.Error("unknown kind empty string")
	}
}

func TestWorldDefaults(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	d := w.AddSensor(1, geom.Point{}, 30, 0, &echoStack{})
	if d.Battery().Capacity() != 2.0 {
		t.Fatalf("default battery = %g, want 2.0", d.Battery().Capacity())
	}
	if w.FirstSensorDeath() != -1 {
		t.Fatal("FirstSensorDeath should be -1 with everyone alive")
	}
	if w.Kernel() == nil || w.SensorMedium() == nil || w.MeshMedium() == nil {
		t.Fatal("accessors returned nil")
	}
	_ = radio.SensorRadio() // referenced to assert package linkage stays intact
	_ = sim.Second
}

func TestObsBusEvents(t *testing.T) {
	cap := &obs.Capture{}
	w := NewWorld(Config{Seed: 1, Obs: obs.NewBus(cap)})
	a := w.AddSensor(1, geom.Point{}, 30, 0, &echoStack{})
	w.AddSensor(2, geom.Point{X: 10}, 30, 0, &echoStack{})
	// Unicast DATA is link-traced: one LinkTx per transmission.
	a.Send(&packet.Packet{Kind: packet.KindData, From: 1, To: 2,
		Origin: 1, Target: 2, Seq: 9, TTL: 4})
	w.RunUntilIdle()
	kinds := map[obs.Kind]int{}
	for _, ev := range cap.Events {
		kinds[ev.Kind]++
	}
	if kinds[obs.LinkTx] != 1 {
		t.Fatalf("obs kinds = %v, want 1 LinkTx", kinds)
	}
	tx := cap.Events[0]
	if tx.Node != 1 || tx.Peer != 2 || tx.Seq != 9 || tx.Value != 4 {
		t.Fatalf("LinkTx fields wrong: %+v", tx)
	}
	// Death event carries its cause.
	a.Fail()
	found := false
	for _, ev := range cap.Events {
		if ev.Kind == obs.NodeDeath && ev.Node == 1 && ev.Detail == "failure" {
			found = true
		}
	}
	if !found {
		t.Fatalf("NodeDeath event missing: %+v", cap.Events)
	}
	// Broadcasts and control traffic are not link-traced.
	n := len(cap.Events)
	w.Device(2).Send(bcast(2))
	w.RunUntilIdle()
	if len(cap.Events) != n {
		t.Fatalf("broadcast HELLO emitted %d obs events", len(cap.Events)-n)
	}
}

func TestMeshTrafficNotLinkTraced(t *testing.T) {
	cap := &obs.Capture{}
	w := NewWorld(Config{Seed: 1, Obs: obs.NewBus(cap)})
	gw := w.AddGateway(100, geom.Point{}, 30, 200, &echoStack{})
	bs := w.AddBaseStation(200, geom.Point{X: 100}, 200)
	got := 0
	bs.SetMeshHandler(func(*packet.Packet) { got++ })
	gw.SendMesh(bcast(100))
	w.RunUntilIdle()
	if got != 1 {
		t.Fatalf("mesh delivery = %d, want 1", got)
	}
	// The mesh backbone has no per-hop ARQ; its traffic stays off the
	// link-event stream.
	if len(cap.Events) != 0 {
		t.Fatalf("mesh broadcast emitted %d obs events, want 0", len(cap.Events))
	}
}

// A SendRange frame deferred by CSMA must go out at the range it was sent
// at, the range its energy was charged for, not at the station's own range
// once the backoff ends.
func TestSendRangeDeferredByCSMAKeepsRange(t *testing.T) {
	for _, busy := range []bool{false, true} {
		cfg := radio.SensorRadio()
		cfg.CSMA = true
		w := NewWorld(Config{Seed: 1, SensorRadio: cfg})
		b := &echoStack{}
		a := w.AddSensor(1, geom.Point{}, 10, 0, &echoStack{})
		w.AddSensor(2, geom.Point{X: 30}, 10, 0, b)
		c := w.AddSensor(3, geom.Point{X: -5}, 10, 0, &echoStack{})
		if busy {
			c.Send(bcast(3)) // occupies the channel A senses
		}
		if !a.SendRange(bcast(1), 50) {
			t.Fatalf("busy=%v: SendRange failed", busy)
		}
		if got := a.SensorStation().Range(); got != 10 {
			t.Fatalf("busy=%v: station range %v after SendRange, want 10", busy, got)
		}
		w.RunUntilIdle()
		if busy && w.SensorMedium().Stats().Backoffs == 0 {
			t.Fatal("A never backed off; the channel was not busy")
		}
		if len(b.got) != 1 || b.got[0].Origin != 1 {
			t.Fatalf("busy=%v: B 30 m away got %d frames, want A's one frame sent at 50 m", busy, len(b.got))
		}
	}
}
