package radio

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"wmsn/internal/geom"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

func testPkt(from packet.NodeID) *packet.Packet {
	return &packet.Packet{
		Kind: packet.KindHello, From: from, To: packet.Broadcast,
		Origin: from, Target: packet.Broadcast, TTL: 1,
	}
}

func TestAirtime(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, Config{BitRate: 250_000})
	// 1000 bytes = 8000 bits at 250 kbit/s = 32 ms.
	if got := m.Airtime(1000); got != 32*sim.Millisecond {
		t.Fatalf("Airtime(1000) = %v, want 32ms", got)
	}
}

func TestBadConfigPanics(t *testing.T) {
	k := sim.NewKernel(1)
	for _, cfg := range []Config{{BitRate: 0}, {BitRate: 1000, LossRate: 1.0}, {BitRate: 1000, LossRate: -0.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(k, cfg)
		}()
	}
}

func TestBroadcastReachesOnlyInRange(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, SensorRadio())
	got := map[packet.NodeID]int{}
	mk := func(id packet.NodeID, x float64) *Station {
		return m.Attach(id, geom.Point{X: x, Y: 0}, 30, HandlerFunc(func(p *packet.Packet) { got[id]++ }))
	}
	s1 := mk(1, 0)
	mk(2, 10) // in range
	mk(3, 29) // in range
	mk(4, 31) // out of range
	mk(5, 60) // out of range

	m.Transmit(s1, testPkt(1))
	k.RunAll()
	if got[2] != 1 || got[3] != 1 {
		t.Fatalf("in-range stations missed packet: %v", got)
	}
	if got[4] != 0 || got[5] != 0 || got[1] != 0 {
		t.Fatalf("out-of-range or self received: %v", got)
	}
	st := m.Stats()
	if st.Transmissions != 1 || st.Deliveries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeliveryTiming(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := Config{BitRate: 250_000, PropDelay: 50}
	m := New(k, cfg)
	var at sim.Time = -1
	s1 := m.Attach(1, geom.Point{}, 50, nil)
	m.Attach(2, geom.Point{X: 10}, 50, HandlerFunc(func(*packet.Packet) { at = k.Now() }))
	pkt := testPkt(1)
	want := m.Airtime(pkt.Size()) + cfg.PropDelay
	m.Transmit(s1, pkt)
	k.RunAll()
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

// A sent frame is immutable, so the medium copies nothing: every listener,
// broadcast and unicast alike, and every retransmission of the same frame
// hand over the very *Packet passed to Transmit.
func TestListenersReceiveSentFrame(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, SensorRadio())
	got := map[*packet.Packet]int{}
	s1 := m.Attach(1, geom.Point{}, 50, nil)
	for i := 0; i < 3; i++ {
		m.Attach(packet.NodeID(2+i), geom.Point{X: float64(5 * (i + 1))}, 50,
			HandlerFunc(func(p *packet.Packet) { got[p]++ }))
	}
	bcast := testPkt(1)
	bcast.Payload = []byte("abc")
	bcast.Path = []packet.NodeID{1}
	uni := testPkt(1)
	uni.To = 3
	m.Transmit(s1, bcast)
	m.Transmit(s1, bcast) // a retransmission of the same frame
	m.Transmit(s1, uni)   // the medium hands a unicast to every listener too
	k.RunAll()
	if len(got) != 2 || got[bcast] != 6 || got[uni] != 3 {
		t.Fatalf("listeners received %v; want the broadcast frame %p 6 times and the unicast %p 3 times",
			got, bcast, uni)
	}
}

func TestSleepingStationReceivesNothing(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, SensorRadio())
	n := 0
	s1 := m.Attach(1, geom.Point{}, 50, nil)
	s2 := m.Attach(2, geom.Point{X: 5}, 50, HandlerFunc(func(*packet.Packet) { n++ }))
	s2.SetListening(false)
	m.Transmit(s1, testPkt(1))
	k.RunAll()
	if n != 0 {
		t.Fatal("sleeping station received a packet")
	}
	s2.SetListening(true)
	m.Transmit(s1, testPkt(1))
	k.RunAll()
	if n != 1 {
		t.Fatal("woken station did not receive")
	}
}

func TestDetachStopsDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, SensorRadio())
	n := 0
	s1 := m.Attach(1, geom.Point{}, 50, nil)
	m.Attach(2, geom.Point{X: 5}, 50, HandlerFunc(func(*packet.Packet) { n++ }))
	m.Transmit(s1, testPkt(1)) // in flight
	m.Detach(2)
	k.RunAll()
	if n != 0 {
		t.Fatal("detached station received in-flight packet")
	}
	if m.Station(2) != nil {
		t.Fatal("Station(2) still registered")
	}
	m.Transmit(s1, testPkt(1))
	k.RunAll()
	if n != 0 {
		t.Fatal("detached station received later packet")
	}
}

// A Stop issued by a handler inside a batch halts delivery right after that
// handler, as a schedule of one event per reception would. A resumed run
// delivers the rest of the batch in ID order, at the same instant, each
// once, and the recycled batch then carries the next frame whole.
func TestStopInsideBatchThenResume(t *testing.T) {
	for _, collisions := range []bool{false, true} {
		k := sim.NewKernel(1)
		m := New(k, Config{BitRate: 250_000, Collisions: collisions})
		a := m.Attach(1, geom.Point{}, 50, nil)
		var ids []packet.NodeID
		var at []sim.Time
		stopped := false
		for i := 0; i < 4; i++ {
			id := packet.NodeID(2 + i)
			m.Attach(id, geom.Point{X: float64(1 + i)}, 50, HandlerFunc(func(*packet.Packet) {
				ids, at = append(ids, id), append(at, k.Now())
				if id == 3 && !stopped {
					stopped = true
					k.Stop()
				}
			}))
		}
		m.Transmit(a, testPkt(1))
		k.RunAll()
		if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
			t.Fatalf("collisions=%v: before the resume, %v handled the frame, want [n2 n3]", collisions, ids)
		}
		k.RunAll()
		if want := []packet.NodeID{2, 3, 4, 5}; !slices.Equal(ids, want) {
			t.Fatalf("collisions=%v: after the resume, %v handled the frame, want %v", collisions, ids, want)
		}
		for _, ti := range at {
			if ti != at[0] {
				t.Fatalf("collisions=%v: receptions at %v, want one instant", collisions, at)
			}
		}
		m.Transmit(a, testPkt(1))
		k.RunAll()
		if len(ids) != 8 || m.Stats().Deliveries != 8 || m.Stats().Collided != 0 {
			t.Fatalf("collisions=%v: next frame reached %v (%+v), want every receiver once more",
				collisions, ids[4:], m.Stats())
		}
	}
}

func TestDoubleAttachPanics(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, SensorRadio())
	m.Attach(1, geom.Point{}, 50, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double attach did not panic")
		}
	}()
	m.Attach(1, geom.Point{X: 1}, 50, nil)
}

func TestMoveChangesConnectivity(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, SensorRadio())
	n := 0
	s1 := m.Attach(1, geom.Point{}, 30, nil)
	s2 := m.Attach(2, geom.Point{X: 100}, 30, HandlerFunc(func(*packet.Packet) { n++ }))
	m.Transmit(s1, testPkt(1))
	k.RunAll()
	if n != 0 {
		t.Fatal("received while out of range")
	}
	s2.Move(geom.Point{X: 20})
	m.Transmit(s1, testPkt(1))
	k.RunAll()
	if n != 1 {
		t.Fatal("did not receive after moving into range")
	}
	if got := stationIDs(m.InRange(s1)); len(got) != 1 || got[0] != 2 {
		t.Fatalf("InRange(1) = %v", got)
	}
}

func TestMoveAcrossCells(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, Config{BitRate: 250_000, CellSize: 10})
	s1 := m.Attach(1, geom.Point{}, 500, nil)
	s2 := m.Attach(2, geom.Point{X: 5}, 500, nil)
	for i := 0; i < 50; i++ {
		s2.Move(geom.Point{X: float64(i * 7), Y: float64(i * 3)})
		nbrs := m.InRange(s1)
		if len(nbrs) != 1 || nbrs[0].id != 2 {
			t.Fatalf("after move %d neighbors=%v", i, nbrs)
		}
	}
	_ = s2
}

func TestLossRate(t *testing.T) {
	k := sim.NewKernel(7)
	m := New(k, Config{BitRate: 250_000, LossRate: 0.3})
	n := 0
	s1 := m.Attach(1, geom.Point{}, 50, nil)
	m.Attach(2, geom.Point{X: 5}, 50, HandlerFunc(func(*packet.Packet) { n++ }))
	const total = 2000
	for i := 0; i < total; i++ {
		m.Transmit(s1, testPkt(1))
		k.RunAll()
	}
	frac := float64(n) / total
	if frac < 0.64 || frac > 0.76 {
		t.Fatalf("delivery fraction %v with 30%% loss, want ~0.70", frac)
	}
	if m.Stats().Lost == 0 {
		t.Fatal("loss counter never incremented")
	}
}

func TestCollisionsCorruptOverlapping(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, Config{BitRate: 250_000, Collisions: true})
	n := 0
	a := m.Attach(1, geom.Point{X: -10}, 50, nil)
	b := m.Attach(2, geom.Point{X: 10}, 50, nil)
	m.Attach(3, geom.Point{}, 50, HandlerFunc(func(*packet.Packet) { n++ }))
	// Two simultaneous transmissions from hidden-ish senders overlap at 3.
	m.Transmit(a, testPkt(1))
	m.Transmit(b, testPkt(2))
	k.RunAll()
	if n != 0 {
		t.Fatalf("receiver decoded %d packets during collision, want 0", n)
	}
	if m.Stats().Collided == 0 {
		t.Fatal("collision counter never incremented")
	}
	// After the channel clears, reception works again.
	m.Transmit(a, testPkt(1))
	k.RunAll()
	if n != 1 {
		t.Fatal("post-collision packet not received")
	}
}

func TestNonOverlappingNoCollision(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, Config{BitRate: 250_000, Collisions: true})
	n := 0
	a := m.Attach(1, geom.Point{X: -10}, 50, nil)
	m.Attach(3, geom.Point{}, 50, HandlerFunc(func(*packet.Packet) { n++ }))
	m.Transmit(a, testPkt(1))
	k.RunAll() // first fully delivered
	m.Transmit(a, testPkt(1))
	k.RunAll()
	if n != 2 {
		t.Fatalf("sequential packets delivered %d, want 2", n)
	}
	if m.Stats().Collided != 0 {
		t.Fatal("phantom collision recorded")
	}
}

func TestUnattachedAndZeroRange(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, SensorRadio())
	m.Transmit(nil, testPkt(1)) // must not panic
	s := m.Attach(1, geom.Point{}, 0, nil)
	m.Attach(2, geom.Point{}, 50, HandlerFunc(func(*packet.Packet) { t.Fatal("zero-range sender delivered") }))
	m.Transmit(s, testPkt(1))
	k.RunAll()
	if m.InRange(nil) != nil {
		t.Fatal("InRange of no station should be nil")
	}
	s.SetRange(-5)
	if s.Range() != 0 {
		t.Fatal("negative range not clamped")
	}
}

func TestInRangeSortedDeterministic(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, SensorRadio())
	s5 := m.Attach(5, geom.Point{X: 1}, 50, nil)
	m.Attach(3, geom.Point{X: 2}, 50, nil)
	m.Attach(9, geom.Point{X: 3}, 50, nil)
	m.Attach(1, geom.Point{X: 4}, 50, nil)
	got := stationIDs(m.InRange(s5))
	want := []packet.NodeID{1, 3, 9}
	if len(got) != len(want) {
		t.Fatalf("InRange = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("InRange = %v, want sorted %v", got, want)
		}
	}
}

// Property: the spatial index returns exactly the stations the brute-force
// distance check returns, for random layouts, ranges and cell sizes.
func TestQuickSpatialIndexMatchesBruteForce(t *testing.T) {
	f := func(seed int64, cellRaw, rangeRaw uint8, n uint8) bool {
		k := sim.NewKernel(seed)
		cell := float64(cellRaw%60) + 5
		m := New(k, Config{BitRate: 1000, CellSize: cell})
		count := int(n%40) + 2
		rng := k.Rand()
		for i := 0; i < count; i++ {
			m.Attach(packet.NodeID(i), geom.Point{X: rng.Float64() * 300, Y: rng.Float64() * 300},
				float64(rangeRaw%100)+5, nil)
		}
		sender := m.Station(0)
		got := map[packet.NodeID]bool{}
		for _, s := range m.InRange(sender) {
			got[s.id] = true
		}
		for id, s := range m.stations {
			want := id != 0 && s.pos.Dist(sender.pos) <= sender.rangeM
			if got[id] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTransmit100Neighbors(b *testing.B) {
	k := sim.NewKernel(1)
	m := New(k, SensorRadio())
	for i := 0; i < 100; i++ {
		m.Attach(packet.NodeID(i+2), geom.Point{X: float64(i % 10), Y: float64(i / 10)}, 30, HandlerFunc(func(*packet.Packet) {}))
	}
	s := m.Attach(1, geom.Point{X: 5, Y: 5}, 30, nil)
	pkt := testPkt(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Transmit(s, pkt)
		k.RunAll()
	}
}

func TestCSMASerializesTransmissions(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, Config{BitRate: 250_000, Collisions: true, CSMA: true})
	n := 0
	a := m.Attach(1, geom.Point{X: -10}, 50, nil)
	b := m.Attach(2, geom.Point{X: 10}, 50, nil)
	m.Attach(3, geom.Point{}, 50, HandlerFunc(func(*packet.Packet) { n++ }))
	// Without CSMA these two would collide at station 3 (see
	// TestCollisionsCorruptOverlapping); carrier sense defers the second.
	m.Transmit(a, testPkt(1))
	m.Transmit(b, testPkt(2))
	k.RunAll()
	if n != 2 {
		t.Fatalf("CSMA delivered %d, want 2 (serialized)", n)
	}
	st := m.Stats()
	if st.Collided != 0 {
		t.Fatalf("collisions despite CSMA: %d", st.Collided)
	}
	if st.Backoffs == 0 {
		t.Fatal("no backoff recorded; CSMA inactive")
	}
}

func TestCSMADropsAfterMaxBackoffs(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, Config{BitRate: 1_000, CSMA: true, MaxBackoffs: 2,
		BackoffWindow: sim.Millisecond})
	n := 0
	a := m.Attach(1, geom.Point{X: -10}, 50, nil)
	b := m.Attach(2, geom.Point{X: 10}, 50, nil)
	m.Attach(3, geom.Point{}, 50, HandlerFunc(func(*packet.Packet) { n++ }))
	// At 1 kbit/s the first packet occupies the channel for ~0.3 s; the
	// second exhausts its 2 backoffs (max ~2 ms) long before that.
	m.Transmit(a, testPkt(1))
	m.Transmit(b, testPkt(2))
	k.RunAll()
	if m.Stats().CSMADropped != 1 {
		t.Fatalf("CSMADropped = %d, want 1", m.Stats().CSMADropped)
	}
	if n != 1 {
		t.Fatalf("delivered %d, want only the first", n)
	}
}

func TestCSMAHiddenTerminalStillCollides(t *testing.T) {
	// Classic hidden terminal: senders out of range of each other both
	// sense an idle channel and collide at the middle receiver. CSMA
	// cannot prevent this — the test pins the model's honesty.
	k := sim.NewKernel(1)
	m := New(k, Config{BitRate: 250_000, Collisions: true, CSMA: true})
	n := 0
	a := m.Attach(1, geom.Point{X: -40}, 50, nil)
	b := m.Attach(2, geom.Point{X: 40}, 50, nil) // 80 m apart: hidden
	m.Attach(3, geom.Point{}, 50, HandlerFunc(func(*packet.Packet) { n++ }))
	m.Transmit(a, testPkt(1))
	m.Transmit(b, testPkt(2))
	k.RunAll()
	if n != 0 {
		t.Fatalf("hidden terminals delivered %d, want 0 (collision)", n)
	}
	if m.Stats().Collided == 0 {
		t.Fatal("hidden-terminal collision not recorded")
	}
}

func TestNilMetricsSinkIsFine(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, SensorRadio())
	s1 := m.Attach(1, geom.Point{X: 0, Y: 0}, 30, HandlerFunc(func(p *packet.Packet) {}))
	m.Attach(2, geom.Point{X: 5, Y: 0}, 30, HandlerFunc(func(p *packet.Packet) {}))
	m.Transmit(s1, testPkt(1))
	k.RunAll()
	if m.Stats().Deliveries != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

// TestStationSize pins Station at 128 bytes on 64-bit platforms: scale runs
// attach 100k stations, and the Receiver interface is one word wider than
// the function value it replaced, paid for by the two flags packed beside
// the ID.
func TestStationSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Station{}); got != 128 {
		t.Fatalf("Station is %d bytes, want 128", got)
	}
}

// TestNilReceiverTransmitsOnly checks that a station attached with a nil
// Receiver transmits but hears nothing, and that Detach clears a station's
// receiver.
func TestNilReceiverTransmitsOnly(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, SensorRadio())
	a := m.Attach(1, geom.Point{}, 30, nil)
	n := 0
	b := m.Attach(2, geom.Point{X: 5}, 30, HandlerFunc(func(*packet.Packet) { n++ }))
	m.Transmit(b, testPkt(2))
	m.Transmit(a, testPkt(1))
	k.RunAll()
	if n != 1 || m.Stats().Deliveries != 1 {
		t.Fatalf("receiver heard %d frames, %d deliveries counted; want 1 and 1", n, m.Stats().Deliveries)
	}
	m.Detach(2)
	if b.rcv != nil {
		t.Fatal("Detach left the station's receiver set")
	}
}

// TestNonFinitePositionPanics checks that a NaN or infinite position panics
// at Attach and at Station.Move, as a duplicate ID does, and leaves the
// medium as it was.
func TestNonFinitePositionPanics(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, SensorRadio())
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("Attach at NaN", func() { m.Attach(1, geom.Point{X: math.NaN()}, 30, nil) })
	if m.Station(1) != nil {
		t.Fatal("a failed Attach left its station registered")
	}
	a := m.Attach(1, geom.Point{}, 30, nil)
	n := 0
	m.Attach(2, geom.Point{X: 5}, 30, HandlerFunc(func(*packet.Packet) { n++ }))
	mustPanic("Move to +Inf", func() { a.Move(geom.Point{Y: math.Inf(1)}) })
	if a.Pos() != (geom.Point{}) {
		t.Fatalf("a failed Move left the station at %v", a.Pos())
	}
	m.Transmit(a, testPkt(1))
	k.RunAll()
	if n != 1 {
		t.Fatalf("after a failed Move the neighbor heard %d frames, want 1", n)
	}
}
