package radio

import (
	"fmt"
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// Steady-state cost of one transmit+deliver cycle: nothing, whatever the
// number of listeners. Every listener gets the sent frame itself, the one
// event per transmission comes from the kernel pool, the receptions live by
// value in a batch from the medium's free list, the receiver set comes from
// the sender's cache (or the scratch buffer), and no closure or Timer is
// created.
func TestTransmitDeliverAllocsPinned(t *testing.T) {
	for _, listeners := range []int{1, 8, 32} {
		t.Run(fmt.Sprintf("listeners=%d", listeners), func(t *testing.T) {
			k := sim.NewKernel(1)
			m := New(k, Config{BitRate: 250_000})
			a := m.Attach(1, geom.Point{}, 50, nil)
			got := 0
			for i := 0; i < listeners; i++ {
				m.Attach(packet.NodeID(2+i), geom.Point{X: float64(1 + i)}, 50, HandlerFunc(func(*packet.Packet) { got++ }))
			}
			pkt := testPkt(1)
			// Warm every pool and backing array.
			for i := 0; i < 64; i++ {
				m.Transmit(a, pkt)
			}
			k.RunAll()
			avg := testing.AllocsPerRun(200, func() {
				m.Transmit(a, pkt)
				k.RunAll()
			})
			if avg > 0 {
				t.Fatalf("transmit+deliver allocates %.2f per cycle, want 0", avg)
			}
			if got != listeners*(64+201) {
				t.Fatalf("delivered %d frames, want %d", got, listeners*(64+201))
			}
		})
	}
	// A broadcast wave: every station transmits exactly once in one epoch,
	// as in the scale sweep. A receiver cache filled at the first
	// transmission would allocate one slice per sender here; it is filled
	// only at the second, so a first transmission allocates nothing.
	t.Run("transmit-once", func(t *testing.T) {
		const warm, perCycle, runs = 64, 4, 200
		k := sim.NewKernel(1)
		m := New(k, Config{BitRate: 250_000})
		got := 0
		var line []*Station
		for i := 0; i < warm+perCycle*(runs+1); i++ {
			line = append(line, m.Attach(packet.NodeID(1+i), geom.Point{X: float64(4 * i)}, 20,
				HandlerFunc(func(*packet.Packet) { got++ })))
		}
		want := 0
		for _, s := range line {
			want += len(m.InRange(s))
		}
		pkt := testPkt(1)
		next := 0
		send := func(n int) {
			for ; n > 0; n-- {
				m.Transmit(line[next], pkt)
				next++
			}
			k.RunAll()
		}
		send(warm) // warm every pool and the scratch buffer
		avg := testing.AllocsPerRun(runs, func() { send(perCycle) })
		if avg > 0 {
			t.Fatalf("a cycle of %d first transmissions allocates %.2f, want 0", perCycle, avg)
		}
		if next != len(line) || got != want {
			t.Fatalf("%d stations sent, %d frames delivered; want %d and %d", next, got, len(line), want)
		}
	})
}

// The collision model's pending lists, which point into batch entries, must
// not keep batches from being recycled: under sustained overlapping traffic
// a cycle still allocates nothing.
func TestTransmitAllocsPinnedWithCollisions(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, Config{BitRate: 250_000, Collisions: true})
	a := m.Attach(1, geom.Point{}, 50, nil)
	m.Attach(2, geom.Point{X: 10}, 50, HandlerFunc(func(*packet.Packet) {}))
	pkt := testPkt(1)
	for i := 0; i < 64; i++ {
		m.Transmit(a, pkt)
	}
	k.RunAll()
	avg := testing.AllocsPerRun(200, func() {
		m.Transmit(a, pkt) // overlapping pair: both corrupt, both recycle
		m.Transmit(a, pkt)
		k.RunAll()
	})
	if avg > 0 {
		t.Fatalf("collision-model cycle allocates %.2f, want 0", avg)
	}
}

// Recycled batches must not alias: a frame handed to one receiver stays
// intact after its batch is reused for later traffic.
func TestDeliveryRecyclingDoesNotAlias(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, Config{BitRate: 250_000})
	a := m.Attach(1, geom.Point{}, 50, nil)
	var seqs []uint32
	m.Attach(2, geom.Point{X: 10}, 50, HandlerFunc(func(p *packet.Packet) { seqs = append(seqs, p.Seq) }))
	for i := 0; i < 20; i++ {
		pkt := testPkt(1)
		pkt.Seq = uint32(i)
		m.Transmit(a, pkt)
		k.RunAll()
	}
	if len(seqs) != 20 {
		t.Fatalf("delivered %d packets, want 20", len(seqs))
	}
	for i, s := range seqs {
		if s != uint32(i) {
			t.Fatalf("delivery %d carried seq %d (recycled batch aliased)", i, s)
		}
	}
}

// BenchmarkTransmitDeliver measures the full one-hop cycle the end-to-end
// benchmarks are dominated by.
func BenchmarkTransmitDeliver(b *testing.B) {
	k := sim.NewKernel(1)
	m := New(k, Config{BitRate: 250_000})
	a := m.Attach(1, geom.Point{}, 50, nil)
	for i := 0; i < 8; i++ {
		m.Attach(packet.NodeID(2+i), geom.Point{X: float64(i + 1)}, 50, HandlerFunc(func(*packet.Packet) {}))
	}
	pkt := testPkt(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transmit(a, pkt)
		k.RunAll()
	}
}
