package core

import (
	"testing"
	"testing/quick"

	"wmsn/internal/packet"
)

func TestCompressPath(t *testing.T) {
	cases := []struct {
		in, want []packet.NodeID
	}{
		{nil, []packet.NodeID{}},
		{[]packet.NodeID{1}, []packet.NodeID{1}},
		{[]packet.NodeID{1, 2, 3}, []packet.NodeID{1, 2, 3}},
		// Simple loop: A B C B D -> A B D.
		{[]packet.NodeID{1, 2, 3, 2, 4}, []packet.NodeID{1, 2, 4}},
		// Loop back to the head: A B C A D -> A D.
		{[]packet.NodeID{1, 2, 3, 1, 4}, []packet.NodeID{1, 4}},
		// Node revisited twice: A B C B C D -> A B C D.
		{[]packet.NodeID{1, 2, 3, 2, 3, 4}, []packet.NodeID{1, 2, 3, 4}},
		// Immediate duplicate: A A B -> A B.
		{[]packet.NodeID{1, 1, 2}, []packet.NodeID{1, 2}},
	}
	for _, c := range cases {
		got := compressPath(c.in)
		if len(got) != len(c.want) {
			t.Errorf("compressPath(%v) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("compressPath(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

// Property: compressed paths have no duplicates, preserve the endpoints,
// and every consecutive pair in the output was consecutive somewhere in
// the input walk (so physical adjacency is preserved).
func TestQuickCompressPath(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		walk := make([]packet.NodeID, len(raw))
		for i, r := range raw {
			walk[i] = packet.NodeID(r % 16) // small alphabet forces loops
		}
		// Make it a valid walk for the adjacency check by definition: any
		// consecutive input pair is an "edge".
		edges := map[[2]packet.NodeID]bool{}
		for i := 0; i+1 < len(walk); i++ {
			edges[[2]packet.NodeID{walk[i], walk[i+1]}] = true
		}
		out := compressPath(walk)
		seen := map[packet.NodeID]bool{}
		for _, id := range out {
			if seen[id] {
				return false // duplicate survived
			}
			seen[id] = true
		}
		if out[0] != walk[0] || out[len(out)-1] != walk[len(walk)-1] {
			return false // endpoints changed
		}
		for i := 0; i+1 < len(out); i++ {
			if out[i] != out[i+1] && !edges[[2]packet.NodeID{out[i], out[i+1]}] {
				return false // invented edge
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsUndeliveredAndDeliveredFrom(t *testing.T) {
	m := NewMetrics()
	m.RecordGenerated(1, 1, 0)
	m.RecordGenerated(1, 2, 0)
	m.RecordGenerated(2, 1, 0)
	m.RecordDelivered(1, 1, 1000, 2, 100)
	und := m.Undelivered()
	if len(und) != 2 {
		t.Fatalf("Undelivered = %v, want 2 entries", und)
	}
	if m.DeliveredFrom(1) != 1 || m.DeliveredFrom(2) != 0 || m.DeliveredFrom(99) != 0 {
		t.Fatalf("DeliveredFrom: %d %d", m.DeliveredFrom(1), m.DeliveredFrom(2))
	}
	m.RReqSent, m.RResSent, m.NotifySent, m.AckSent = 1, 2, 3, 4
	if m.ControlPackets() != 10 {
		t.Fatalf("ControlPackets = %d", m.ControlPackets())
	}
}

func TestWireHelpers(t *testing.T) {
	b := EncodePlacePayload(7, []byte("xy"))
	place, rest, ok := DecodePlacePayload(b)
	if !ok || place != 7 || string(rest) != "xy" {
		t.Fatalf("place payload: %d %q %v", place, rest, ok)
	}
	nb := EncodeNotifyPayload(3, 1, 9)
	np, pp, r, ok := DecodeNotifyPayload(nb)
	if !ok || np != 3 || pp != 1 || r != 9 {
		t.Fatalf("notify payload: %d %d %d %v", np, pp, r, ok)
	}
	if _, _, _, ok := DecodeNotifyPayload(nil); ok {
		t.Fatal("decoded empty notify")
	}
	if _, _, _, ok := DecodeNotifyPayload(marshalOverloadNotify(1, 1)); ok {
		t.Fatal("decoded overload as move")
	}
}

func TestGatewayPlaceAccessors(t *testing.T) {
	m := NewMetrics()
	p := DefaultParams()
	g := NewMLRGateway(p, m)
	if g.Place() != -1 {
		t.Fatalf("fresh MLR gateway place = %d", g.Place())
	}
	sg := NewSecMLRGateway(p, m, &GatewayKeys{})
	if sg.Place() != -1 {
		t.Fatalf("fresh SecMLR gateway place = %d", sg.Place())
	}
}

func TestSecMLRSensorAccessors(t *testing.T) {
	sKeys, _ := ProvisionKeys([]byte("m"), []packet.NodeID{1}, []packet.NodeID{1000}, 4)
	s := NewSecMLRSensor(DefaultParams(), NewMetrics(), sKeys[1])
	if s.ForwardingTableSize() != 0 {
		t.Fatal("fresh sensor has forwarding entries")
	}
	if s.active.missing(s.verified) != 0 {
		t.Fatal("no active places yet")
	}
	if s.BestRoute() != nil {
		t.Fatal("fresh sensor has a best route")
	}
	if len(s.ActivePlaces()) != 0 {
		t.Fatal("fresh sensor has active places")
	}
}
