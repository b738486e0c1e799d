// Package baseline implements the comparison protocols the paper discusses
// (§2.2): Flooding (flat routing), Direct transmission, MCFA (minimum cost
// forwarding), LEACH (cluster-based hierarchical routing) and PEGASIS
// (chain-based).
// All of them run against the traditional flat architecture — a single sink
// — and exist so the experiments can reproduce the paper's claims about why
// that architecture scales and balances poorly.
//
// Every sensor-side baseline implements the same OriginateData entry point
// as the core protocols, and all deliveries flow into a shared core.Metrics.
package baseline

import (
	"encoding/binary"

	"wmsn/internal/metrics"
	"wmsn/internal/node"
	"wmsn/internal/packet"
)

// Sink is the single base station of the flat architecture: it absorbs DATA
// packets and answers nothing. It works with every baseline in this package.
type Sink struct {
	Metrics metrics.Sink
	Uplink  func(origin packet.NodeID, seq uint32, payload []byte)

	dev *node.Device
}

// NewSink creates a sink stack.
func NewSink(m metrics.Sink) *Sink { return &Sink{Metrics: m} }

// Start implements node.Stack.
func (s *Sink) Start(dev *node.Device) { s.dev = dev }

// HandleMessage implements node.Stack.
func (s *Sink) HandleMessage(pkt *packet.Packet) {
	if s.dev == nil {
		return // not attached to a device yet
	}
	if pkt.Kind != packet.KindData {
		return
	}
	if pkt.Target != s.dev.ID() && pkt.Target != packet.Broadcast {
		return
	}
	s.Metrics.RecordDelivered(pkt.Origin, pkt.Seq, s.dev.ID(), int(pkt.Hops)+1, s.dev.Now())
	if s.Uplink != nil {
		s.Uplink(pkt.Origin, pkt.Seq, pkt.Payload)
	}
}

// Flooding relays every data packet to every neighbor (§2.2.1): simple,
// robust, and catastrophically redundant (the "implosion" problem).
type Flooding struct {
	Metrics metrics.Sink
	TTL     uint8

	dev  *node.Device
	seen *packet.Dedupe
	seq  uint32
}

// NewFlooding creates a flooding stack.
func NewFlooding(m metrics.Sink, ttl uint8) *Flooding {
	return &Flooding{Metrics: m, TTL: ttl, seen: packet.NewDedupe(0)}
}

// Start implements node.Stack.
func (f *Flooding) Start(dev *node.Device) { f.dev = dev }

// OriginateData broadcasts one reading network-wide.
func (f *Flooding) OriginateData(payload []byte) {
	if f.dev == nil || !f.dev.Alive() {
		return
	}
	f.seq++
	f.seen.Check(f.dev.ID(), f.seq) // never re-forward our own flood
	pkt := &packet.Packet{
		Kind:    packet.KindData,
		From:    f.dev.ID(),
		To:      packet.Broadcast,
		Origin:  f.dev.ID(),
		Target:  packet.Broadcast, // any sink
		Seq:     f.seq,
		TTL:     f.TTL,
		Payload: payload,
	}
	f.Metrics.RecordGenerated(f.dev.ID(), f.seq, f.dev.Now())
	if f.dev.Send(pkt) {
		f.Metrics.Inc(metrics.DataSent)
	}
}

// HandleMessage implements node.Stack.
func (f *Flooding) HandleMessage(pkt *packet.Packet) {
	if f.dev == nil {
		return // not attached to a device yet
	}
	if pkt.Kind != packet.KindData || pkt.TTL <= 1 {
		return
	}
	if f.seen.Check(pkt.Origin, pkt.Seq) {
		return
	}
	fwd := *pkt
	fwd.From = f.dev.ID()
	fwd.TTL--
	fwd.Hops++
	if f.dev.Send(&fwd) {
		f.Metrics.Inc(metrics.DataSent)
	}
}

// Direct transmits every reading straight to the sink in one long hop —
// the degenerate baseline whose edge nodes die first under the first-order
// energy model.
type Direct struct {
	Metrics metrics.Sink
	// SinkID and SinkDist are the flat sink's identity and this node's
	// distance to it, loaded at deployment time.
	SinkID   packet.NodeID
	SinkDist float64

	dev *node.Device
	seq uint32
}

// NewDirect creates a direct-transmission stack.
func NewDirect(m metrics.Sink, sink packet.NodeID, dist float64) *Direct {
	return &Direct{Metrics: m, SinkID: sink, SinkDist: dist}
}

// Start implements node.Stack.
func (d *Direct) Start(dev *node.Device) { d.dev = dev }

// OriginateData sends one reading in a single boosted-range hop.
func (d *Direct) OriginateData(payload []byte) {
	if d.dev == nil || !d.dev.Alive() {
		return
	}
	d.seq++
	pkt := &packet.Packet{
		Kind:    packet.KindData,
		From:    d.dev.ID(),
		To:      d.SinkID,
		Origin:  d.dev.ID(),
		Target:  d.SinkID,
		Seq:     d.seq,
		TTL:     1,
		Payload: payload,
	}
	d.Metrics.RecordGenerated(d.dev.ID(), d.seq, d.dev.Now())
	if d.dev.SendRange(pkt, d.SinkDist*1.01) {
		d.Metrics.Inc(metrics.DataSent)
	}
}

// HandleMessage implements node.Stack (Direct nodes never forward).
func (d *Direct) HandleMessage(*packet.Packet) {}

// MCFA (Minimum Cost Forwarding Algorithm, §2.2.1 [24]): the sink floods a
// cost beacon; every node keeps its least cost (hops) to the sink; data is
// broadcast with the sender's cost and relayed only by nodes on a
// decreasing-cost gradient. Nodes need no IDs and no routing tables beyond
// one integer.
type MCFA struct {
	Metrics metrics.Sink
	TTL     uint8

	dev  *node.Device
	cost int
	seen *packet.Dedupe
	seq  uint32
}

// NewMCFA creates an MCFA sensor stack.
func NewMCFA(m metrics.Sink, ttl uint8) *MCFA {
	return &MCFA{Metrics: m, TTL: ttl, cost: -1, seen: packet.NewDedupe(0)}
}

// Start implements node.Stack.
func (m *MCFA) Start(dev *node.Device) { m.dev = dev }

// Cost returns the node's current least cost to the sink (-1 = unknown).
func (m *MCFA) Cost() int { return m.cost }

// mcfaCostPayload encodes the advertised cost.
func mcfaCostPayload(c int) []byte {
	return binary.BigEndian.AppendUint32(nil, uint32(c))
}

func parseMCFACost(b []byte) (int, bool) {
	if len(b) < 4 {
		return 0, false
	}
	return int(binary.BigEndian.Uint32(b)), true
}

// OriginateData sends one reading down the cost gradient.
func (m *MCFA) OriginateData(payload []byte) {
	if m.dev == nil || !m.dev.Alive() {
		return
	}
	m.seq++
	m.Metrics.RecordGenerated(m.dev.ID(), m.seq, m.dev.Now())
	if m.cost < 0 {
		m.Metrics.Inc(metrics.DroppedNoRoute)
		return // beacon never reached us
	}
	body := append(mcfaCostPayload(m.cost), payload...)
	pkt := &packet.Packet{
		Kind:    packet.KindData,
		From:    m.dev.ID(),
		To:      packet.Broadcast,
		Origin:  m.dev.ID(),
		Target:  packet.Broadcast,
		Seq:     m.seq,
		TTL:     m.TTL,
		Payload: body,
	}
	if m.dev.Send(pkt) {
		m.Metrics.Inc(metrics.DataSent)
	}
}

// HandleMessage implements node.Stack.
func (m *MCFA) HandleMessage(pkt *packet.Packet) {
	if m.dev == nil {
		return // not attached to a device yet
	}
	switch pkt.Kind {
	case packet.KindHello: // cost beacon
		c, ok := parseMCFACost(pkt.Payload)
		if !ok {
			return
		}
		if m.cost < 0 || c+1 < m.cost {
			m.cost = c + 1
			adv := *pkt
			adv.From = m.dev.ID()
			adv.Payload = mcfaCostPayload(m.cost)
			adv.Hops++
			if m.dev.Send(&adv) {
				m.Metrics.Inc(metrics.RReqSent) // beacon traffic counted as control
			}
		}
	case packet.KindData:
		if pkt.TTL <= 1 || m.cost < 0 {
			return
		}
		senderCost, ok := parseMCFACost(pkt.Payload)
		if !ok || m.cost >= senderCost {
			return // not on a decreasing-cost gradient
		}
		if m.seen.Check(pkt.Origin, pkt.Seq) {
			return
		}
		fwd := *pkt
		fwd.From = m.dev.ID()
		fwd.TTL--
		fwd.Hops++
		fwd.Payload = append(mcfaCostPayload(m.cost), pkt.Payload[4:]...)
		if m.dev.Send(&fwd) {
			m.Metrics.Inc(metrics.DataSent)
		}
	}
}

// MCFASink is the sink for MCFA: it seeds the cost field with cost 0 and
// absorbs data.
type MCFASink struct {
	Metrics metrics.Sink
	TTL     uint8

	dev *node.Device
}

// NewMCFASink creates the MCFA sink stack.
func NewMCFASink(m metrics.Sink, ttl uint8) *MCFASink {
	return &MCFASink{Metrics: m, TTL: ttl}
}

// Start implements node.Stack and immediately floods the cost beacon.
func (s *MCFASink) Start(dev *node.Device) {
	s.dev = dev
	beacon := &packet.Packet{
		Kind:    packet.KindHello,
		From:    dev.ID(),
		To:      packet.Broadcast,
		Origin:  dev.ID(),
		Target:  packet.Broadcast,
		Seq:     1,
		TTL:     s.TTL,
		Payload: mcfaCostPayload(0),
	}
	dev.Send(beacon)
}

// HandleMessage implements node.Stack.
func (s *MCFASink) HandleMessage(pkt *packet.Packet) {
	if s.dev == nil {
		return // not attached to a device yet
	}
	if pkt.Kind != packet.KindData {
		return
	}
	if len(pkt.Payload) < 4 {
		return
	}
	s.Metrics.RecordDelivered(pkt.Origin, pkt.Seq, s.dev.ID(), int(pkt.Hops)+1, s.dev.Now())
}
