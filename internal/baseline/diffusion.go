package baseline

import (
	"encoding/binary"

	"wmsn/internal/metrics"
	"wmsn/internal/node"
	"wmsn/internal/packet"
)

// Directed Diffusion (§2.2.1 [22]) is the data-centric pull paradigm: the
// sink floods an *interest* naming the data it wants; nodes remember the
// neighbors the interest arrived from (gradients); sources send exploratory
// data down every gradient; the sink *reinforces* the neighbor that
// delivered first, and the reinforcement walks back along each node's
// first-delivery upstream, leaving one low-latency reinforced path that
// subsequent data unicasts along. In-network duplicate suppression plays
// the role of aggregation.
//
// Wire mapping (payload markers): INTEREST 'I' on RREQ, exploratory data
// 'X' and reinforced data 'D' on DATA, REINFORCE 'R' on ACK.

const (
	diffInterestMarker  byte = 'I'
	diffExploreMarker   byte = 'X'
	diffDataMarker      byte = 'D'
	diffReinforceMarker byte = 'R'
)

// InterestID names a data type being pulled ("four-legged animal in
// region X", reduced to an opaque identifier).
type InterestID uint32

type diffInterest struct {
	gradients  []packet.NodeID // neighbors the interest arrived from
	reinforced packet.NodeID   // downstream (sink-ward) reinforced neighbor
	upstream   packet.NodeID   // neighbor whose exploratory data arrived first
}

// Diffusion is the per-sensor stack.
type Diffusion struct {
	Metrics metrics.Sink
	TTL     uint8

	dev       *node.Device
	interests map[InterestID]*diffInterest
	seen      *packet.Dedupe // interest flood + exploratory dedup
	seq       uint32

	// Exploratory / Reinforced count this node's data transmissions in
	// each phase, for the convergence analysis.
	Exploratory, Reinforced uint64
}

// NewDiffusion creates a sensor stack.
func NewDiffusion(m metrics.Sink, ttl uint8) *Diffusion {
	return &Diffusion{Metrics: m, TTL: ttl,
		interests: make(map[InterestID]*diffInterest),
		seen:      packet.NewDedupe(0)}
}

// Start implements node.Stack.
func (d *Diffusion) Start(dev *node.Device) { d.dev = dev }

// HasGradient reports whether the node holds gradient state for interest.
func (d *Diffusion) HasGradient(in InterestID) bool {
	st, ok := d.interests[in]
	return ok && len(st.gradients) > 0
}

// ReinforcedPath reports whether a reinforced gradient exists.
func (d *Diffusion) ReinforcedPath(in InterestID) bool {
	st, ok := d.interests[in]
	return ok && st.reinforced != packet.None
}

func (d *Diffusion) state(in InterestID) *diffInterest {
	st, ok := d.interests[in]
	if !ok {
		st = &diffInterest{reinforced: packet.None, upstream: packet.None}
		d.interests[in] = st
	}
	return st
}

// OriginateData publishes one matching reading: down the reinforced path
// when one exists, exploratorily down every gradient otherwise. The
// interest the data matches is the first one known (sources in the
// experiments carry one interest).
func (d *Diffusion) OriginateData(payload []byte) {
	if d.dev == nil || !d.dev.Alive() {
		return
	}
	var in InterestID
	found := false
	for id, st := range d.interests {
		if len(st.gradients) > 0 {
			if !found || id < in {
				in = id
				found = true
			}
		}
	}
	d.seq++
	d.Metrics.RecordGenerated(d.dev.ID(), d.seq, d.dev.Now())
	if !found {
		d.Metrics.Inc(metrics.DroppedNoRoute) // no interest has reached us
		return
	}
	st := d.interests[in]
	if st.reinforced != packet.None {
		d.sendData(diffDataMarker, in, d.dev.ID(), d.seq, payload, st.reinforced)
		d.Reinforced++
		return
	}
	for _, g := range st.gradients {
		d.sendData(diffExploreMarker, in, d.dev.ID(), d.seq, payload, g)
		d.Exploratory++
	}
}

func (d *Diffusion) sendData(marker byte, in InterestID, origin packet.NodeID, seq uint32, payload []byte, to packet.NodeID) {
	body := make([]byte, 9+len(payload))
	body[0] = marker
	binary.BigEndian.PutUint32(body[1:], uint32(in))
	binary.BigEndian.PutUint32(body[5:], uint32(origin))
	copy(body[9:], payload)
	pkt := &packet.Packet{
		Kind:    packet.KindData,
		From:    d.dev.ID(),
		To:      to,
		Origin:  origin,
		Target:  to,
		Seq:     seq,
		TTL:     d.TTL,
		Payload: body,
	}
	if d.dev.Send(pkt) {
		d.Metrics.Inc(metrics.DataSent)
	}
}

// HandleMessage implements node.Stack.
func (d *Diffusion) HandleMessage(pkt *packet.Packet) {
	if d.dev == nil || len(pkt.Payload) < 5 {
		return
	}
	switch {
	case pkt.Kind == packet.KindRReq && pkt.Payload[0] == diffInterestMarker:
		d.handleInterest(pkt)
	case pkt.Kind == packet.KindData && pkt.Target == d.dev.ID():
		d.handleData(pkt)
	case pkt.Kind == packet.KindAck && pkt.Target == d.dev.ID() && pkt.Payload[0] == diffReinforceMarker:
		d.handleReinforce(pkt)
	}
}

func (d *Diffusion) handleInterest(pkt *packet.Packet) {
	in := InterestID(binary.BigEndian.Uint32(pkt.Payload[1:]))
	st := d.state(in)
	// Record the gradient toward the interest's sender.
	known := false
	for _, g := range st.gradients {
		if g == pkt.From {
			known = true
			break
		}
	}
	if !known {
		st.gradients = append(st.gradients, pkt.From)
	}
	// Re-flood once per (sink, seq).
	if pkt.TTL <= 1 || d.seen.Check(pkt.Origin, pkt.Seq) {
		return
	}
	fwd := *pkt
	fwd.From = d.dev.ID()
	fwd.TTL--
	fwd.Hops++
	if d.dev.Send(&fwd) {
		d.Metrics.Inc(metrics.RReqSent)
	}
}

func (d *Diffusion) handleData(pkt *packet.Packet) {
	if len(pkt.Payload) < 9 {
		return
	}
	marker := pkt.Payload[0]
	in := InterestID(binary.BigEndian.Uint32(pkt.Payload[1:]))
	origin := packet.NodeID(binary.BigEndian.Uint32(pkt.Payload[5:]))
	st := d.state(in)
	switch marker {
	case diffExploreMarker:
		// Duplicate suppression is the in-network aggregation.
		if d.seen.Check(origin, pkt.Seq) {
			return
		}
		if st.upstream == packet.None {
			st.upstream = pkt.From // first-delivery upstream, for reinforcement
		}
		if pkt.TTL <= 1 {
			return
		}
		for _, g := range st.gradients {
			if g == pkt.From {
				continue
			}
			fwd := *pkt
			fwd.From = d.dev.ID()
			fwd.To = g
			fwd.Target = g
			fwd.TTL--
			fwd.Hops++
			if d.dev.Send(&fwd) {
				d.Metrics.Inc(metrics.DataSent)
				d.Exploratory++
			}
		}
	case diffDataMarker:
		if st.reinforced == packet.None || pkt.TTL <= 1 {
			return
		}
		fwd := *pkt
		fwd.From = d.dev.ID()
		fwd.To = st.reinforced
		fwd.Target = st.reinforced
		fwd.TTL--
		fwd.Hops++
		if d.dev.Send(&fwd) {
			d.Metrics.Inc(metrics.DataSent)
			d.Reinforced++
		}
	}
}

func (d *Diffusion) handleReinforce(pkt *packet.Packet) {
	if len(pkt.Payload) < 5 {
		return
	}
	in := InterestID(binary.BigEndian.Uint32(pkt.Payload[1:]))
	st := d.state(in)
	// The reinforcing neighbor is sink-ward.
	st.reinforced = pkt.From
	// Extend the reinforcement toward the source along our first-delivery
	// upstream, if any.
	if st.upstream == packet.None || st.upstream == pkt.From {
		return
	}
	fwd := *pkt
	fwd.From = d.dev.ID()
	fwd.To = st.upstream
	fwd.Target = st.upstream
	fwd.Hops++
	if d.dev.Send(&fwd) {
		d.Metrics.Inc(metrics.AckSent)
	}
}

// DiffusionSink floods interests and absorbs matching data, reinforcing the
// first-delivering neighbor per interest.
type DiffusionSink struct {
	Metrics metrics.Sink
	TTL     uint8

	dev        *node.Device
	seq        uint32
	reinforced map[InterestID]bool
}

// NewDiffusionSink creates the sink stack.
func NewDiffusionSink(m metrics.Sink, ttl uint8) *DiffusionSink {
	return &DiffusionSink{Metrics: m, TTL: ttl, reinforced: make(map[InterestID]bool)}
}

// Start implements node.Stack.
func (s *DiffusionSink) Start(dev *node.Device) { s.dev = dev }

// Subscribe floods an interest.
func (s *DiffusionSink) Subscribe(in InterestID) {
	if s.dev == nil || !s.dev.Alive() {
		return
	}
	s.seq++
	body := make([]byte, 5)
	body[0] = diffInterestMarker
	binary.BigEndian.PutUint32(body[1:], uint32(in))
	pkt := &packet.Packet{
		Kind:    packet.KindRReq,
		From:    s.dev.ID(),
		To:      packet.Broadcast,
		Origin:  s.dev.ID(),
		Target:  packet.Broadcast,
		Seq:     s.seq,
		TTL:     s.TTL,
		Payload: body,
	}
	if s.dev.Send(pkt) {
		s.Metrics.Inc(metrics.RReqSent)
	}
}

// HandleMessage implements node.Stack.
func (s *DiffusionSink) HandleMessage(pkt *packet.Packet) {
	if s.dev == nil || pkt.Kind != packet.KindData || pkt.Target != s.dev.ID() || len(pkt.Payload) < 9 {
		return
	}
	marker := pkt.Payload[0]
	if marker != diffExploreMarker && marker != diffDataMarker {
		return
	}
	in := InterestID(binary.BigEndian.Uint32(pkt.Payload[1:]))
	origin := packet.NodeID(binary.BigEndian.Uint32(pkt.Payload[5:]))
	s.Metrics.RecordDelivered(origin, pkt.Seq, s.dev.ID(), int(pkt.Hops)+1, s.dev.Now())
	// Reinforce the first neighbor that delivers exploratory data.
	if marker == diffExploreMarker && !s.reinforced[in] {
		s.reinforced[in] = true
		body := make([]byte, 5)
		body[0] = diffReinforceMarker
		binary.BigEndian.PutUint32(body[1:], uint32(in))
		r := &packet.Packet{
			Kind:    packet.KindAck,
			From:    s.dev.ID(),
			To:      pkt.From,
			Origin:  s.dev.ID(),
			Target:  pkt.From,
			Seq:     pkt.Seq,
			TTL:     s.TTL,
			Payload: body,
		}
		if s.dev.Send(r) {
			s.Metrics.Inc(metrics.AckSent)
		}
	}
}
