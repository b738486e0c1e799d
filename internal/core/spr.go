package core

import (
	"wmsn/internal/metrics"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// SPR (§5.2) minimizes the number of hops between each sensor node and the
// best of the m gateways. Discovery is on demand: a sensor with data but no
// route floods an RREQ toward all gateways; gateways — and any sensor that
// already has a route, per Property 1 — answer with an RRES carrying the
// full path; the source picks the least-hop response. The first data packet
// carries the chosen path in its head and installs routing entries on every
// on-path node (step 5.2); subsequent packets are forwarded from those
// tables without carrying routes.

// SPRSensor is the sensor-node side of SPR.
type SPRSensor struct {
	sensor

	// table holds the discovered route per gateway; best points at the
	// entry currently used for data.
	table map[packet.NodeID]Route
	best  *Route
	// routeFresh marks that the next data packet must carry the path to
	// install on-path tables (SPR step 5.1).
	routeFresh bool
	// responses collects the answers to the discovery in flight; only the
	// originator keeps them.
	responses []Route
}

// NewSPRSensor creates a sensor stack with the given parameters and shared
// metrics sink.
func NewSPRSensor(p Params, m metrics.Sink) *SPRSensor {
	return &SPRSensor{sensor: newSensor(p, m), table: make(map[packet.NodeID]Route)}
}

// Start implements node.Stack.
func (s *SPRSensor) Start(dev *node.Device) {
	s.start(dev)
	if iv := s.Params.AdvertInterval; iv > 0 {
		dev.World().Kernel().Every(iv, s.sweep)
	}
}

// BestRoute returns the route data currently follows, or nil.
func (s *SPRSensor) BestRoute() *Route {
	if s.best == nil {
		return nil
	}
	r := *s.best
	return &r
}

// Table returns a copy of the routing table.
func (s *SPRSensor) Table() map[packet.NodeID]Route {
	out := make(map[packet.NodeID]Route, len(s.table))
	for k, v := range s.table {
		out[k] = v
	}
	return out
}

// OriginateData queues one payload for delivery to the best gateway,
// triggering route discovery when necessary (SPR step 1).
func (s *SPRSensor) OriginateData(payload []byte) {
	if !s.alive() {
		return
	}
	if s.best != nil {
		s.sendData(payload)
	} else if s.enqueue(payload) {
		s.startDiscovery()
	}
}

func (s *SPRSensor) startDiscovery() {
	s.responses = s.responses[:0]
	s.discover(nil)
	s.dev.After(responseWait, s.decide)
}

// decide concludes a discovery window (SPR step 4).
func (s *SPRSensor) decide() {
	best := bestOf(s.responses)
	queued, found, again := s.conclude(best)
	if again {
		s.startDiscovery()
	}
	if !found {
		return
	}
	s.table[best.Gateway] = *best
	s.best = best
	s.routeFresh = true
	if s.Params.AdvertInterval > 0 {
		// Liveness mode: keep every answer as a failover alternative and
		// note the answering gateways as alive. Off by default so plain
		// runs keep their exact table contents.
		now := s.dev.Now()
		for _, r := range s.responses {
			if old, ok := s.table[r.Gateway]; !ok || r.Hops < old.Hops {
				s.table[r.Gateway] = r
			}
			s.heard(r.Gateway, now)
		}
	}
	for _, p := range queued {
		s.sendData(p)
	}
}

// sweep is the periodic liveness check armed when Params.AdvertInterval is
// set: routes through gateways past their liveness deadline are dropped,
// and a lost best route fails over to the next-best surviving entry. The
// recorded failover latency is the gap between the liveness deadline
// expiring and the replacement being installed — bounded by one advert
// interval, since that is the sweep period.
func (s *SPRSensor) sweep() {
	if !s.alive() {
		return
	}
	now := s.dev.Now()
	lostAt := sim.Time(-1)
	for gw := range s.table {
		if at, dead := s.silent(gw, now); dead {
			delete(s.table, gw)
			delete(s.lastHeard, gw)
			if s.best != nil && s.best.Gateway == gw {
				lostAt = at
			}
		}
	}
	if lostAt < 0 {
		return
	}
	if s.best = s.bestEntry(); s.best != nil {
		s.routeFresh = true
		s.credit(s.best.Gateway, "liveness", lostAt)
	} else if s.routeLost(lostAt) {
		s.startDiscovery() // no cached alternative: rediscover now
	}
}

// HandleLinkFailure implements node.LinkFailureHandler: the link layer
// exhausted its ARQ retry budget sending pkt to pkt.To, so that hop is
// treated as dead. Every cached route through it is dropped and the frame
// is re-sent along the best surviving route when one exists. Losing the
// active route with no alternative leaves the same pending reroute the
// advert sweep does, so exactly one reroute is credited no matter which
// detector — ARQ exhaustion or advert expiry — fired first.
func (s *SPRSensor) HandleLinkFailure(pkt *packet.Packet) {
	if pkt.Kind != packet.KindData || !s.alive() {
		return
	}
	dead := pkt.To
	wasBest := s.best != nil && s.best.NextHop() == dead
	for gw, r := range s.table {
		if r.NextHop() == dead {
			delete(s.table, gw)
		}
	}
	if wasBest {
		if s.best = s.bestEntry(); s.best != nil {
			s.routeFresh = true
			s.credit(dead, "link_failure", -1)
		} else if !s.rerouting && s.routeLost(s.dev.Now()) {
			s.startDiscovery()
		}
	}
	// Recover the frame itself. Own data restarts on the new best route;
	// mid-path data re-forwards from a surviving table entry.
	if pkt.Origin == s.dev.ID() {
		if s.best == nil {
			return // rediscovery in flight; this reading is lost
		}
		fwd := s.along(pkt, s.best)
		fwd.TTL = TTL
		s.routeFresh = false
		s.send(fwd, metrics.DataSent)
	} else if r, ok := s.table[pkt.Target]; ok {
		s.send(s.along(pkt, &r), metrics.DataSent)
	}
}

// along copies pkt onto route r from this node. The path rides along so
// downstream tables install it, exactly like the first packet after
// discovery (step 5.2).
func (s *SPRSensor) along(pkt *packet.Packet, r *Route) *packet.Packet {
	fwd := *pkt
	fwd.From = s.dev.ID()
	fwd.To = r.NextHop()
	fwd.Target = r.Gateway
	fwd.Path = append([]packet.NodeID(nil), r.Path...)
	return &fwd
}

// bestEntry returns the best route left in the table, or nil.
func (s *SPRSensor) bestEntry() *Route {
	rs := make([]Route, 0, len(s.table))
	for _, r := range s.table {
		rs = append(rs, r)
	}
	return bestOf(rs)
}

// bestOf picks the least-hop route; ties break toward the smaller gateway ID
// for determinism.
func bestOf(rs []Route) *Route {
	var best *Route
	for i := range rs {
		r := &rs[i]
		if best == nil || r.Hops < best.Hops ||
			(r.Hops == best.Hops && r.Gateway < best.Gateway) {
			best = r
		}
	}
	if best == nil {
		return nil
	}
	c := *best
	return &c
}

func (s *SPRSensor) sendData(payload []byte) {
	s.seq++
	pkt := &packet.Packet{
		Kind:    packet.KindData,
		From:    s.dev.ID(),
		To:      s.best.NextHop(),
		Origin:  s.dev.ID(),
		Target:  s.best.Gateway,
		Seq:     s.seq,
		TTL:     TTL,
		Payload: payload,
	}
	if s.routeFresh {
		// First packet after (re)discovery carries the route (step 5.1).
		pkt.Path = append([]packet.NodeID(nil), s.best.Path...)
		s.routeFresh = false
	}
	s.Metrics.RecordGenerated(s.dev.ID(), s.seq, s.dev.Now())
	s.send(pkt, metrics.DataSent)
}

// HandleMessage implements node.Stack.
func (s *SPRSensor) HandleMessage(pkt *packet.Packet) {
	if s.dev == nil {
		return // not attached to a device yet
	}
	switch pkt.Kind {
	case packet.KindRReq:
		s.handleRReq(pkt)
	case packet.KindRRes:
		s.handleRRes(pkt)
	case packet.KindData:
		s.handleData(pkt)
	case packet.KindNotify:
		s.handleNotify(pkt)
	}
}

// handleNotify refreshes gateway liveness from an advert flood and
// re-floods it (adverts are the only NOTIFY plain SPR uses).
func (s *SPRSensor) handleNotify(pkt *packet.Packet) {
	if _, ok := parseAdvert(pkt.Payload); !ok || pkt.Origin == s.dev.ID() || s.seen.Check(pkt.Origin, pkt.Seq) {
		return
	}
	s.heard(pkt.Origin, s.dev.Now())
	s.relayFlood(pkt)
}

func (s *SPRSensor) handleRReq(pkt *packet.Packet) {
	if pkt.Origin == s.dev.ID() || s.seen.Check(pkt.Origin, pkt.Seq) {
		return
	}
	if s.best != nil && !s.Params.NoShortcutAnswers {
		s.shortcut(pkt, s.best.Path, nil)
		return
	}
	s.relayFlood(pkt)
}

func (s *SPRSensor) handleRRes(pkt *packet.Packet) {
	if pkt.Target != s.dev.ID() {
		s.relayResponse(pkt, indexOf(pkt.Path, s.dev.ID()))
		return
	}
	if s.discovering && len(pkt.Path) >= 2 {
		s.responses = append(s.responses, Route{
			Gateway: pkt.Path[len(pkt.Path)-1],
			Place:   -1,
			Hops:    len(pkt.Path) - 1,
			Path:    append([]packet.NodeID(nil), pkt.Path...),
		})
	}
}

func (s *SPRSensor) handleData(pkt *packet.Packet) {
	if pkt.Target == s.dev.ID() || s.expired(pkt) {
		return // sensors are not data sinks; stop mis-addressed traffic
	}
	if len(pkt.Path) > 0 {
		// First packet of a flow: forward along the carried path and
		// install the suffix route (step 5.2, justified by Property 1).
		idx := s.followPath(pkt, metrics.DataSent)
		if idx < 0 {
			return
		}
		r := Route{Gateway: pkt.Target, Place: -1, Hops: len(pkt.Path) - 1 - idx,
			Path: append([]packet.NodeID(nil), pkt.Path[idx:]...)}
		if old, ok := s.table[pkt.Target]; !ok || r.Hops < old.Hops {
			s.table[pkt.Target] = r
			if s.best == nil || r.Hops < s.best.Hops {
				rr := r
				s.best = &rr
			}
		}
		if s.Params.AdvertInterval > 0 {
			// A flow actively routing through the gateway counts as proof
			// of life until the advert deadline says otherwise.
			s.heard(pkt.Target, s.dev.Now())
		}
		return
	}
	// Path-less packet: forward from the local table (step 5.3).
	if r, ok := s.table[pkt.Target]; ok {
		s.forward(pkt, r.NextHop(), metrics.DataSent)
	} else if s.Params.LinkRetries <= 0 || !s.redirectData(pkt) {
		s.drop(pkt, metrics.ForwardNoEntry, "no_entry")
	}
}

// redirectData re-targets a data frame this node can no longer forward —
// typically because a link-failure verdict invalidated its entry for
// pkt.Target — to the best surviving gateway, carrying the path so
// downstream tables re-install. Only used when link ARQ is armed: the
// upstream hop had its frame link-acknowledged by us, so dropping it here
// would be a silent blackhole no end-to-end mechanism ever notices.
func (s *SPRSensor) redirectData(pkt *packet.Packet) bool {
	r := s.bestEntry()
	if r == nil {
		return false
	}
	fwd := s.along(pkt, r)
	fwd.TTL--
	fwd.Hops++
	return s.send(fwd, metrics.DataSent)
}

// SPRGateway is the gateway (WMG) side of SPR: it answers route queries and
// absorbs data, optionally relaying it up the mesh backbone.
type SPRGateway struct{ gateway }

// NewSPRGateway creates a gateway stack.
func NewSPRGateway(p Params, m metrics.Sink) *SPRGateway {
	return &SPRGateway{newGateway(p, m)}
}

// HandleMessage implements node.Stack.
func (g *SPRGateway) HandleMessage(pkt *packet.Packet) {
	if g.dev == nil {
		return // not attached to a device yet
	}
	switch pkt.Kind {
	case packet.KindRReq:
		// Answer the first copy with the flood's path extended by this
		// gateway (step 3).
		if !g.seen.Check(pkt.Origin, pkt.Seq) {
			g.respond(pkt.From, pkt.Origin, pkt.Seq, pkt.AppendHop(g.dev.ID()), nil, nil)
		}
	case packet.KindData:
		if pkt.Target == g.dev.ID() {
			g.deliver(pkt, pkt.Payload)
		}
	}
}
