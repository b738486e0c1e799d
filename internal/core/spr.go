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
	Params  Params
	Metrics metrics.Sink

	dev  *node.Device
	seen *packet.Dedupe
	seq  uint32

	// table holds the discovered route per gateway; best points at the
	// entry currently used for data.
	table map[packet.NodeID]Route
	best  *Route
	// routeFresh marks that the next data packet must carry the path to
	// install on-path tables (SPR step 5.1).
	routeFresh bool

	// lastHeard tracks per-gateway liveness (see advert.go); rerouting and
	// lostAt carry a pending failover across a rediscovery when no cached
	// alternative survived the liveness sweep.
	lastHeard map[packet.NodeID]sim.Time
	rerouting bool
	lostAt    sim.Time

	queue       [][]byte
	discovering bool
	retriesLeft int
	responses   []Route
}

// NewSPRSensor creates a sensor stack with the given parameters and shared
// metrics sink.
func NewSPRSensor(p Params, m metrics.Sink) *SPRSensor {
	return &SPRSensor{Params: p, Metrics: m,
		table:     make(map[packet.NodeID]Route),
		lastHeard: make(map[packet.NodeID]sim.Time)}
}

// Start implements node.Stack.
func (s *SPRSensor) Start(dev *node.Device) {
	s.dev = dev
	s.seen = packet.NewDedupe(1 << 14)
	enableARQ(dev, s.Params, s.Metrics)
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
	if s.dev == nil || !s.dev.Alive() {
		return
	}
	if s.best != nil {
		s.sendData(payload)
		return
	}
	if len(s.queue) >= s.Params.QueueLimit {
		s.Metrics.Inc(metrics.DroppedQueue)
		return
	}
	s.queue = append(s.queue, payload)
	if !s.discovering {
		s.retriesLeft = s.Params.Retries
		s.startDiscovery()
	}
}

func (s *SPRSensor) startDiscovery() {
	s.discovering = true
	s.responses = s.responses[:0]
	s.seq++
	req := &packet.Packet{
		Kind:   packet.KindRReq,
		From:   s.dev.ID(),
		To:     packet.Broadcast,
		Origin: s.dev.ID(),
		Target: packet.Broadcast, // "m destinations": any gateway
		Seq:    s.seq,
		TTL:    s.Params.TTL,
		Path:   []packet.NodeID{s.dev.ID()},
	}
	s.seen.Check(s.dev.ID(), s.seq) // never re-forward our own flood
	if s.dev.Send(req) {
		s.Metrics.Inc(metrics.RReqSent)
	}
	s.dev.After(s.Params.ResponseWait, s.decide)
}

// decide concludes a discovery window (SPR step 4).
func (s *SPRSensor) decide() {
	if !s.discovering || s.dev == nil || !s.dev.Alive() {
		return
	}
	s.discovering = false
	best := bestOf(s.responses)
	if best == nil {
		if s.retriesLeft > 0 {
			s.retriesLeft--
			s.startDiscovery()
			return
		}
		s.Metrics.Add(metrics.DroppedNoRoute, uint64(len(s.queue)))
		traceExpiredBatch(s.dev, len(s.queue), "no_route")
		s.queue = nil
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
			s.lastHeard[r.Gateway] = now
		}
		if s.rerouting {
			s.rerouting = false
			s.Metrics.Inc(metrics.Reroutes)
			s.Metrics.Add(metrics.FailoverLatencyUs, uint64(now-s.lostAt))
			s.Metrics.Observe(metrics.HistFailoverLatencyUs, uint64(now-s.lostAt))
			traceReroute(s.dev, best.Gateway, "rediscovery", now-s.lostAt)
		}
	}
	for _, p := range s.queue {
		s.sendData(p)
	}
	s.queue = nil
}

// sweep is the periodic liveness check armed when Params.AdvertInterval is
// set: routes through gateways past their liveness deadline are dropped,
// and a lost best route fails over to the next-best surviving entry. The
// recorded failover latency is the gap between the liveness deadline
// expiring and the replacement being installed — bounded by one advert
// interval, since that is the sweep period.
func (s *SPRSensor) sweep() {
	if s.dev == nil || !s.dev.Alive() {
		return
	}
	timeout := s.Params.advertTimeout()
	now := s.dev.Now()
	lostAt := sim.Time(-1)
	for gw := range s.table {
		at, ok := s.lastHeard[gw]
		if !ok || now <= at+timeout {
			continue // never confirmed (bootstrap) or still live
		}
		delete(s.table, gw)
		delete(s.lastHeard, gw)
		if s.best != nil && s.best.Gateway == gw {
			lostAt = at + timeout
		}
	}
	if lostAt < 0 {
		return
	}
	s.best = nil
	rs := make([]Route, 0, len(s.table))
	for _, r := range s.table {
		rs = append(rs, r)
	}
	if next := bestOf(rs); next != nil {
		s.best = next
		s.routeFresh = true
		s.Metrics.Inc(metrics.Reroutes)
		s.Metrics.Add(metrics.FailoverLatencyUs, uint64(now-lostAt))
		s.Metrics.Observe(metrics.HistFailoverLatencyUs, uint64(now-lostAt))
		traceReroute(s.dev, next.Gateway, "liveness", now-lostAt)
		return
	}
	// No cached alternative: rediscover immediately instead of waiting for
	// the next origination; credit the reroute when the discovery
	// concludes.
	s.rerouting = true
	s.lostAt = lostAt
	if !s.discovering {
		s.retriesLeft = s.Params.Retries
		s.startDiscovery()
	}
}

// HandleLinkFailure implements node.LinkFailureHandler: the link layer
// exhausted its ARQ retry budget sending pkt to pkt.To, so that hop is
// treated as dead. Every cached route through it is dropped and the frame
// is re-sent along the best surviving route when one exists. Losing the
// active route with no alternative falls into the same rerouting/lostAt
// state the advert sweep uses, so decide() credits exactly one reroute no
// matter which detector — ARQ exhaustion or advert expiry — fired first.
func (s *SPRSensor) HandleLinkFailure(pkt *packet.Packet) {
	if pkt.Kind != packet.KindData || s.dev == nil || !s.dev.Alive() {
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
		s.best = nil
		rs := make([]Route, 0, len(s.table))
		for _, r := range s.table {
			rs = append(rs, r)
		}
		if next := bestOf(rs); next != nil {
			// Replacement installed the instant the loss was detected; the
			// failover latency is zero by construction.
			s.best = next
			s.routeFresh = true
			s.Metrics.Inc(metrics.Reroutes)
			traceReroute(s.dev, dead, "link_failure", 0)
		} else if !s.rerouting {
			s.rerouting = true
			s.lostAt = s.dev.Now()
			if !s.discovering {
				s.retriesLeft = s.Params.Retries
				s.startDiscovery()
			}
		}
	}
	// Recover the frame itself. Own data restarts on the new best route;
	// mid-path data re-forwards from a surviving table entry. The carried
	// path installs forwarding state downstream (step 5.2), exactly like
	// the first packet after discovery.
	if pkt.Origin == s.dev.ID() {
		if s.best == nil {
			return // rediscovery in flight; this reading is lost
		}
		fwd := *pkt
		fwd.From = s.dev.ID()
		fwd.To = s.best.NextHop()
		fwd.Target = s.best.Gateway
		fwd.TTL = s.Params.TTL
		fwd.Path = append([]packet.NodeID(nil), s.best.Path...)
		s.routeFresh = false
		if s.dev.Send(&fwd) {
			s.Metrics.Inc(metrics.DataSent)
		}
		return
	}
	r, ok := s.table[pkt.Target]
	if !ok {
		return // no surviving route for this flow; the frame is lost here
	}
	fwd := *pkt
	fwd.From = s.dev.ID()
	fwd.To = r.NextHop()
	fwd.Path = append([]packet.NodeID(nil), r.Path...)
	if s.dev.Send(&fwd) {
		s.Metrics.Inc(metrics.DataSent)
	}
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
		TTL:     s.Params.TTL,
		Payload: payload,
	}
	if s.routeFresh {
		// First packet after (re)discovery carries the route (step 5.1).
		pkt.Path = append([]packet.NodeID(nil), s.best.Path...)
		s.routeFresh = false
	}
	s.Metrics.RecordGenerated(s.dev.ID(), s.seq, s.dev.Now())
	if s.dev.Send(pkt) {
		s.Metrics.Inc(metrics.DataSent)
	}
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
	if _, ok := parseAdvert(pkt.Payload); !ok {
		return
	}
	if pkt.Origin == s.dev.ID() || s.seen.Check(pkt.Origin, pkt.Seq) {
		return
	}
	s.lastHeard[pkt.Origin] = s.dev.Now()
	if pkt.TTL <= 1 {
		return
	}
	fwd := *pkt
	fwd.From = s.dev.ID()
	fwd.TTL--
	fwd.Hops++
	s.sendFlood(&fwd, metrics.NotifySent)
}

func (s *SPRSensor) handleRReq(pkt *packet.Packet) {
	if pkt.Origin == s.dev.ID() || s.seen.Check(pkt.Origin, pkt.Seq) {
		return
	}
	if s.best != nil && !s.Params.NoShortcutAnswers {
		// Step 3.1: a node with an established route answers directly
		// instead of re-flooding (Property 1 shortcut). The flood prefix
		// and the cached suffix may share nodes; erase any loops.
		full := shortcutPath(pkt.Path, s.dev.ID(), s.best.Path)
		res := &packet.Packet{
			Kind:   packet.KindRRes,
			From:   s.dev.ID(),
			To:     pkt.From,
			Origin: s.dev.ID(),
			Target: pkt.Origin,
			Seq:    pkt.Seq,
			TTL:    s.Params.TTL,
			Path:   full,
		}
		if s.dev.Send(res) {
			s.Metrics.Inc(metrics.RResSent)
		}
		return
	}
	if pkt.TTL <= 1 {
		return
	}
	fwd := *pkt
	fwd.Path = pkt.AppendHop(s.dev.ID())
	fwd.From = s.dev.ID()
	fwd.TTL--
	fwd.Hops++
	s.sendFlood(&fwd, metrics.RReqSent)
}

// sendFlood transmits a flood rebroadcast, optionally jittered to
// de-synchronize broadcast storms on collision-prone media.
func (s *SPRSensor) sendFlood(fwd *packet.Packet, counter metrics.Counter) {
	if j := s.Params.FloodJitter; j > 0 {
		delay := sim.Duration(s.dev.World().Kernel().Rand().Int63n(int64(j)))
		s.dev.After(delay, func() {
			if s.dev.Alive() && s.dev.Send(fwd) {
				s.Metrics.Inc(counter)
			}
		})
		return
	}
	if s.dev.Send(fwd) {
		s.Metrics.Inc(counter)
	}
}

func (s *SPRSensor) handleRRes(pkt *packet.Packet) {
	if pkt.Target == s.dev.ID() {
		if !s.discovering || len(pkt.Path) < 2 {
			return
		}
		gw := pkt.Path[len(pkt.Path)-1]
		s.responses = append(s.responses, Route{
			Gateway: gw,
			Place:   -1,
			Hops:    len(pkt.Path) - 1,
			Path:    append([]packet.NodeID(nil), pkt.Path...),
		})
		return
	}
	// Forward the response toward its target along the recorded path.
	idx := indexOf(pkt.Path, s.dev.ID())
	if idx <= 0 {
		return
	}
	fwd := *pkt
	fwd.From = s.dev.ID()
	fwd.To = pkt.Path[idx-1]
	fwd.Hops++
	if s.dev.Send(&fwd) {
		s.Metrics.Inc(metrics.RResSent)
	}
}

func (s *SPRSensor) handleData(pkt *packet.Packet) {
	if pkt.Target == s.dev.ID() {
		return // sensors are not data sinks; stop mis-addressed traffic
	}
	if pkt.TTL <= 1 {
		s.Metrics.Inc(metrics.ForwardTTLExpired)
		traceExpired(s.dev, pkt, "ttl")
		return
	}
	if len(pkt.Path) > 0 {
		// First packet of a flow: install the suffix route (step 5.2,
		// justified by Property 1) and forward along the carried path.
		idx := indexOf(pkt.Path, s.dev.ID())
		if idx < 0 || idx+1 >= len(pkt.Path) {
			s.Metrics.Inc(metrics.ForwardSelfLoop)
			traceExpired(s.dev, pkt, "self_loop")
			return
		}
		suffix := append([]packet.NodeID(nil), pkt.Path[idx:]...)
		r := Route{Gateway: pkt.Target, Place: -1, Hops: len(suffix) - 1, Path: suffix}
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
			s.lastHeard[pkt.Target] = s.dev.Now()
		}
		fwd := *pkt
		fwd.From = s.dev.ID()
		fwd.To = pkt.Path[idx+1]
		fwd.TTL--
		fwd.Hops++
		if s.dev.Send(&fwd) {
			s.Metrics.Inc(metrics.DataSent)
		}
		return
	}
	// Path-less packet: forward from the local table (step 5.3).
	r, ok := s.table[pkt.Target]
	if !ok {
		if s.Params.LinkRetries > 0 && s.redirectData(pkt) {
			return
		}
		s.Metrics.Inc(metrics.ForwardNoEntry)
		traceExpired(s.dev, pkt, "no_entry")
		return
	}
	fwd := *pkt
	fwd.From = s.dev.ID()
	fwd.To = r.NextHop()
	fwd.TTL--
	fwd.Hops++
	if s.dev.Send(&fwd) {
		s.Metrics.Inc(metrics.DataSent)
	}
}

// redirectData re-targets a data frame this node can no longer forward —
// typically because a link-failure verdict invalidated its entry for
// pkt.Target — to the best surviving gateway, carrying the path so
// downstream tables re-install. Only used when link ARQ is armed: the
// upstream hop had its frame link-acknowledged by us, so dropping it here
// would be a silent blackhole no end-to-end mechanism ever notices.
func (s *SPRSensor) redirectData(pkt *packet.Packet) bool {
	rs := make([]Route, 0, len(s.table))
	for _, r := range s.table {
		rs = append(rs, r)
	}
	r := bestOf(rs)
	if r == nil {
		return false
	}
	fwd := *pkt
	fwd.From = s.dev.ID()
	fwd.To = r.NextHop()
	fwd.Target = r.Gateway
	fwd.Path = append([]packet.NodeID(nil), r.Path...)
	fwd.TTL--
	fwd.Hops++
	if s.dev.Send(&fwd) {
		s.Metrics.Inc(metrics.DataSent)
		return true
	}
	return false
}

func indexOf(path []packet.NodeID, id packet.NodeID) int {
	for i, p := range path {
		if p == id {
			return i
		}
	}
	return -1
}

// SPRGateway is the gateway (WMG) side of SPR: it answers route queries and
// absorbs data, optionally relaying it up the mesh backbone.
type SPRGateway struct {
	Params  Params
	Metrics metrics.Sink
	// Uplink, when set, receives every delivered data packet (the mesh
	// layer hooks in here).
	Uplink func(origin packet.NodeID, seq uint32, payload []byte)

	dev       *node.Device
	seen      *packet.Dedupe
	advertSeq uint32
}

// NewSPRGateway creates a gateway stack.
func NewSPRGateway(p Params, m metrics.Sink) *SPRGateway {
	return &SPRGateway{Params: p, Metrics: m}
}

// Start implements node.Stack.
func (g *SPRGateway) Start(dev *node.Device) {
	g.dev = dev
	g.seen = packet.NewDedupe(1 << 14)
	enableARQ(dev, g.Params, g.Metrics)
	if iv := g.Params.AdvertInterval; iv > 0 {
		startAdverts(dev, iv, g.sendAdvert)
	}
}

// sendAdvert floods one liveness beacon (see advert.go).
func (g *SPRGateway) sendAdvert() {
	if g.dev == nil || !g.dev.Alive() {
		return
	}
	g.advertSeq++
	pkt := &packet.Packet{
		Kind:    packet.KindNotify,
		From:    g.dev.ID(),
		To:      packet.Broadcast,
		Origin:  g.dev.ID(),
		Target:  packet.Broadcast,
		Seq:     g.advertSeq,
		TTL:     g.Params.TTL,
		Payload: marshalAdvert(-1),
	}
	if g.dev.Send(pkt) {
		g.Metrics.Inc(metrics.AdvertSent)
	}
}

// HandleMessage implements node.Stack.
func (g *SPRGateway) HandleMessage(pkt *packet.Packet) {
	if g.dev == nil {
		return // not attached to a device yet
	}
	switch pkt.Kind {
	case packet.KindRReq:
		if g.seen.Check(pkt.Origin, pkt.Seq) {
			return
		}
		full := pkt.AppendHop(g.dev.ID())
		res := &packet.Packet{
			Kind:   packet.KindRRes,
			From:   g.dev.ID(),
			To:     pkt.From,
			Origin: g.dev.ID(),
			Target: pkt.Origin,
			Seq:    pkt.Seq,
			TTL:    g.Params.TTL,
			Path:   full,
		}
		if g.dev.Send(res) {
			g.Metrics.Inc(metrics.RResSent)
		}
	case packet.KindData:
		if pkt.Target != g.dev.ID() {
			return
		}
		g.Metrics.RecordDelivered(pkt.Origin, pkt.Seq, g.dev.ID(), int(pkt.Hops)+1, g.dev.Now())
		if g.Uplink != nil {
			g.Uplink(pkt.Origin, pkt.Seq, pkt.Payload)
		}
	}
}
