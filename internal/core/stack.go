package core

import (
	"wmsn/internal/metrics"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// The three protocols share one routing machine. The paper builds MLR as
// SPR plus incremental place tables (§5.3) and SecMLR as MLR with every
// phase secured (§6.2), so the steps they have in common live here once:
//
//   - station is what every core stack holds: parameters, metrics sink,
//     device, flood dedupe and sequence counter.
//   - sensor adds the originate → queue → discover → decide → flush cycle,
//     flood relaying, route-response back-forwarding, hop-by-hop and
//     source-routed forwarding with their drop accounting, and the
//     bookkeeping that starts and credits a reroute.
//   - gateway adds liveness adverts and NOTIFY floods, route answers,
//     delivery to the uplink, and source-routed sends back down a sensor's
//     discovery path.
//
// Each protocol type embeds one of them and calls these methods directly;
// spr.go, mlr.go and secmlr.go keep only what the paper says differs.

// station is the state every core stack holds.
type station struct {
	Params  Params
	Metrics metrics.Sink

	dev  *node.Device
	seen *packet.Dedupe
	seq  uint32
}

func (st *station) start(dev *node.Device) {
	st.dev = dev
	st.seen = packet.NewDedupe(1 << 14)
	enableARQ(dev, st.Params, st.Metrics)
}

// alive reports whether the stack is attached to a live device.
func (st *station) alive() bool { return st.dev != nil && st.dev.Alive() }

// send transmits pkt and counts it under c if it left the radio.
func (st *station) send(pkt *packet.Packet, c metrics.Counter) bool {
	if !st.dev.Send(pkt) {
		return false
	}
	st.Metrics.Inc(c)
	return true
}

// sensor is the sensor side of the routing machine.
type sensor struct {
	station

	// queue buffers readings while a discovery is in flight.
	queue       [][]byte
	discovering bool
	retriesLeft int

	// lastHeard tracks per-gateway liveness (see advert.go; nil until the
	// first heard); rerouting and lostAt carry a pending failover across a
	// rediscovery when no cached alternative survived the loss of the
	// active route.
	lastHeard map[packet.NodeID]sim.Time
	rerouting bool
	lostAt    sim.Time
}

func newSensor(p Params, m metrics.Sink) sensor {
	return sensor{station: station{Params: p, Metrics: m}}
}

// Start implements node.Stack.
func (s *sensor) Start(dev *node.Device) { s.start(dev) }

// enqueue buffers a reading until discovery finds a route. It reports
// whether a discovery must start for it.
func (s *sensor) enqueue(payload []byte) bool {
	if len(s.queue) >= queueLimit {
		s.Metrics.Inc(metrics.DroppedQueue)
		return false
	}
	s.queue = append(s.queue, payload)
	return s.idle()
}

// idle reports whether no discovery is in flight, granting a fresh retry
// budget to the one the caller then starts.
func (s *sensor) idle() bool {
	if s.discovering {
		return false
	}
	s.retriesLeft = discoveryRetries
	return true
}

// queueLimit bounds the readings buffered while discovery is in flight;
// discoveryRetries is how often a discovery is reissued before they drop.
const queueLimit, discoveryRetries = 64, 2

// responseWait is how long a sensor collects route responses before
// choosing the best gateway.
const responseWait = 300 * sim.Millisecond

// discover floods a route request carrying payload toward every gateway
// ("m destinations", SPR step 1); the caller arms its decision timer to
// fire after responseWait.
func (s *sensor) discover(payload []byte) {
	s.discovering = true
	s.seq++
	s.seen.Check(s.dev.ID(), s.seq) // never re-forward our own flood
	s.send(&packet.Packet{
		Kind:    packet.KindRReq,
		From:    s.dev.ID(),
		To:      packet.Broadcast,
		Origin:  s.dev.ID(),
		Target:  packet.Broadcast,
		Seq:     s.seq,
		TTL:     TTL,
		Path:    []packet.NodeID{s.dev.ID()},
		Payload: payload,
	}, metrics.RReqSent)
}

// conclude closes a discovery window (SPR step 4) that found best, nil for
// none. When the window was still open and found a route, it credits a
// pending reroute to it and returns the queued readings for sending.
// Without a route, again reports that the request should be reissued; once
// the retries are spent the queue is dropped instead.
func (s *sensor) conclude(best *Route) (queued [][]byte, found, again bool) {
	if !s.discovering || !s.alive() {
		return nil, false, false
	}
	s.discovering = false
	if best == nil {
		if s.retriesLeft > 0 {
			s.retriesLeft--
			return nil, false, true
		}
		s.Metrics.Add(metrics.DroppedNoRoute, uint64(len(s.queue)))
		traceExpiredBatch(s.dev, len(s.queue), "no_route")
		s.queue = nil
		return nil, false, false
	}
	if s.rerouting {
		s.rerouting = false
		s.credit(best.Gateway, "rediscovery", s.lostAt)
	}
	queued, s.queue = s.queue, nil
	return queued, true, false
}

// routeLost marks that the active route died at lostAt with no cached
// alternative: the discovery that next installs a route credits the
// reroute. It reports whether that discovery must start now.
func (s *sensor) routeLost(lostAt sim.Time) bool {
	s.rerouting = true
	s.lostAt = lostAt
	return s.idle()
}

// credit counts one reroute onto peer by the named mechanism. lostAt is
// when the old route died; a negative lostAt marks a replacement installed
// the instant the loss was detected, which records no failover latency.
func (s *sensor) credit(peer packet.NodeID, detail string, lostAt sim.Time) {
	s.Metrics.Inc(metrics.Reroutes)
	var gap sim.Duration
	if lostAt >= 0 {
		gap = s.dev.Now() - lostAt
		s.Metrics.Add(metrics.FailoverLatencyUs, uint64(gap))
		s.Metrics.Observe(metrics.HistFailoverLatencyUs, uint64(gap))
	}
	traceReroute(s.dev, peer, detail, gap)
}

// heard notes gateway gw as alive at time at. The map is made here, at the
// first note: SPR sensors with adverts off and SecMLR sensors never note
// one, and silent and delete treat a nil map as empty.
func (s *sensor) heard(gw packet.NodeID, at sim.Time) {
	if s.lastHeard == nil {
		s.lastHeard = make(map[packet.NodeID]sim.Time)
	}
	s.lastHeard[gw] = at
}

// silent reports whether gateway gw, once heard from, has missed its
// liveness deadline by now, and when that deadline passed.
func (s *sensor) silent(gw packet.NodeID, now sim.Time) (sim.Time, bool) {
	at, ok := s.lastHeard[gw]
	deadline := at + s.Params.advertTimeout()
	if !ok || now <= deadline {
		return 0, false // never confirmed (bootstrap) or still live
	}
	return deadline, true
}

// shortcut answers a route request from this node's cached route (SPR/MLR
// step 3.1, the Property 1 shortcut) instead of re-flooding it.
func (s *sensor) shortcut(pkt *packet.Packet, route []packet.NodeID, payload []byte) {
	s.send(&packet.Packet{
		Kind:    packet.KindRRes,
		From:    s.dev.ID(),
		To:      pkt.From,
		Origin:  s.dev.ID(),
		Target:  pkt.Origin,
		Seq:     pkt.Seq,
		TTL:     TTL,
		Path:    shortcutPath(pkt.Path, s.dev.ID(), route),
		Payload: payload,
	}, metrics.RResSent)
}

// relayFlood rebroadcasts a flooded RREQ or NOTIFY one hop further unless
// its TTL is spent; an RREQ records this node on its path. A positive
// Params.FloodJitter delays the rebroadcast by a uniform random time in
// [0, FloodJitter) to de-synchronize broadcast storms on collision-prone
// media.
func (s *sensor) relayFlood(pkt *packet.Packet) {
	if pkt.TTL <= 1 {
		return
	}
	fwd := *pkt
	counter := metrics.NotifySent
	if pkt.Kind == packet.KindRReq {
		fwd.Path = pkt.AppendHop(s.dev.ID())
		counter = metrics.RReqSent
	}
	fwd.From = s.dev.ID()
	fwd.TTL--
	fwd.Hops++
	if j := s.Params.FloodJitter; j > 0 {
		delay := sim.Duration(s.dev.World().Kernel().Rand().Int63n(int64(j)))
		s.dev.After(delay, func() {
			if s.dev.Alive() {
				s.send(&fwd, counter)
			}
		})
		return
	}
	s.send(&fwd, counter)
}

// relayResponse forwards a route response one hop back toward its target;
// idx is this node's position on the response's path.
func (s *sensor) relayResponse(pkt *packet.Packet, idx int) {
	if idx <= 0 {
		return
	}
	fwd := *pkt
	fwd.From = s.dev.ID()
	fwd.To = pkt.Path[idx-1]
	fwd.Hops++
	s.send(&fwd, metrics.RResSent)
}

// forward passes pkt on to hop to, charging the hop against its TTL.
func (s *sensor) forward(pkt *packet.Packet, to packet.NodeID, c metrics.Counter) {
	fwd := *pkt
	fwd.From = s.dev.ID()
	fwd.To = to
	fwd.TTL--
	fwd.Hops++
	s.send(&fwd, c)
}

// followPath forwards a source-routed frame to the node after this one on
// its carried path and returns this node's index on it, or -1 when this
// node is not on the path or ends it; a DATA frame lost that way is
// counted as malformed.
func (s *sensor) followPath(pkt *packet.Packet, c metrics.Counter) int {
	idx := indexOf(pkt.Path, s.dev.ID())
	if idx < 0 || idx+1 >= len(pkt.Path) {
		if pkt.Kind == packet.KindData {
			s.drop(pkt, metrics.ForwardSelfLoop, "self_loop")
		}
		return -1
	}
	s.forward(pkt, pkt.Path[idx+1], c)
	return idx
}

// expired reports whether a DATA frame in transit has spent its hop budget
// here, counting the drop.
func (s *sensor) expired(pkt *packet.Packet) bool {
	if pkt.TTL > 1 {
		return false
	}
	s.drop(pkt, metrics.ForwardTTLExpired, "ttl")
	return true
}

// drop counts a DATA frame in transit lost here under c and traces why.
// Every relay drop is counted, whichever protocol runs.
func (s *sensor) drop(pkt *packet.Packet, c metrics.Counter, why string) {
	s.Metrics.Inc(c)
	traceExpired(s.dev, pkt, why)
}

// gateway is the gateway (WMG) side of the routing machine.
type gateway struct {
	station
	// Uplink, when set, receives every delivered data packet (the mesh
	// layer hooks in here).
	Uplink func(origin packet.NodeID, seq uint32, payload []byte)

	// place and round are the feasible place the gateway occupies and the
	// MLR round that put it there; place stays -1 under plain SPR and
	// before deployment.
	place, round int
	// paths remembers the discovery path per sensor (sensor ... gateway)
	// so downstream traffic can be source-routed back (§6.2.4: data
	// forwarding runs "from gateways to sensor nodes" too).
	paths map[packet.NodeID][]packet.NodeID
}

func newGateway(p Params, m metrics.Sink) gateway {
	return gateway{station: station{Params: p, Metrics: m}, place: -1,
		paths: make(map[packet.NodeID][]packet.NodeID)}
}

// Start implements node.Stack.
func (g *gateway) Start(dev *node.Device) {
	g.start(dev)
	if iv := g.Params.AdvertInterval; iv > 0 {
		startAdverts(dev, iv, g.sendAdvert)
	}
}

// sendAdvert floods one liveness beacon carrying the current place (see
// advert.go).
func (g *gateway) sendAdvert() {
	if g.alive() {
		g.flood(marshalAdvert(g.place), metrics.AdvertSent)
	}
}

// flood broadcasts a gateway-originated NOTIFY to the whole field and
// counts it under c.
func (g *gateway) flood(payload []byte, c metrics.Counter) {
	g.seq++
	g.seen.Check(g.dev.ID(), g.seq)
	g.send(&packet.Packet{
		Kind:    packet.KindNotify,
		From:    g.dev.ID(),
		To:      packet.Broadcast,
		Origin:  g.dev.ID(),
		Target:  packet.Broadcast,
		Seq:     g.seq,
		TTL:     TTL,
		Payload: payload,
	}, c)
}

// moveTo records the gateway's new place and round and returns the
// movement notice announcing it.
func (g *gateway) moveTo(place, round int) mlrNotify {
	prev := uint16(NoPlace)
	if g.place >= 0 {
		prev = uint16(g.place)
	}
	g.place, g.round = place, round
	return mlrNotify{NewPlace: uint16(place), PrevPlace: prev, Round: uint16(round)}
}

// respond sends the route response to origin's request seq back along path
// (origin ... this gateway), handing it first to hop to.
func (g *gateway) respond(to, origin packet.NodeID, seq uint32, path []packet.NodeID, payload []byte, sec *packet.SecEnvelope) {
	g.send(&packet.Packet{
		Kind:    packet.KindRRes,
		From:    g.dev.ID(),
		To:      to,
		Origin:  g.dev.ID(),
		Target:  origin,
		Seq:     seq,
		TTL:     TTL,
		Path:    path,
		Payload: payload,
		Sec:     sec,
	}, metrics.RResSent)
}

// deliver absorbs a data packet addressed here and passes body up the mesh.
func (g *gateway) deliver(pkt *packet.Packet, body []byte) {
	g.Metrics.RecordDelivered(pkt.Origin, pkt.Seq, g.dev.ID(), int(pkt.Hops)+1, g.dev.Now())
	if g.Uplink != nil {
		g.Uplink(pkt.Origin, pkt.Seq, body)
	}
}

// downPath returns sensor's discovery path reversed (this gateway ...
// sensor), or nil when none is known.
func (g *gateway) downPath(sensor packet.NodeID) []packet.NodeID {
	fwd := g.paths[sensor]
	if len(fwd) < 2 {
		return nil
	}
	rev := make([]packet.NodeID, len(fwd))
	for i, id := range fwd {
		rev[len(fwd)-1-i] = id
	}
	return rev
}

// sendDown source-routes pkt along rev, a path from downPath; the caller
// sets its kind, target, sequence number, payload and envelope.
func (g *gateway) sendDown(pkt *packet.Packet, rev []packet.NodeID, c metrics.Counter) bool {
	pkt.From, pkt.To, pkt.Origin = g.dev.ID(), rev[1], g.dev.ID()
	pkt.TTL, pkt.Path = TTL, rev
	return g.send(pkt, c)
}

func indexOf(path []packet.NodeID, id packet.NodeID) int {
	for i, p := range path {
		if p == id {
			return i
		}
	}
	return -1
}
