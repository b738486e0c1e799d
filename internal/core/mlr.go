package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"wmsn/internal/geom"
	"wmsn/internal/metrics"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// MLR (§5.3) targets maximal network lifetime. Time is divided into rounds;
// during each round the m gateways sit at m of the |P| feasible places and
// the topology is fixed. Between rounds gateways move to balance the
// forwarding load around them. The protocol's distinguishing feature is the
// *incremental* routing table: a sensor accumulates one entry per feasible
// place, round by round, and never rebuilds an entry once learned — a moved
// gateway only has to announce its new place (NOTIFY), and senders pick the
// least-hop entry among the places hosting gateways in the current round.

// NoPlace marks an absent feasible-place index in wire encodings.
const NoPlace = 0xFFFF

// Plain-MLR NOTIFY payload discriminators.
const (
	mlrNotifyMove     byte = 0 // gateway moved to a new feasible place
	mlrNotifyOverload byte = 1 // gateway sheds load (§4.3 extension)
)

// mlrNotify is the NOTIFY payload: the gateway's new place, the place it
// left (NoPlace on first deployment), and the round number.
type mlrNotify struct {
	NewPlace  uint16
	PrevPlace uint16
	Round     uint16
}

func (n mlrNotify) marshal() []byte {
	buf := make([]byte, 6)
	binary.BigEndian.PutUint16(buf[0:], n.NewPlace)
	binary.BigEndian.PutUint16(buf[2:], n.PrevPlace)
	binary.BigEndian.PutUint16(buf[4:], n.Round)
	return buf
}

// marshalMoveNotify wraps the move body with its wire discriminator.
func (n mlrNotify) marshalMoveNotify() []byte {
	return append([]byte{mlrNotifyMove}, n.marshal()...)
}

// marshalOverloadNotify encodes the §4.3 load-shedding broadcast.
func marshalOverloadNotify(place, round int) []byte {
	buf := make([]byte, 5)
	buf[0] = mlrNotifyOverload
	binary.BigEndian.PutUint16(buf[1:], uint16(place))
	binary.BigEndian.PutUint16(buf[3:], uint16(round))
	return buf
}

func parseOverloadNotify(b []byte) (place, round int, ok bool) {
	if len(b) < 5 || b[0] != mlrNotifyOverload {
		return 0, 0, false
	}
	return int(binary.BigEndian.Uint16(b[1:])), int(binary.BigEndian.Uint16(b[3:])), true
}

func parseMLRNotify(b []byte) (mlrNotify, bool) {
	if len(b) < 6 {
		return mlrNotify{}, false
	}
	return mlrNotify{
		NewPlace:  binary.BigEndian.Uint16(b[0:]),
		PrevPlace: binary.BigEndian.Uint16(b[2:]),
		Round:     binary.BigEndian.Uint16(b[4:]),
	}, true
}

// placePayload prefixes data and RRES payloads with the feasible-place index
// so intermediate nodes can forward from their place-keyed tables.
func placePayload(place int, rest []byte) []byte {
	buf := make([]byte, 2+len(rest))
	binary.BigEndian.PutUint16(buf, uint16(place))
	copy(buf[2:], rest)
	return buf
}

func parsePlacePayload(b []byte) (place int, rest []byte, ok bool) {
	if len(b) < 2 {
		return 0, nil, false
	}
	return int(binary.BigEndian.Uint16(b)), b[2:], true
}

// MLRGateway is the gateway side of MLR: it answers route queries with its
// current feasible place, absorbs data, and floods a NOTIFY when moved.
type MLRGateway struct {
	Params  Params
	Metrics metrics.Sink
	Uplink  func(origin packet.NodeID, seq uint32, payload []byte)

	dev   *node.Device
	seen  *packet.Dedupe
	place int
	round int
	seq   uint32

	// paths remembers the discovery path per sensor so the gateway can
	// source-route downstream traffic back (§6.2.4: data forwarding runs
	// "from gateways to sensor nodes" too).
	paths map[packet.NodeID][]packet.NodeID

	// roundLoad counts data packets absorbed this round; when it crosses
	// Params.OverloadThreshold the gateway floods an overload notification
	// so sensors with alternatives redirect (§4.3 load balance).
	roundLoad    uint64
	overloadSent bool
}

// NewMLRGateway creates an MLR gateway stack; place is assigned by the
// round controller before traffic starts.
func NewMLRGateway(p Params, m metrics.Sink) *MLRGateway {
	return &MLRGateway{Params: p, Metrics: m, place: -1,
		paths: make(map[packet.NodeID][]packet.NodeID)}
}

// Start implements node.Stack.
func (g *MLRGateway) Start(dev *node.Device) {
	g.dev = dev
	g.seen = packet.NewDedupe(1 << 14)
	enableARQ(dev, g.Params, g.Metrics)
	if iv := g.Params.AdvertInterval; iv > 0 {
		startAdverts(dev, iv, g.sendAdvert)
	}
}

// sendAdvert floods one liveness beacon carrying the current place (see
// advert.go).
func (g *MLRGateway) sendAdvert() {
	if g.dev == nil || !g.dev.Alive() {
		return
	}
	g.seq++
	pkt := &packet.Packet{
		Kind:    packet.KindNotify,
		From:    g.dev.ID(),
		To:      packet.Broadcast,
		Origin:  g.dev.ID(),
		Target:  packet.Broadcast,
		Seq:     g.seq,
		TTL:     g.Params.TTL,
		Payload: marshalAdvert(g.place),
	}
	g.seen.Check(g.dev.ID(), g.seq)
	if g.dev.Send(pkt) {
		g.Metrics.Inc(metrics.AdvertSent)
	}
}

// Place returns the gateway's current feasible-place index (-1 before
// deployment).
func (g *MLRGateway) Place() int { return g.place }

// SetPlace implements PlacedGateway: the round controller has moved the
// device to feasible place new for round round; moved says whether the
// place changed (unmoved gateways stay silent, §5.3 step 2).
func (g *MLRGateway) SetPlace(place, round int, moved bool) {
	prev := g.place
	g.place = place
	g.round = round
	g.roundLoad = 0
	g.overloadSent = false
	if !moved {
		return
	}
	prevField := uint16(NoPlace)
	if prev >= 0 {
		prevField = uint16(prev)
	}
	n := mlrNotify{NewPlace: uint16(place), PrevPlace: prevField, Round: uint16(round)}
	g.floodNotify(n.marshalMoveNotify())
}

func (g *MLRGateway) floodNotify(payload []byte) {
	g.seq++
	pkt := &packet.Packet{
		Kind:    packet.KindNotify,
		From:    g.dev.ID(),
		To:      packet.Broadcast,
		Origin:  g.dev.ID(),
		Target:  packet.Broadcast,
		Seq:     g.seq,
		TTL:     g.Params.TTL,
		Payload: payload,
	}
	g.seen.Check(g.dev.ID(), g.seq)
	if g.dev.Send(pkt) {
		g.Metrics.Inc(metrics.NotifySent)
	}
}

// SendToSensor source-routes a downstream payload to a sensor the gateway
// has previously answered a route query for. It reports whether a path was
// known and the transmission left the radio.
func (g *MLRGateway) SendToSensor(sensor packet.NodeID, payload []byte) bool {
	fwd, ok := g.paths[sensor]
	if !ok || len(fwd) < 2 || g.dev == nil || !g.dev.Alive() {
		return false
	}
	rev := make([]packet.NodeID, len(fwd))
	for i, id := range fwd {
		rev[len(fwd)-1-i] = id
	}
	g.seq++
	pkt := &packet.Packet{
		Kind:    packet.KindData,
		From:    g.dev.ID(),
		To:      rev[1],
		Origin:  g.dev.ID(),
		Target:  sensor,
		Seq:     g.seq,
		TTL:     g.Params.TTL,
		Path:    rev,
		Payload: payload,
	}
	if g.dev.Send(pkt) {
		g.Metrics.Inc(metrics.DataSent)
		return true
	}
	return false
}

// HandleMessage implements node.Stack.
func (g *MLRGateway) HandleMessage(pkt *packet.Packet) {
	if g.dev == nil {
		return // not attached to a device yet
	}
	switch pkt.Kind {
	case packet.KindRReq:
		if g.place < 0 || g.seen.Check(pkt.Origin, pkt.Seq) {
			return
		}
		full := pkt.AppendHop(g.dev.ID())
		g.paths[pkt.Origin] = full
		res := &packet.Packet{
			Kind:    packet.KindRRes,
			From:    g.dev.ID(),
			To:      pkt.From,
			Origin:  g.dev.ID(),
			Target:  pkt.Origin,
			Seq:     pkt.Seq,
			TTL:     g.Params.TTL,
			Path:    full,
			Payload: placePayload(g.place, nil),
		}
		if g.dev.Send(res) {
			g.Metrics.Inc(metrics.RResSent)
		}
	case packet.KindData:
		if pkt.Target != g.dev.ID() {
			return
		}
		_, body, ok := parsePlacePayload(pkt.Payload)
		if !ok {
			return
		}
		g.Metrics.RecordDelivered(pkt.Origin, pkt.Seq, g.dev.ID(), int(pkt.Hops)+1, g.dev.Now())
		if g.Uplink != nil {
			g.Uplink(pkt.Origin, pkt.Seq, body)
		}
		g.roundLoad++
		if t := g.Params.OverloadThreshold; t > 0 && g.roundLoad >= t && !g.overloadSent {
			g.overloadSent = true
			g.floodNotify(marshalOverloadNotify(g.place, g.round))
		}
	}
}

// MLRSensor is the sensor side of MLR.
type MLRSensor struct {
	Params  Params
	Metrics metrics.Sink

	dev  *node.Device
	seen *packet.Dedupe
	seq  uint32

	// table is the incremental routing table, keyed by feasible place; it
	// only ever grows while the topology is static (Table 1).
	table map[int]Route
	// active maps feasible places to the gateway currently deployed there.
	active map[int]packet.NodeID
	// overloaded maps places under load shedding to the virtual time the
	// mark expires.
	overloaded map[int]sim.Time
	// lastHeard tracks per-gateway liveness (see advert.go). The
	// incremental table is never pruned — only the active-place map is,
	// preserving MLR's never-rebuild property.
	lastHeard map[packet.NodeID]sim.Time

	// OnDownstream, when set, receives payloads a gateway routed down to
	// this sensor (commands, configuration, queries).
	OnDownstream func(gw packet.NodeID, payload []byte)

	queue       [][]byte
	discovering bool
	retriesLeft int
	// rerouting and lostAt carry a pending failover across a rediscovery
	// when no live place survived the sweep.
	rerouting bool
	lostAt    sim.Time
}

// NewMLRSensor creates a sensor stack.
func NewMLRSensor(p Params, m metrics.Sink) *MLRSensor {
	return &MLRSensor{
		Params: p, Metrics: m,
		table:      make(map[int]Route),
		active:     make(map[int]packet.NodeID),
		overloaded: make(map[int]sim.Time),
		lastHeard:  make(map[packet.NodeID]sim.Time),
	}
}

// Start implements node.Stack.
func (s *MLRSensor) Start(dev *node.Device) {
	s.dev = dev
	s.seen = packet.NewDedupe(1 << 14)
	enableARQ(dev, s.Params, s.Metrics)
	if iv := s.Params.AdvertInterval; iv > 0 {
		dev.World().Kernel().Every(iv, s.sweep)
	}
}

// HandleLinkFailure implements node.LinkFailureHandler: link-layer ARQ gave
// up on pkt.To, so every place whose stored route starts with that hop is
// invalidated — table entry and activation both. Pruning the incremental
// table is a deliberate deviation from MLR's never-rebuild property: here
// the stored path itself is broken, not merely stale about which gateway
// tenants the place, so keeping the entry would blackhole every later use.
// The frame is then re-keyed to the best surviving place and re-sent; any
// active gateway is a valid sink, so mid-path frames can redirect too.
func (s *MLRSensor) HandleLinkFailure(pkt *packet.Packet) {
	if pkt.Kind != packet.KindData || s.dev == nil || !s.dev.Alive() {
		return
	}
	if len(pkt.Path) > 0 {
		return // downstream source-routed frame: no alternate route exists
	}
	dead := pkt.To
	bestBefore := s.BestRoute()
	for place, r := range s.table {
		hop := r.NextHop()
		if cur, ok := s.active[place]; ok && hop == r.Gateway {
			hop = cur // mirror sendData's last-hop tenant rewrite
		}
		if hop != dead {
			continue
		}
		delete(s.table, place)
		delete(s.active, place)
	}
	if bestBefore != nil && bestBefore.NextHop() == dead {
		if s.BestRoute() != nil {
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
	if _, body, ok := parsePlacePayload(pkt.Payload); ok {
		if !s.redirectData(pkt, body, false) {
			s.ensureDiscovery()
		}
	}
}

// ensureDiscovery kicks route discovery on a node left without any usable
// route. Relays never discover on their own (only originators do), so a
// relay whose whole table was invalidated by link-failure verdicts would
// otherwise keep link-acknowledging frames it can only drop — a persistent
// blackhole the upstream hops have no way to notice.
func (s *MLRSensor) ensureDiscovery() {
	if s.discovering {
		return
	}
	s.retriesLeft = s.Params.Retries
	s.startDiscovery()
}

// redirectData re-keys a data frame to the sensor's best active place and
// sends it there; any deployed gateway is a valid sink, so this recovers
// both retired frames after a link failure (decTTL false — their hop budget
// was already charged) and frames whose place entry is gone in handleData
// (decTTL true). The latter only runs when link ARQ is armed: the upstream
// hop had its frame link-acknowledged by us, so dropping it would be a
// silent blackhole no end-to-end mechanism ever notices.
func (s *MLRSensor) redirectData(pkt *packet.Packet, body []byte, decTTL bool) bool {
	r := s.BestRoute()
	if r == nil {
		return false // rediscovery in flight; this frame is lost
	}
	gw := r.Gateway
	if cur, ok := s.active[r.Place]; ok {
		gw = cur
	}
	to := r.NextHop()
	if to == r.Gateway {
		to = gw
	}
	fwd := *pkt
	fwd.From = s.dev.ID()
	fwd.To = to
	fwd.Target = gw
	fwd.Payload = placePayload(r.Place, body)
	if decTTL {
		fwd.TTL--
		fwd.Hops++
	}
	if s.dev.Send(&fwd) {
		s.Metrics.Inc(metrics.DataSent)
		return true
	}
	return false
}

// sweep is the periodic liveness check armed when Params.AdvertInterval is
// set: active places whose gateway is past its liveness deadline are
// deactivated, so BestRoute falls over to the next-best live place. Routing
// table entries survive — a recovered or returning gateway reactivates the
// place with a single advert or NOTIFY.
func (s *MLRSensor) sweep() {
	if s.dev == nil || !s.dev.Alive() {
		return
	}
	timeout := s.Params.advertTimeout()
	now := s.dev.Now()
	bestBefore := s.BestRoute()
	lostAt := sim.Time(-1)
	for place, gw := range s.active {
		at, ok := s.lastHeard[gw]
		if !ok || now <= at+timeout {
			continue // never confirmed (bootstrap) or still live
		}
		delete(s.active, place)
		if bestBefore != nil && bestBefore.Place == place {
			lostAt = at + timeout
		}
	}
	if lostAt < 0 {
		return
	}
	if s.BestRoute() != nil {
		s.Metrics.Inc(metrics.Reroutes)
		s.Metrics.Add(metrics.FailoverLatencyUs, uint64(now-lostAt))
		s.Metrics.Observe(metrics.HistFailoverLatencyUs, uint64(now-lostAt))
		traceReroute(s.dev, s.BestRoute().Gateway, "liveness", now-lostAt)
		return
	}
	// No live place left: rediscover immediately instead of waiting for
	// the next origination; credit the reroute when the discovery
	// concludes.
	s.rerouting = true
	s.lostAt = lostAt
	if !s.discovering {
		s.retriesLeft = s.Params.Retries
		s.startDiscovery()
	}
}

// Table returns a copy of the incremental routing table, keyed by place.
func (s *MLRSensor) Table() map[int]Route {
	out := make(map[int]Route, len(s.table))
	for k, v := range s.table {
		out[k] = v
	}
	return out
}

// ActivePlaces returns the places believed to host a gateway this round, in
// ascending order.
func (s *MLRSensor) ActivePlaces() []int {
	out := make([]int, 0, len(s.active))
	for p := range s.active {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// BestRoute returns the least-hop entry among active places, or nil.
// Places currently under load shedding (§4.3) are avoided when any
// alternative exists.
func (s *MLRSensor) BestRoute() *Route {
	if best := s.bestAmong(true); best != nil {
		return best
	}
	return s.bestAmong(false)
}

func (s *MLRSensor) bestAmong(skipOverloaded bool) *Route {
	var best *Route
	for p := range s.active {
		if skipOverloaded && s.isOverloaded(p) {
			continue
		}
		if r, ok := s.table[p]; ok {
			if best == nil || r.Hops < best.Hops || (r.Hops == best.Hops && r.Place < best.Place) {
				rr := r
				best = &rr
			}
		}
	}
	return best
}

func (s *MLRSensor) isOverloaded(place int) bool {
	exp, ok := s.overloaded[place]
	if !ok {
		return false
	}
	if s.dev == nil || s.dev.Now() >= exp {
		delete(s.overloaded, place)
		return false
	}
	return true
}

// missingActivePlaces lists active places without a table entry.
func (s *MLRSensor) missingActivePlaces() []int {
	var out []int
	for p := range s.active {
		if _, ok := s.table[p]; !ok {
			out = append(out, p)
		}
	}
	sort.Ints(out)
	return out
}

// OriginateData queues one payload toward the best currently deployed
// gateway, discovering routes for unknown active places first.
func (s *MLRSensor) OriginateData(payload []byte) {
	if s.dev == nil || !s.dev.Alive() {
		return
	}
	if len(s.active) > 0 && len(s.missingActivePlaces()) == 0 {
		if best := s.BestRoute(); best != nil {
			s.sendData(payload, best)
			return
		}
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

func (s *MLRSensor) startDiscovery() {
	s.discovering = true
	s.seq++
	req := &packet.Packet{
		Kind:   packet.KindRReq,
		From:   s.dev.ID(),
		To:     packet.Broadcast,
		Origin: s.dev.ID(),
		Target: packet.Broadcast,
		Seq:    s.seq,
		TTL:    s.Params.TTL,
		Path:   []packet.NodeID{s.dev.ID()},
	}
	s.seen.Check(s.dev.ID(), s.seq)
	if s.dev.Send(req) {
		s.Metrics.Inc(metrics.RReqSent)
	}
	s.dev.After(s.Params.ResponseWait, s.decide)
}

func (s *MLRSensor) decide() {
	if !s.discovering || s.dev == nil || !s.dev.Alive() {
		return
	}
	s.discovering = false
	best := s.BestRoute()
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
	if s.rerouting {
		s.rerouting = false
		s.Metrics.Inc(metrics.Reroutes)
		s.Metrics.Add(metrics.FailoverLatencyUs, uint64(s.dev.Now()-s.lostAt))
		s.Metrics.Observe(metrics.HistFailoverLatencyUs, uint64(s.dev.Now()-s.lostAt))
		traceReroute(s.dev, best.Gateway, "rediscovery", s.dev.Now()-s.lostAt)
	}
	for _, p := range s.queue {
		s.sendData(p, best)
	}
	s.queue = nil
}

func (s *MLRSensor) sendData(payload []byte, r *Route) {
	s.seq++
	// The gateway currently at the place may differ from the one that
	// originally taught us the route; address whoever is there now, both
	// end to end and — when the gateway is the very next hop — at the
	// link layer.
	gw := r.Gateway
	if cur, ok := s.active[r.Place]; ok {
		gw = cur
	}
	to := r.NextHop()
	if to == r.Gateway {
		to = gw
	}
	pkt := &packet.Packet{
		Kind:    packet.KindData,
		From:    s.dev.ID(),
		To:      to,
		Origin:  s.dev.ID(),
		Target:  gw,
		Seq:     s.seq,
		TTL:     s.Params.TTL,
		Payload: placePayload(r.Place, payload),
	}
	s.Metrics.RecordGenerated(s.dev.ID(), s.seq, s.dev.Now())
	if s.dev.Send(pkt) {
		s.Metrics.Inc(metrics.DataSent)
	}
}

// learnRoute records a route for a place if new or shorter, also noting the
// place as active under the given gateway.
func (s *MLRSensor) learnRoute(place int, gw packet.NodeID, path []packet.NodeID) {
	s.active[place] = gw
	s.lastHeard[gw] = s.dev.Now()
	r := Route{Gateway: gw, Place: place, Hops: len(path) - 1, Path: append([]packet.NodeID(nil), path...)}
	if old, ok := s.table[place]; !ok || r.Hops < old.Hops {
		s.table[place] = r
	}
}

// HandleMessage implements node.Stack.
func (s *MLRSensor) HandleMessage(pkt *packet.Packet) {
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

func (s *MLRSensor) handleRReq(pkt *packet.Packet) {
	if pkt.Origin == s.dev.ID() || s.seen.Check(pkt.Origin, pkt.Seq) {
		return
	}
	// Answer from the table for every active place we know (step 3.1),
	// and re-flood only if some active place is still unknown to us.
	answered := 0
	if s.Params.NoShortcutAnswers {
		goto reflood
	}
	// Sorted place order: each RRES transmission consumes loss draws from
	// the kernel RNG, so answering in map order would make lossy runs
	// nondeterministic.
	for _, p := range s.ActivePlaces() {
		gw := s.active[p]
		r, ok := s.table[p]
		if !ok || r.Gateway != gw {
			continue
		}
		full := shortcutPath(pkt.Path, s.dev.ID(), r.Path)
		res := &packet.Packet{
			Kind:    packet.KindRRes,
			From:    s.dev.ID(),
			To:      pkt.From,
			Origin:  s.dev.ID(),
			Target:  pkt.Origin,
			Seq:     pkt.Seq,
			TTL:     s.Params.TTL,
			Path:    full,
			Payload: placePayload(p, nil),
		}
		if s.dev.Send(res) {
			s.Metrics.Inc(metrics.RResSent)
		}
		answered++
	}
	if answered > 0 && len(s.missingActivePlaces()) == 0 {
		return // complete answer; suppress the flood
	}
reflood:
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

// sendFlood transmits a flood rebroadcast with optional de-synchronizing
// jitter (see Params.FloodJitter).
func (s *MLRSensor) sendFlood(fwd *packet.Packet, counter metrics.Counter) {
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

func (s *MLRSensor) handleRRes(pkt *packet.Packet) {
	place, _, ok := parsePlacePayload(pkt.Payload)
	if !ok || len(pkt.Path) < 2 {
		return
	}
	gw := pkt.Path[len(pkt.Path)-1]
	idx := indexOf(pkt.Path, s.dev.ID())
	if idx < 0 {
		return
	}
	// Record the suffix route while the response travels back (§6.2.2
	// applies the same discipline to MLR's plain variant).
	s.learnRoute(place, gw, pkt.Path[idx:])
	if pkt.Target == s.dev.ID() {
		return // learned; decide() fires on its timer
	}
	if idx == 0 {
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

func (s *MLRSensor) handleData(pkt *packet.Packet) {
	if pkt.Target == s.dev.ID() {
		// Downstream delivery (gateway -> this sensor, source-routed).
		if len(pkt.Path) > 0 && s.OnDownstream != nil {
			s.OnDownstream(pkt.Origin, pkt.Payload)
		}
		return
	}
	if pkt.TTL <= 1 {
		s.Metrics.Inc(metrics.ForwardTTLExpired)
		traceExpired(s.dev, pkt, "ttl")
		return
	}
	if len(pkt.Path) > 0 {
		// Downstream packet in transit: follow the source route.
		idx := indexOf(pkt.Path, s.dev.ID())
		if idx < 0 || idx+1 >= len(pkt.Path) {
			return
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
	place, body, ok := parsePlacePayload(pkt.Payload)
	if !ok {
		return
	}
	r, entry := s.table[place]
	if !entry {
		if s.Params.LinkRetries > 0 && !s.redirectData(pkt, body, true) {
			s.Metrics.Inc(metrics.ForwardNoEntry)
			traceExpired(s.dev, pkt, "no_entry")
			s.ensureDiscovery()
		}
		return
	}
	fwd := *pkt
	fwd.From = s.dev.ID()
	fwd.To = r.NextHop()
	if fwd.To == r.Gateway {
		// Last hop: the route was learned under a previous tenant of this
		// place; address the gateway the packet is actually destined for.
		fwd.To = pkt.Target
	}
	fwd.TTL--
	fwd.Hops++
	if s.dev.Send(&fwd) {
		s.Metrics.Inc(metrics.DataSent)
	}
}

func (s *MLRSensor) handleNotify(pkt *packet.Packet) {
	if s.seen.Check(pkt.Origin, pkt.Seq) {
		return
	}
	if len(pkt.Payload) < 1 {
		return
	}
	switch pkt.Payload[0] {
	case mlrNotifyMove:
		n, ok := parseMLRNotify(pkt.Payload[1:])
		if !ok {
			return
		}
		s.lastHeard[pkt.Origin] = s.dev.Now()
		s.applyNotify(pkt.Origin, n)
	case notifyAdvert:
		place, ok := parseAdvert(pkt.Payload)
		if !ok {
			return
		}
		s.lastHeard[pkt.Origin] = s.dev.Now()
		if place >= 0 && s.Params.AdvertInterval > 0 {
			// The beacon re-activates the gateway's place, so a recovered
			// gateway comes back without waiting for the next round.
			s.active[place] = pkt.Origin
		}
	case mlrNotifyOverload:
		place, _, ok := parseOverloadNotify(pkt.Payload)
		if !ok {
			return
		}
		clear := s.Params.OverloadClear
		if clear <= 0 {
			clear = 60 * sim.Second
		}
		s.overloaded[place] = s.dev.Now() + clear
	default:
		return
	}
	if pkt.TTL <= 1 {
		return
	}
	fwd := *pkt
	fwd.From = s.dev.ID()
	fwd.TTL--
	fwd.Hops++
	s.sendFlood(&fwd, metrics.NotifySent)
}

func (s *MLRSensor) applyNotify(gw packet.NodeID, n mlrNotify) {
	if n.PrevPlace != NoPlace {
		if cur, ok := s.active[int(n.PrevPlace)]; ok && cur == gw {
			delete(s.active, int(n.PrevPlace))
		}
	}
	s.active[int(n.NewPlace)] = gw
}

// PlacedGateway is a gateway stack that a round controller can deploy at
// feasible places. Both MLRGateway and SecMLRGateway implement it.
type PlacedGateway interface {
	node.Stack
	SetPlace(place, round int, moved bool)
}

// Rounds drives MLR gateway mobility: at the start of each round it moves
// gateway devices to the scheduled feasible places and lets moved gateways
// announce themselves. The topology stays fixed within a round (§5.1).
type Rounds struct {
	World    *node.World
	Places   []geom.Point
	Gateways []packet.NodeID // gateway device IDs, parallel to Schedule rows
	RoundLen sim.Duration
	// Schedule maps round -> gateway -> place index. Rounds beyond the
	// schedule repeat the last row (gateways stop moving).
	Schedule [][]int

	round   int
	current []int // place per gateway; -1 before deployment
	stopped bool
}

// Start deploys round 0 immediately and schedules subsequent rounds.
func (r *Rounds) Start() {
	if len(r.Schedule) == 0 {
		panic("core: Rounds needs a non-empty schedule")
	}
	r.current = make([]int, len(r.Gateways))
	for i := range r.current {
		r.current[i] = -1
	}
	r.apply(0)
	r.scheduleNext()
}

// Stop halts future round transitions.
func (r *Rounds) Stop() { r.stopped = true }

// Round returns the current round number.
func (r *Rounds) Round() int { return r.round }

// CurrentPlaces returns the place index per gateway.
func (r *Rounds) CurrentPlaces() []int { return append([]int(nil), r.current...) }

func (r *Rounds) scheduleNext() {
	r.World.Kernel().After(r.RoundLen, func() {
		if r.stopped {
			return
		}
		r.round++
		r.apply(r.round)
		r.scheduleNext()
	})
}

func (r *Rounds) apply(round int) {
	row := r.Schedule[min(round, len(r.Schedule)-1)]
	if len(row) != len(r.Gateways) {
		panic(fmt.Sprintf("core: schedule row %d has %d places for %d gateways", round, len(row), len(r.Gateways)))
	}
	for i, gwID := range r.Gateways {
		place := row[i]
		if place < 0 || place >= len(r.Places) {
			panic(fmt.Sprintf("core: schedule row %d place %d out of range", round, place))
		}
		dev := r.World.Device(gwID)
		if dev == nil || !dev.Alive() {
			continue
		}
		moved := r.current[i] != place
		if moved {
			dev.Move(r.Places[place])
			r.current[i] = place
		}
		if pg, ok := dev.Stack().(PlacedGateway); ok {
			pg.SetPlace(place, round, moved)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
