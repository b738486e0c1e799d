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

// places maps feasible places to the gateway an MLR or SecMLR sensor
// believes deployed there this round.
type places map[int]packet.NodeID

// sorted returns the active places in ascending order.
func (a places) sorted() []int {
	out := make([]int, 0, len(a))
	for p := range a {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// missing counts active places without an entry in table.
func (a places) missing(table map[int]Route) int {
	n := 0
	for p := range a {
		if _, ok := table[p]; !ok {
			n++
		}
	}
	return n
}

// move applies a movement notice from gw: it leaves its previous place (if
// it still holds it) and now occupies the new one.
func (a places) move(gw packet.NodeID, n mlrNotify) {
	if n.PrevPlace != NoPlace {
		if cur, ok := a[int(n.PrevPlace)]; ok && cur == gw {
			delete(a, int(n.PrevPlace))
		}
	}
	a[int(n.NewPlace)] = gw
}

// bestPlaced returns the least-hop route in table among the active places,
// ties toward the lower place, passing over places present in skip.
func bestPlaced[V any](active places, table map[int]Route, skip map[int]V) *Route {
	var best *Route
	for p := range active {
		if _, skipped := skip[p]; skipped {
			continue
		}
		if r, ok := table[p]; ok && (best == nil || r.Hops < best.Hops || (r.Hops == best.Hops && r.Place < best.Place)) {
			rr := r
			best = &rr
		}
	}
	return best
}

// MLRGateway is the gateway side of MLR: it answers route queries with its
// current feasible place, absorbs data, and floods a NOTIFY when moved.
type MLRGateway struct {
	gateway

	// roundLoad counts data packets absorbed this round; when it crosses
	// Params.OverloadThreshold the gateway floods an overload notification
	// so sensors with alternatives redirect (§4.3 load balance).
	roundLoad    uint64
	overloadSent bool
}

// NewMLRGateway creates an MLR gateway stack; place is assigned by the
// round controller before traffic starts.
func NewMLRGateway(p Params, m metrics.Sink) *MLRGateway {
	return &MLRGateway{gateway: newGateway(p, m)}
}

// Place returns the gateway's current feasible-place index (-1 before
// deployment).
func (g *MLRGateway) Place() int { return g.place }

// SetPlace implements PlacedGateway: the round controller has moved the
// device to feasible place new for round round; moved says whether the
// place changed (unmoved gateways stay silent, §5.3 step 2).
func (g *MLRGateway) SetPlace(place, round int, moved bool) {
	n := g.moveTo(place, round)
	g.roundLoad = 0
	g.overloadSent = false
	if moved {
		g.flood(n.marshalMoveNotify(), metrics.NotifySent)
	}
}

// SendToSensor source-routes a downstream payload to a sensor the gateway
// has previously answered a route query for. It reports whether a path was
// known and the transmission left the radio.
func (g *MLRGateway) SendToSensor(sensor packet.NodeID, payload []byte) bool {
	rev := g.downPath(sensor)
	if rev == nil || !g.alive() {
		return false
	}
	g.seq++
	return g.sendDown(&packet.Packet{Kind: packet.KindData, Target: sensor, Seq: g.seq, Payload: payload},
		rev, metrics.DataSent)
}

// HandleMessage implements node.Stack.
func (g *MLRGateway) HandleMessage(pkt *packet.Packet) {
	if g.dev == nil {
		return // not attached to a device yet
	}
	switch pkt.Kind {
	case packet.KindRReq:
		// Answer the first copy with the place and the flood's path
		// extended by this gateway, keeping the path for downstream sends.
		if g.place < 0 || g.seen.Check(pkt.Origin, pkt.Seq) {
			return
		}
		path := pkt.AppendHop(g.dev.ID())
		g.paths[pkt.Origin] = path
		g.respond(pkt.From, pkt.Origin, pkt.Seq, path, placePayload(g.place, nil), nil)
	case packet.KindData:
		if pkt.Target != g.dev.ID() {
			return
		}
		_, body, ok := parsePlacePayload(pkt.Payload)
		if !ok {
			return
		}
		g.deliver(pkt, body)
		g.roundLoad++
		if t := g.Params.OverloadThreshold; t > 0 && g.roundLoad >= t && !g.overloadSent {
			g.overloadSent = true
			g.flood(marshalOverloadNotify(g.place, g.round), metrics.NotifySent)
		}
	}
}

// MLRSensor is the sensor side of MLR.
type MLRSensor struct {
	sensor

	// table is the incremental routing table, keyed by feasible place; it
	// only ever grows while the topology is static (Table 1). The liveness
	// sweep never prunes it — only the active-place map — preserving MLR's
	// never-rebuild property.
	table map[int]Route
	// active maps feasible places to the gateway currently deployed there.
	active places
	// overloaded maps places under load shedding to the virtual time the
	// mark expires.
	overloaded map[int]sim.Time

	// OnDownstream, when set, receives payloads a gateway routed down to
	// this sensor (commands, configuration, queries).
	OnDownstream func(gw packet.NodeID, payload []byte)
}

// NewMLRSensor creates a sensor stack.
func NewMLRSensor(p Params, m metrics.Sink) *MLRSensor {
	return &MLRSensor{
		sensor:     newSensor(p, m),
		table:      make(map[int]Route),
		active:     make(places),
		overloaded: make(map[int]sim.Time),
	}
}

// Start implements node.Stack.
func (s *MLRSensor) Start(dev *node.Device) {
	s.start(dev)
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
// Relays never discover on their own, so one left without any usable
// route starts a discovery; otherwise it would keep link-acknowledging
// frames it can only drop, a blackhole the upstream hops cannot notice.
func (s *MLRSensor) HandleLinkFailure(pkt *packet.Packet) {
	if pkt.Kind != packet.KindData || !s.alive() || len(pkt.Path) > 0 {
		return // downstream source-routed frames have no alternate route
	}
	dead := pkt.To
	bestBefore := s.BestRoute()
	for place, r := range s.table {
		if _, hop := s.via(&r); hop == dead {
			delete(s.table, place)
			delete(s.active, place)
		}
	}
	if bestBefore != nil && bestBefore.NextHop() == dead {
		if s.BestRoute() != nil {
			s.credit(dead, "link_failure", -1)
		} else if !s.rerouting && s.routeLost(s.dev.Now()) {
			s.startDiscovery()
		}
	}
	if _, body, ok := parsePlacePayload(pkt.Payload); ok && !s.redirectData(pkt, body, false) && s.idle() {
		s.startDiscovery()
	}
}

// via returns where data on route r goes now: the gateway currently
// deployed at r's place, and the first hop toward it. The route may have
// been learned under a previous tenant of the place, so when that hop is
// the gateway itself it is rewritten too.
func (s *MLRSensor) via(r *Route) (gw, hop packet.NodeID) {
	gw = r.Gateway
	if cur, ok := s.active[r.Place]; ok {
		gw = cur
	}
	hop = r.NextHop()
	if hop == r.Gateway {
		hop = gw
	}
	return gw, hop
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
	fwd := *pkt
	fwd.From = s.dev.ID()
	fwd.Target, fwd.To = s.via(r)
	fwd.Payload = placePayload(r.Place, body)
	if decTTL {
		fwd.TTL--
		fwd.Hops++
	}
	return s.send(&fwd, metrics.DataSent)
}

// sweep is the periodic liveness check armed when Params.AdvertInterval is
// set: active places whose gateway is past its liveness deadline are
// deactivated, so BestRoute falls over to the next-best live place. Routing
// table entries survive — a recovered or returning gateway reactivates the
// place with a single advert or NOTIFY.
func (s *MLRSensor) sweep() {
	if !s.alive() {
		return
	}
	now := s.dev.Now()
	bestBefore := s.BestRoute()
	lostAt := sim.Time(-1)
	for place, gw := range s.active {
		if at, dead := s.silent(gw, now); dead {
			delete(s.active, place)
			if bestBefore != nil && bestBefore.Place == place {
				lostAt = at
			}
		}
	}
	if lostAt < 0 {
		return
	}
	if next := s.BestRoute(); next != nil {
		s.credit(next.Gateway, "liveness", lostAt)
	} else if s.routeLost(lostAt) {
		s.startDiscovery() // no live place left: rediscover now
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
func (s *MLRSensor) ActivePlaces() []int { return s.active.sorted() }

// BestRoute returns the least-hop entry among active places, or nil.
// Places currently under load shedding (§4.3) are avoided when any
// alternative exists.
func (s *MLRSensor) BestRoute() *Route {
	if best := bestPlaced(s.active, s.table, s.shedding()); best != nil {
		return best
	}
	return bestPlaced[sim.Time](s.active, s.table, nil)
}

// shedding returns the places under load shedding, forgetting marks that
// have expired.
func (s *MLRSensor) shedding() map[int]sim.Time {
	for p, exp := range s.overloaded {
		if s.dev == nil || s.dev.Now() >= exp {
			delete(s.overloaded, p)
		}
	}
	return s.overloaded
}

// OriginateData queues one payload toward the best currently deployed
// gateway, discovering routes for unknown active places first.
func (s *MLRSensor) OriginateData(payload []byte) {
	if !s.alive() {
		return
	}
	if len(s.active) > 0 && s.active.missing(s.table) == 0 {
		if best := s.BestRoute(); best != nil {
			s.sendData(payload, best)
			return
		}
	}
	if s.enqueue(payload) {
		s.startDiscovery()
	}
}

func (s *MLRSensor) startDiscovery() {
	s.discover(nil)
	s.dev.After(responseWait, s.decide)
}

func (s *MLRSensor) decide() {
	best := s.BestRoute()
	queued, _, again := s.conclude(best)
	if again {
		s.startDiscovery()
	}
	for _, p := range queued {
		s.sendData(p, best)
	}
}

func (s *MLRSensor) sendData(payload []byte, r *Route) {
	s.seq++
	// The gateway currently at the place may differ from the one that
	// originally taught us the route; address whoever is there now.
	gw, hop := s.via(r)
	pkt := &packet.Packet{
		Kind:    packet.KindData,
		From:    s.dev.ID(),
		To:      hop,
		Origin:  s.dev.ID(),
		Target:  gw,
		Seq:     s.seq,
		TTL:     TTL,
		Payload: placePayload(r.Place, payload),
	}
	s.Metrics.RecordGenerated(s.dev.ID(), s.seq, s.dev.Now())
	s.send(pkt, metrics.DataSent)
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
	if !s.Params.NoShortcutAnswers {
		// Answer from the table for every active place we know (step 3.1),
		// and re-flood only if some active place is still unknown to us.
		// Sorted place order: each RRES transmission consumes loss draws
		// from the kernel RNG, so answering in map order would make lossy
		// runs nondeterministic.
		answered := 0
		for _, p := range s.active.sorted() {
			if r, ok := s.table[p]; ok && r.Gateway == s.active[p] {
				s.shortcut(pkt, r.Path, placePayload(p, nil))
				answered++
			}
		}
		if answered > 0 && s.active.missing(s.table) == 0 {
			return // complete answer; suppress the flood
		}
	}
	s.relayFlood(pkt)
}

func (s *MLRSensor) handleRRes(pkt *packet.Packet) {
	place, _, ok := parsePlacePayload(pkt.Payload)
	if !ok || len(pkt.Path) < 2 {
		return
	}
	idx := indexOf(pkt.Path, s.dev.ID())
	if idx < 0 {
		return
	}
	// Record the suffix route while the response travels back (§6.2.2
	// applies the same discipline to MLR's plain variant); the target has
	// learned it and decide() fires on its timer.
	gw := pkt.Path[len(pkt.Path)-1]
	s.active[place] = gw
	s.heard(gw, s.dev.Now())
	r := Route{Gateway: gw, Place: place, Hops: len(pkt.Path) - 1 - idx, Path: append([]packet.NodeID(nil), pkt.Path[idx:]...)}
	if old, ok := s.table[place]; !ok || r.Hops < old.Hops {
		s.table[place] = r
	}
	if pkt.Target != s.dev.ID() {
		s.relayResponse(pkt, idx)
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
	if s.expired(pkt) {
		return
	}
	if len(pkt.Path) > 0 {
		s.followPath(pkt, metrics.DataSent) // downstream packet in transit
		return
	}
	place, body, ok := parsePlacePayload(pkt.Payload)
	if !ok {
		return
	}
	r, entry := s.table[place]
	if !entry {
		arq := s.Params.LinkRetries > 0
		if arq && s.redirectData(pkt, body, true) {
			return
		}
		s.drop(pkt, metrics.ForwardNoEntry, "no_entry")
		if arq && s.idle() {
			s.startDiscovery()
		}
		return
	}
	to := r.NextHop()
	if to == r.Gateway {
		// Last hop: the route was learned under a previous tenant of this
		// place; address the gateway the packet is actually destined for.
		to = pkt.Target
	}
	s.forward(pkt, to, metrics.DataSent)
}

func (s *MLRSensor) handleNotify(pkt *packet.Packet) {
	if s.seen.Check(pkt.Origin, pkt.Seq) || len(pkt.Payload) < 1 {
		return
	}
	switch pkt.Payload[0] {
	case mlrNotifyMove:
		n, ok := parseMLRNotify(pkt.Payload[1:])
		if !ok {
			return
		}
		s.heard(pkt.Origin, s.dev.Now())
		s.active.move(pkt.Origin, n)
	case notifyAdvert:
		place, ok := parseAdvert(pkt.Payload)
		if !ok {
			return
		}
		s.heard(pkt.Origin, s.dev.Now())
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
	s.relayFlood(pkt)
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
