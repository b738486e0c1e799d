package core

import (
	"cmp"
	"encoding/binary"
	"slices"

	"wmsn/internal/metrics"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
	"wmsn/internal/wsncrypto"
)

// SecMLR (§6.2) secures MLR's routing query, response, update and data
// forwarding phases:
//
//   - RREQ (§6.2.1): flooded with one authentication block per gateway
//     ({req}<Kij,C>, MAC(Kij, C|{req})), so each gateway can verify origin
//     authenticity and freshness. Intermediate sensors cannot answer on the
//     gateway's behalf — they hold no Kij — so every query reaches real
//     gateways.
//   - RRES (§6.2.2): the gateway collects alternative paths for a timeout,
//     answers with the shortest, encrypts the response body and MACs it.
//     Nodes forwarding the response record their path suffix, building the
//     per-place forwarding state.
//   - Routing update (§6.2.3): gateway movement NOTIFYs are authenticated
//     with µTESLA — MAC now, key disclosed later — so a forged "gateway
//     moved" broadcast is never applied.
//   - Data forwarding (§6.2.4): DATA carries {data}<Kij,C> and its MAC; the
//     IS/IR fields (packet From/To) are rewritten hop by hop from the
//     routing tables. The gateway MAC-checks, counter-checks and then ACKs;
//     a source missing its ACK fails over to another route (the paper's
//     multi-entry fault tolerance, §8).

// discloseDelay is how long a SecMLR gateway waits after a TESLA
// announcement before disclosing the interval key.
const discloseDelay = 100 * sim.Millisecond

const (
	notifyAnnounce byte = 0
	notifyDisclose byte = 1
	reqMarker      byte = 0x52 // 'R'; the encrypted req body
)

// rreqBlock is one per-gateway authentication block inside a SecMLR RREQ.
type rreqBlock struct {
	Gateway packet.NodeID
	Counter uint64
	Cipher  byte // {req}<Kij,C> — a single marker byte under CTR
	MAC     []byte
}

const rreqBlockSize = 4 + 8 + 1 + wsncrypto.MACSize

func marshalRReqBlocks(blocks []rreqBlock) []byte {
	buf := make([]byte, 1, 1+len(blocks)*rreqBlockSize)
	buf[0] = byte(len(blocks))
	for _, b := range blocks {
		buf = binary.BigEndian.AppendUint32(buf, uint32(b.Gateway))
		buf = binary.BigEndian.AppendUint64(buf, b.Counter)
		buf = append(buf, b.Cipher)
		buf = append(buf, b.MAC...)
	}
	return buf
}

func parseRReqBlocks(b []byte) ([]rreqBlock, bool) {
	if len(b) < 1 {
		return nil, false
	}
	n := int(b[0])
	if len(b) < 1+n*rreqBlockSize {
		return nil, false
	}
	blocks := make([]rreqBlock, n)
	off := 1
	for i := range blocks {
		blocks[i].Gateway = packet.NodeID(binary.BigEndian.Uint32(b[off:]))
		blocks[i].Counter = binary.BigEndian.Uint64(b[off+4:])
		blocks[i].Cipher = b[off+12]
		blocks[i].MAC = append([]byte(nil), b[off+13:off+13+wsncrypto.MACSize]...)
		off += rreqBlockSize
	}
	return blocks, true
}

// resBody is the encrypted RRES content: the place and round, bound to the
// clear-text place field so on-path tampering is detectable at the source.
func resBody(place, round int) []byte {
	buf := make([]byte, 4)
	binary.BigEndian.PutUint16(buf, uint16(place))
	binary.BigEndian.PutUint16(buf[2:], uint16(round))
	return buf
}

func parseResBody(b []byte) (place, round int, ok bool) {
	if len(b) < 4 {
		return 0, 0, false
	}
	return int(binary.BigEndian.Uint16(b)), int(binary.BigEndian.Uint16(b[2:])), true
}

// SecMLRGateway is the gateway (WMG) side of SecMLR. Heavyweight work —
// MAC verification over all collected paths, path selection, response
// encryption — runs here, on the resource-rich node (§6.1 "heavyweight
// computations should be performed by gateways").
type SecMLRGateway struct {
	gateway
	pairwise
	Keys *GatewayKeys

	// collecting accumulates alternative RREQ paths per (origin, seq)
	// during the GatewayWait window.
	collecting map[packet.DedupeKey]*pathCollection
}

type pathCollection struct {
	counter uint64
	paths   [][]packet.NodeID
}

// NewSecMLRGateway creates a SecMLR gateway stack with its keying material.
func NewSecMLRGateway(p Params, m metrics.Sink, keys *GatewayKeys) *SecMLRGateway {
	return &SecMLRGateway{
		gateway:    newGateway(p, m),
		pairwise:   newPairwise(),
		Keys:       keys,
		collecting: make(map[packet.DedupeKey]*pathCollection),
	}
}

// Start implements node.Stack. SecMLR floods no liveness adverts: its
// ACK-driven failover already covers gateway loss.
func (g *SecMLRGateway) Start(dev *node.Device) { g.start(dev) }

// Place returns the current feasible-place index (-1 before deployment).
func (g *SecMLRGateway) Place() int { return g.place }

// SetPlace implements PlacedGateway: announce the move with a µTESLA-
// authenticated NOTIFY, disclosing the interval key after discloseDelay.
func (g *SecMLRGateway) SetPlace(place, round int, moved bool) {
	n := g.moveTo(place, round)
	if !moved {
		return
	}
	interval := min(round+1, g.Keys.Tesla.Intervals()) // an exhausted chain reuses its last key
	body := n.marshal()
	tag := g.Keys.Tesla.Authenticate(interval, body)

	payload := make([]byte, 0, 1+len(body)+2+len(tag))
	payload = append(payload, notifyAnnounce)
	payload = append(payload, body...)
	payload = binary.BigEndian.AppendUint16(payload, uint16(interval))
	payload = append(payload, tag...)
	g.flood(payload, metrics.NotifySent)

	key := g.Keys.Tesla.KeyAt(interval)
	g.dev.After(discloseDelay, func() {
		disc := make([]byte, 0, 1+2+len(key))
		disc = append(disc, notifyDisclose)
		disc = binary.BigEndian.AppendUint16(disc, uint16(interval))
		disc = append(disc, key...)
		g.flood(disc, metrics.NotifySent)
	})
}

// HandleMessage implements node.Stack.
func (g *SecMLRGateway) HandleMessage(pkt *packet.Packet) {
	if g.dev == nil {
		return // not attached to a device yet
	}
	switch pkt.Kind {
	case packet.KindRReq:
		g.handleRReq(pkt)
	case packet.KindData:
		g.handleData(pkt)
	}
}

func (g *SecMLRGateway) handleRReq(pkt *packet.Packet) {
	if g.place < 0 {
		return
	}
	blocks, ok := parseRReqBlocks(pkt.Payload)
	if !ok {
		return
	}
	var mine *rreqBlock
	for i := range blocks {
		if blocks[i].Gateway == g.dev.ID() {
			mine = &blocks[i]
			break
		}
	}
	if mine == nil {
		return
	}
	// Verify (1) origin authenticity via the MAC (an unknown, e.g. Sybil,
	// or revoked identity fails too) ...
	key, known := g.Keys.Lookup(pkt.Origin)
	if !g.verify(g.Metrics, key, known, &packet.SecEnvelope{Counter: mine.Counter, Cipher: []byte{mine.Cipher}, MAC: mine.MAC}) {
		return
	}
	path := pkt.AppendHop(g.dev.ID())
	k := packet.DedupeKey{Origin: pkt.Origin, Seq: pkt.Seq}
	if col, collecting := g.collecting[k]; collecting {
		// Another copy of an in-flight query: keep the alternative path.
		if col.counter == mine.Counter {
			col.paths = append(col.paths, path)
		}
		return
	}
	// ... and (2) freshness via the incremental counter (§6.2.2).
	if !g.fresh(g.Metrics, pkt.Origin, mine.Counter) {
		return
	}
	g.collecting[k] = &pathCollection{counter: mine.Counter, paths: [][]packet.NodeID{path}}
	origin, seq := pkt.Origin, pkt.Seq
	g.dev.After(g.Params.GatewayWait, func() { g.respondShortest(origin, seq) })
}

// respondShortest closes the collection window and responds with the
// shortest path.
func (g *SecMLRGateway) respondShortest(origin packet.NodeID, seq uint32) {
	k := packet.DedupeKey{Origin: origin, Seq: seq}
	col, ok := g.collecting[k]
	if !ok || g.place < 0 {
		return
	}
	delete(g.collecting, k)
	best := col.paths[0]
	for _, p := range col.paths[1:] {
		if len(p) < len(best) {
			best = p
		}
	}
	g.paths[origin] = best
	sec := g.seal(origin, g.Keys.Sensor[origin], resBody(g.place, g.round))
	g.respond(best[len(best)-2], origin, seq, best, placePayload(g.place, nil), &sec)
}

func (g *SecMLRGateway) handleData(pkt *packet.Packet) {
	if pkt.Target != g.dev.ID() {
		return
	}
	if pkt.Sec == nil {
		g.Metrics.Inc(metrics.RejectedMAC) // unprotected data (e.g. Sybil injection)
		return
	}
	if _, _, ok := parsePlacePayload(pkt.Payload); !ok {
		return
	}
	key, known := g.Keys.Lookup(pkt.Origin)
	body, ok := g.open(g.Metrics, pkt.Origin, key, known, pkt.Sec)
	if !ok {
		return
	}
	g.deliver(pkt, body)
	// ACK back along the reverse of the stored Si..Gj path.
	if rev := g.downPath(pkt.Origin); rev != nil {
		seqBuf := binary.BigEndian.AppendUint32(nil, pkt.Seq)
		sec := g.seal(pkt.Origin, g.Keys.Sensor[pkt.Origin], seqBuf)
		g.sendDown(&packet.Packet{Kind: packet.KindAck, Target: pkt.Origin, Seq: pkt.Seq, Payload: seqBuf, Sec: &sec},
			rev, metrics.AckSent)
	}
}

// SendToSensor source-routes an encrypted, authenticated downstream payload
// to a sensor the gateway holds a discovery path for (§6.2.4 downstream
// direction). The sensor verifies the MAC and counter before delivery.
func (g *SecMLRGateway) SendToSensor(sensor packet.NodeID, payload []byte) bool {
	rev := g.downPath(sensor)
	key, known := g.Keys.Sensor[sensor]
	if rev == nil || !known || !g.alive() {
		return false
	}
	sec := g.seal(sensor, key, payload)
	g.seq++
	return g.sendDown(&packet.Packet{Kind: packet.KindData, Target: sensor, Seq: g.seq, Sec: &sec},
		rev, metrics.DataSent)
}

// teslaState is a sensor's broadcast-authentication state for one gateway.
type teslaState struct {
	verifier *wsncrypto.TeslaVerifier
	// buffered holds announcements awaiting key disclosure, per interval.
	buffered map[int][]bufferedNotify
}

type bufferedNotify struct {
	body []byte
	tag  []byte
}

// SecMLRSensor is the sensor side of SecMLR.
type SecMLRSensor struct {
	sensor
	pairwise
	Keys *SensorKeys

	// table holds per-flow forwarding entries — the paper's 4-tuple
	// (source, destination, IS, IR) routing table of §6.2.4, keyed by
	// (origin, place). Entries are installed while forwarding an RRES
	// addressed to that origin and the freshest response wins, so a forged
	// early response cannot permanently poison the relay state (the
	// genuine, later gateway response overwrites it).
	table map[flowKey]Route
	// verified holds routes confirmed end-to-end by a gateway-MAC'd RRES;
	// only these carry this node's own data.
	verified map[int]Route
	active   places
	tesla    map[packet.NodeID]*teslaState

	// pending tracks unacknowledged data for failover, keyed by data seq.
	pending map[uint32]*pendingTx

	// OnDownstream, when set, receives authenticated payloads a gateway
	// routed down to this sensor.
	OnDownstream func(gw packet.NodeID, payload []byte)
}

type pendingTx struct {
	seq     uint32
	payload []byte
	tried   map[int]bool // places already attempted
	timer   *sim.Timer
	sentAt  sim.Time // first transmission, for the failover-latency histogram
}

// flowKey identifies a forwarding entry: which origin's data, toward which
// feasible place.
type flowKey struct {
	origin packet.NodeID
	place  int
}

// NewSecMLRSensor creates a sensor stack with its pre-distributed keys.
func NewSecMLRSensor(p Params, m metrics.Sink, keys *SensorKeys) *SecMLRSensor {
	s := &SecMLRSensor{
		sensor:   newSensor(p, m),
		pairwise: newPairwise(),
		Keys:     keys,
		table:    make(map[flowKey]Route),
		verified: make(map[int]Route),
		active:   make(places),
		tesla:    make(map[packet.NodeID]*teslaState),
		pending:  make(map[uint32]*pendingTx),
	}
	for gw, commit := range keys.TeslaCommit {
		s.tesla[gw] = &teslaState{
			verifier: wsncrypto.NewTeslaVerifier(commit),
			buffered: make(map[int][]bufferedNotify),
		}
	}
	return s
}

// HandleLinkFailure implements node.LinkFailureHandler. SecMLR already has
// an end-to-end recovery path — the per-packet AckWait timer and
// multi-route failover (§6.2.3) — so the link layer only sharpens it:
// routes through the dead hop are forgotten, and for the sensor's own data
// the failover fires immediately instead of waiting out the full AckWait.
// Failed failovers stay accounted as Failovers/AbandonedData, never as
// Reroutes.
func (s *SecMLRSensor) HandleLinkFailure(pkt *packet.Packet) {
	if pkt.Kind != packet.KindData || !s.alive() {
		return
	}
	dead := pkt.To
	for place, r := range s.verified {
		if r.NextHop() == dead {
			delete(s.verified, place)
		}
	}
	for k, r := range s.table {
		if r.NextHop() == dead {
			delete(s.table, k)
		}
	}
	if pkt.Origin != s.dev.ID() {
		return // mid-path frame: the origin's AckWait failover recovers it
	}
	if tx, ok := s.pending[pkt.Seq]; ok {
		if tx.timer != nil {
			tx.timer.Stop()
			tx.timer = nil
		}
		s.failover(pkt.Seq)
	}
}

// ForwardingTableSize returns the number of per-flow forwarding entries.
func (s *SecMLRSensor) ForwardingTableSize() int { return len(s.table) }

// VerifiedRoutes returns a copy of the gateway-authenticated routes.
func (s *SecMLRSensor) VerifiedRoutes() map[int]Route {
	out := make(map[int]Route, len(s.verified))
	for k, v := range s.verified {
		out[k] = v
	}
	return out
}

// ActivePlaces returns the places believed to host a gateway, ascending.
func (s *SecMLRSensor) ActivePlaces() []int { return s.active.sorted() }

// BestRoute returns the route this node's own data currently takes: the
// least-hop verified route among active places.
func (s *SecMLRSensor) BestRoute() *Route { return bestPlaced[bool](s.active, s.verified, nil) }

// OriginateData queues one payload for authenticated delivery.
func (s *SecMLRSensor) OriginateData(payload []byte) {
	if !s.alive() {
		return
	}
	if len(s.active) > 0 && s.active.missing(s.verified) == 0 {
		if best := s.BestRoute(); best != nil {
			s.sendData(payload, best, nil)
			return
		}
	}
	if s.enqueue(payload) {
		s.startDiscovery()
	}
}

func (s *SecMLRSensor) startDiscovery() {
	// One authentication block per provisioned gateway (§6.2.1: "flooding
	// a query packet with m destinations, i.e., all m gateways").
	blocks := make([]rreqBlock, 0, len(s.Keys.Gateway))
	for gw, key := range s.Keys.Gateway {
		sec := s.seal(gw, key, []byte{reqMarker})
		blocks = append(blocks, rreqBlock{Gateway: gw, Counter: sec.Counter, Cipher: sec.Cipher[0], MAC: sec.MAC})
	}
	// Deterministic block order (map iteration is randomized).
	slices.SortFunc(blocks, func(a, b rreqBlock) int { return cmp.Compare(a.Gateway, b.Gateway) })
	s.discover(marshalRReqBlocks(blocks))
	s.dev.After(responseWait, s.decide)
}

func (s *SecMLRSensor) decide() {
	best := s.BestRoute()
	queued, _, again := s.conclude(best)
	if again {
		s.startDiscovery()
	}
	for _, p := range queued {
		s.sendData(p, best, nil)
	}
}

// sendData transmits payload over route r. tx carries failover state when
// this is a retransmission.
func (s *SecMLRSensor) sendData(payload []byte, r *Route, tx *pendingTx) {
	key, ok := s.Keys.Gateway[r.Gateway]
	if !ok {
		return
	}
	sec := s.seal(r.Gateway, key, payload)
	if tx == nil {
		s.seq++
		tx = &pendingTx{seq: s.seq, payload: payload, tried: map[int]bool{}, sentAt: s.dev.Now()}
		s.pending[tx.seq] = tx
		s.Metrics.RecordGenerated(s.dev.ID(), tx.seq, s.dev.Now())
	}
	seq := tx.seq
	tx.tried[r.Place] = true
	s.send(&packet.Packet{
		Kind:    packet.KindData,
		From:    s.dev.ID(),  // IS
		To:      r.NextHop(), // IR
		Origin:  s.dev.ID(),
		Target:  r.Gateway,
		Seq:     seq,
		TTL:     s.Params.TTL,
		Payload: placePayload(r.Place, nil),
		Sec:     &sec,
	}, metrics.DataSent)
	if tx.timer != nil {
		tx.timer.Stop()
	}
	tx.timer = s.dev.After(s.Params.AckWait, func() { s.failover(seq) })
}

// failover reacts to a missing ACK: try the next-best verified route the
// packet has not used yet, or abandon.
func (s *SecMLRSensor) failover(seq uint32) {
	tx, ok := s.pending[seq]
	if !ok || !s.alive() {
		return
	}
	next := bestPlaced(s.active, s.verified, tx.tried)
	if next == nil {
		delete(s.pending, seq)
		s.Metrics.Inc(metrics.AbandonedData)
		traceExpiredBatch(s.dev, 1, "abandoned")
		return
	}
	s.Metrics.Inc(metrics.Failovers)
	// Histogram only: the FailoverLatencyUs counter is reserved for the
	// advert-liveness reroutes whose mean the text tables already report.
	s.Metrics.Observe(metrics.HistFailoverLatencyUs, uint64(s.dev.Now()-tx.sentAt))
	traceReroute(s.dev, next.Gateway, "ack_failover", 0)
	s.sendData(tx.payload, next, tx)
}

// HandleMessage implements node.Stack.
func (s *SecMLRSensor) HandleMessage(pkt *packet.Packet) {
	if s.dev == nil {
		return // not attached to a device yet
	}
	switch pkt.Kind {
	case packet.KindRReq:
		// Only re-flood: without Kij, a sensor cannot answer for a gateway,
		// which is exactly what makes spoofed route responses impossible.
		if pkt.Origin != s.dev.ID() && !s.seen.Check(pkt.Origin, pkt.Seq) {
			s.relayFlood(pkt)
		}
	case packet.KindRRes:
		s.handleRRes(pkt)
	case packet.KindData:
		s.handleData(pkt)
	case packet.KindAck:
		s.handleAck(pkt)
	case packet.KindNotify:
		if !s.seen.Check(pkt.Origin, pkt.Seq) {
			s.processNotify(pkt)
			s.relayFlood(pkt)
		}
	}
}

func (s *SecMLRSensor) handleRRes(pkt *packet.Packet) {
	place, _, ok := parsePlacePayload(pkt.Payload)
	if !ok || len(pkt.Path) < 2 {
		return
	}
	gw := pkt.Path[len(pkt.Path)-1]
	idx := indexOf(pkt.Path, s.dev.ID())
	if idx < 0 {
		return
	}
	if pkt.Target != s.dev.ID() {
		// Record the per-flow forwarding suffix (§6.2.2/§6.2.4); the
		// freshest response for this (origin, place) flow wins.
		suffix := append([]packet.NodeID(nil), pkt.Path[idx:]...)
		s.table[flowKey{pkt.Target, place}] = Route{
			Gateway: gw, Place: place, Hops: len(suffix) - 1, Path: suffix}
		s.relayResponse(pkt, idx)
		return
	}
	// Response addressed to us: authenticate before believing anything.
	key, known := s.Keys.Gateway[gw]
	body, ok := s.open(s.Metrics, gw, key, known, pkt.Sec)
	if !ok {
		return
	}
	if secPlace, _, okBody := parseResBody(body); !okBody || secPlace != place {
		// Clear-text place field was tampered with in flight.
		s.Metrics.Inc(metrics.RejectedMAC)
		return
	}
	route := Route{Gateway: gw, Place: place, Hops: len(pkt.Path) - 1,
		Path: append([]packet.NodeID(nil), pkt.Path...)}
	if old, exists := s.verified[place]; !exists || route.Hops < old.Hops || old.Gateway != gw {
		s.verified[place] = route
	}
	s.active[place] = gw
}

func (s *SecMLRSensor) handleData(pkt *packet.Packet) {
	if pkt.Target == s.dev.ID() {
		// A gateway-originated packet: authenticate, then deliver.
		key, known := s.Keys.Gateway[pkt.Origin]
		if body, ok := s.open(s.Metrics, pkt.Origin, key, known, pkt.Sec); ok && s.OnDownstream != nil {
			s.OnDownstream(pkt.Origin, body)
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
	place, _, ok := parsePlacePayload(pkt.Payload)
	if !ok {
		return
	}
	// Relays never redirect: the source's ACK failover recovers a frame
	// lost for want of an entry.
	if r, entry := s.table[flowKey{pkt.Origin, place}]; entry {
		s.forward(pkt, r.NextHop(), metrics.DataSent) // rewrites IS/IR (§6.2.4)
	} else {
		s.drop(pkt, metrics.ForwardNoEntry, "no_entry")
	}
}

func (s *SecMLRSensor) handleAck(pkt *packet.Packet) {
	if pkt.Sec == nil || indexOf(pkt.Path, s.dev.ID()) < 0 {
		return
	}
	if pkt.Target != s.dev.ID() {
		if pkt.TTL > 1 {
			s.followPath(pkt, metrics.AckSent)
		}
		return
	}
	key, known := s.Keys.Gateway[pkt.Origin]
	body, ok := s.open(s.Metrics, pkt.Origin, key, known, pkt.Sec)
	if !ok || len(body) < 4 {
		return
	}
	seq := binary.BigEndian.Uint32(body)
	if tx, okTx := s.pending[seq]; okTx {
		if tx.timer != nil {
			tx.timer.Stop()
		}
		delete(s.pending, seq)
	}
}

func (s *SecMLRSensor) processNotify(pkt *packet.Packet) {
	if len(pkt.Payload) < 1 {
		return
	}
	st, known := s.tesla[pkt.Origin]
	if !known {
		return // notifies from unknown gateways are meaningless
	}
	switch pkt.Payload[0] {
	case notifyAnnounce:
		rest := pkt.Payload[1:]
		if len(rest) < 6+2+wsncrypto.MACSize {
			return
		}
		body := rest[:6]
		interval := int(binary.BigEndian.Uint16(rest[6:]))
		tag := rest[8 : 8+wsncrypto.MACSize]
		if interval <= st.verifier.Interval() {
			// The key for this interval is already public; a MAC under it
			// proves nothing (could be forged after disclosure).
			s.Metrics.Inc(metrics.RejectedReplay)
			return
		}
		st.buffered[interval] = append(st.buffered[interval], bufferedNotify{
			body: append([]byte(nil), body...),
			tag:  append([]byte(nil), tag...),
		})
	case notifyDisclose:
		rest := pkt.Payload[1:]
		if len(rest) < 2+wsncrypto.KeySize {
			return
		}
		interval := int(binary.BigEndian.Uint16(rest))
		key := rest[2 : 2+wsncrypto.KeySize]
		if !st.verifier.AcceptKey(interval, key) {
			s.Metrics.Inc(metrics.RejectedMAC)
			return
		}
		for _, buf := range st.buffered[interval] {
			if !st.verifier.VerifyMessage(interval, buf.body, buf.tag) {
				s.Metrics.Inc(metrics.RejectedMAC)
				continue
			}
			if n, ok := parseMLRNotify(buf.body); ok {
				s.active.move(pkt.Origin, n)
				// A verified route to the new place authenticated a
				// *different* gateway; it cannot protect data for the new
				// tenant. Force re-verification.
				if r, ok := s.verified[int(n.NewPlace)]; ok && r.Gateway != pkt.Origin {
					delete(s.verified, int(n.NewPlace))
				}
			}
		}
		delete(st.buffered, interval)
	}
}
