package core

import (
	"encoding/binary"

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
	Params  Params
	Metrics metrics.Sink
	Keys    *GatewayKeys
	Uplink  func(origin packet.NodeID, seq uint32, payload []byte)

	dev   *node.Device
	seen  *packet.Dedupe
	place int
	round int
	seq   uint32

	guards map[packet.NodeID]*wsncrypto.ReplayGuard
	txCtr  map[packet.NodeID]uint64
	// collecting accumulates alternative RREQ paths per (origin, seq)
	// during the GatewayWait window.
	collecting map[packet.DedupeKey]*pathCollection
	// paths remembers the chosen path per sensor, reversed for ACKs.
	paths map[packet.NodeID][]packet.NodeID
}

type pathCollection struct {
	counter uint64
	paths   [][]packet.NodeID
}

// NewSecMLRGateway creates a SecMLR gateway stack with its keying material.
func NewSecMLRGateway(p Params, m metrics.Sink, keys *GatewayKeys) *SecMLRGateway {
	return &SecMLRGateway{
		Params: p, Metrics: m, Keys: keys,
		place:      -1,
		guards:     make(map[packet.NodeID]*wsncrypto.ReplayGuard),
		txCtr:      make(map[packet.NodeID]uint64),
		collecting: make(map[packet.DedupeKey]*pathCollection),
		paths:      make(map[packet.NodeID][]packet.NodeID),
	}
}

// Start implements node.Stack.
func (g *SecMLRGateway) Start(dev *node.Device) {
	g.dev = dev
	g.seen = packet.NewDedupe(1 << 14)
	enableARQ(dev, g.Params, g.Metrics)
}

// Place returns the current feasible-place index (-1 before deployment).
func (g *SecMLRGateway) Place() int { return g.place }

func (g *SecMLRGateway) guard(sensor packet.NodeID) *wsncrypto.ReplayGuard {
	gd, ok := g.guards[sensor]
	if !ok {
		gd = &wsncrypto.ReplayGuard{}
		g.guards[sensor] = gd
	}
	return gd
}

// SetPlace implements PlacedGateway: announce the move with a µTESLA-
// authenticated NOTIFY, disclosing the interval key after DiscloseDelay.
func (g *SecMLRGateway) SetPlace(place, round int, moved bool) {
	prev := g.place
	g.place = place
	g.round = round
	if !moved {
		return
	}
	interval := round + 1
	if interval > g.Keys.Tesla.Intervals() {
		interval = g.Keys.Tesla.Intervals() // chain exhausted; reuse last
	}
	prevField := uint16(NoPlace)
	if prev >= 0 {
		prevField = uint16(prev)
	}
	n := mlrNotify{NewPlace: uint16(place), PrevPlace: prevField, Round: uint16(round)}
	body := n.marshal()
	tag := g.Keys.Tesla.Authenticate(interval, body)

	payload := make([]byte, 0, 1+len(body)+2+len(tag))
	payload = append(payload, notifyAnnounce)
	payload = append(payload, body...)
	payload = binary.BigEndian.AppendUint16(payload, uint16(interval))
	payload = append(payload, tag...)
	g.floodNotify(payload)

	key := g.Keys.Tesla.KeyAt(interval)
	g.dev.After(g.Params.DiscloseDelay, func() {
		disc := make([]byte, 0, 1+2+len(key))
		disc = append(disc, notifyDisclose)
		disc = binary.BigEndian.AppendUint16(disc, uint16(interval))
		disc = append(disc, key...)
		g.floodNotify(disc)
	})
}

func (g *SecMLRGateway) floodNotify(payload []byte) {
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
	key, known := g.Keys.Lookup(pkt.Origin)
	if !known {
		g.Metrics.Inc(metrics.RejectedMAC) // unknown (e.g. Sybil) or revoked identity
		return
	}
	// Verify (1) origin authenticity via the MAC ...
	if !wsncrypto.Verify(key, mine.Counter, []byte{mine.Cipher}, mine.MAC) {
		g.Metrics.Inc(metrics.RejectedMAC)
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
	if !g.guard(pkt.Origin).Accept(mine.Counter) {
		g.Metrics.Inc(metrics.RejectedReplay)
		return
	}
	col := &pathCollection{counter: mine.Counter, paths: [][]packet.NodeID{path}}
	g.collecting[k] = col
	origin := pkt.Origin
	seq := pkt.Seq
	g.dev.After(g.Params.GatewayWait, func() { g.answer(origin, seq) })
}

// answer closes the collection window and responds with the shortest path.
func (g *SecMLRGateway) answer(origin packet.NodeID, seq uint32) {
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

	key := g.Keys.Sensor[origin]
	g.txCtr[origin]++
	ctr := g.txCtr[origin]
	cipher := wsncrypto.Encrypt(key, ctr, resBody(g.place, g.round))
	res := &packet.Packet{
		Kind:    packet.KindRRes,
		From:    g.dev.ID(),
		To:      best[len(best)-2],
		Origin:  g.dev.ID(),
		Target:  origin,
		Seq:     seq,
		TTL:     g.Params.TTL,
		Path:    best,
		Payload: placePayload(g.place, nil),
		Sec: &packet.SecEnvelope{
			Counter: ctr,
			Cipher:  cipher,
			MAC:     wsncrypto.Sum(key, ctr, cipher),
		},
	}
	if g.dev.Send(res) {
		g.Metrics.Inc(metrics.RResSent)
	}
}

func (g *SecMLRGateway) handleData(pkt *packet.Packet) {
	if pkt.Target != g.dev.ID() {
		return
	}
	if pkt.Sec == nil {
		g.Metrics.Inc(metrics.RejectedMAC) // unprotected data (e.g. Sybil injection)
		return
	}
	_, _, ok := parsePlacePayload(pkt.Payload)
	if !ok {
		return
	}
	key, known := g.Keys.Lookup(pkt.Origin)
	if !known {
		g.Metrics.Inc(metrics.RejectedMAC)
		return
	}
	if !wsncrypto.Verify(key, pkt.Sec.Counter, pkt.Sec.Cipher, pkt.Sec.MAC) {
		g.Metrics.Inc(metrics.RejectedMAC)
		return
	}
	if !g.guard(pkt.Origin).Accept(pkt.Sec.Counter) {
		g.Metrics.Inc(metrics.RejectedReplay)
		return
	}
	body := wsncrypto.Decrypt(key, pkt.Sec.Counter, pkt.Sec.Cipher)
	g.Metrics.RecordDelivered(pkt.Origin, pkt.Seq, g.dev.ID(), int(pkt.Hops)+1, g.dev.Now())
	if g.Uplink != nil {
		g.Uplink(pkt.Origin, pkt.Seq, body)
	}
	g.sendAck(pkt.Origin, pkt.Seq)
}

// SendToSensor source-routes an encrypted, authenticated downstream payload
// to a sensor the gateway holds a discovery path for (§6.2.4 downstream
// direction). The sensor verifies the MAC and counter before delivery.
func (g *SecMLRGateway) SendToSensor(sensor packet.NodeID, payload []byte) bool {
	fwd, ok := g.paths[sensor]
	if !ok || len(fwd) < 2 || g.dev == nil || !g.dev.Alive() {
		return false
	}
	key, known := g.Keys.Sensor[sensor]
	if !known {
		return false
	}
	rev := make([]packet.NodeID, len(fwd))
	for i, id := range fwd {
		rev[len(fwd)-1-i] = id
	}
	g.txCtr[sensor]++
	ctr := g.txCtr[sensor]
	cipher := wsncrypto.Encrypt(key, ctr, payload)
	g.seq++
	pkt := &packet.Packet{
		Kind:   packet.KindData,
		From:   g.dev.ID(),
		To:     rev[1],
		Origin: g.dev.ID(),
		Target: sensor,
		Seq:    g.seq,
		TTL:    g.Params.TTL,
		Path:   rev,
		Sec: &packet.SecEnvelope{
			Counter: ctr,
			Cipher:  cipher,
			MAC:     wsncrypto.Sum(key, ctr, cipher),
		},
	}
	if g.dev.Send(pkt) {
		g.Metrics.Inc(metrics.DataSent)
		return true
	}
	return false
}

func (g *SecMLRGateway) sendAck(origin packet.NodeID, seq uint32) {
	fwd, ok := g.paths[origin]
	if !ok || len(fwd) < 2 {
		return
	}
	// Reverse the stored Si..Gj path into Gj..Si.
	rev := make([]packet.NodeID, len(fwd))
	for i, id := range fwd {
		rev[len(fwd)-1-i] = id
	}
	key := g.Keys.Sensor[origin]
	g.txCtr[origin]++
	ctr := g.txCtr[origin]
	seqBuf := binary.BigEndian.AppendUint32(nil, seq)
	cipher := wsncrypto.Encrypt(key, ctr, seqBuf)
	ack := &packet.Packet{
		Kind:    packet.KindAck,
		From:    g.dev.ID(),
		To:      rev[1],
		Origin:  g.dev.ID(),
		Target:  origin,
		Seq:     seq,
		TTL:     g.Params.TTL,
		Path:    rev,
		Payload: seqBuf,
		Sec: &packet.SecEnvelope{
			Counter: ctr,
			Cipher:  cipher,
			MAC:     wsncrypto.Sum(key, ctr, cipher),
		},
	}
	if g.dev.Send(ack) {
		g.Metrics.Inc(metrics.AckSent)
	}
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
	Params  Params
	Metrics metrics.Sink
	Keys    *SensorKeys

	dev  *node.Device
	seen *packet.Dedupe
	seq  uint32

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
	active   map[int]packet.NodeID

	txCtr  map[packet.NodeID]uint64
	guards map[packet.NodeID]*wsncrypto.ReplayGuard
	tesla  map[packet.NodeID]*teslaState

	queue       [][]byte
	discovering bool
	retriesLeft int

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
		Params: p, Metrics: m, Keys: keys,
		table:    make(map[flowKey]Route),
		verified: make(map[int]Route),
		active:   make(map[int]packet.NodeID),
		txCtr:    make(map[packet.NodeID]uint64),
		guards:   make(map[packet.NodeID]*wsncrypto.ReplayGuard),
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

// Start implements node.Stack.
func (s *SecMLRSensor) Start(dev *node.Device) {
	s.dev = dev
	s.seen = packet.NewDedupe(1 << 14)
	enableARQ(dev, s.Params, s.Metrics)
}

// HandleLinkFailure implements node.LinkFailureHandler. SecMLR already has
// an end-to-end recovery path — the per-packet AckWait timer and
// multi-route failover (§6.2.3) — so the link layer only sharpens it:
// routes through the dead hop are forgotten, and for the sensor's own data
// the failover fires immediately instead of waiting out the full AckWait.
// Failed failovers stay accounted as Failovers/AbandonedData, never as
// Reroutes: the two counters keep their PR 3 meanings.
func (s *SecMLRSensor) HandleLinkFailure(pkt *packet.Packet) {
	if pkt.Kind != packet.KindData || s.dev == nil || !s.dev.Alive() {
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
func (s *SecMLRSensor) ActivePlaces() []int {
	out := make([]int, 0, len(s.active))
	for p := range s.active {
		out = append(out, p)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (s *SecMLRSensor) guard(gw packet.NodeID) *wsncrypto.ReplayGuard {
	gd, ok := s.guards[gw]
	if !ok {
		gd = &wsncrypto.ReplayGuard{}
		s.guards[gw] = gd
	}
	return gd
}

// bestVerified returns the least-hop verified route among active places,
// excluding places in skip.
func (s *SecMLRSensor) bestVerified(skip map[int]bool) *Route {
	var best *Route
	for p := range s.active {
		if skip != nil && skip[p] {
			continue
		}
		if r, ok := s.verified[p]; ok {
			if best == nil || r.Hops < best.Hops || (r.Hops == best.Hops && r.Place < best.Place) {
				rr := r
				best = &rr
			}
		}
	}
	return best
}

// BestRoute returns the route this node's own data currently takes.
func (s *SecMLRSensor) BestRoute() *Route { return s.bestVerified(nil) }

func (s *SecMLRSensor) missingVerified() int {
	missing := 0
	for p := range s.active {
		if _, ok := s.verified[p]; !ok {
			missing++
		}
	}
	return missing
}

// OriginateData queues one payload for authenticated delivery.
func (s *SecMLRSensor) OriginateData(payload []byte) {
	if s.dev == nil || !s.dev.Alive() {
		return
	}
	if len(s.active) > 0 && s.missingVerified() == 0 {
		if best := s.bestVerified(nil); best != nil {
			s.sendData(payload, best, nil)
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

func (s *SecMLRSensor) startDiscovery() {
	s.discovering = true
	s.seq++
	// One authentication block per provisioned gateway (§6.2.1: "flooding
	// a query packet with m destinations, i.e., all m gateways").
	blocks := make([]rreqBlock, 0, len(s.Keys.Gateway))
	for gw, key := range s.Keys.Gateway {
		s.txCtr[gw]++
		ctr := s.txCtr[gw]
		cipher := wsncrypto.Encrypt(key, ctr, []byte{reqMarker})
		blocks = append(blocks, rreqBlock{
			Gateway: gw,
			Counter: ctr,
			Cipher:  cipher[0],
			MAC:     wsncrypto.Sum(key, ctr, cipher),
		})
	}
	// Deterministic block order (map iteration is randomized).
	for i := 1; i < len(blocks); i++ {
		for j := i; j > 0 && blocks[j].Gateway < blocks[j-1].Gateway; j-- {
			blocks[j], blocks[j-1] = blocks[j-1], blocks[j]
		}
	}
	req := &packet.Packet{
		Kind:    packet.KindRReq,
		From:    s.dev.ID(),
		To:      packet.Broadcast,
		Origin:  s.dev.ID(),
		Target:  packet.Broadcast,
		Seq:     s.seq,
		TTL:     s.Params.TTL,
		Path:    []packet.NodeID{s.dev.ID()},
		Payload: marshalRReqBlocks(blocks),
	}
	s.seen.Check(s.dev.ID(), s.seq)
	if s.dev.Send(req) {
		s.Metrics.Inc(metrics.RReqSent)
	}
	s.dev.After(s.Params.ResponseWait, s.decide)
}

func (s *SecMLRSensor) decide() {
	if !s.discovering || s.dev == nil || !s.dev.Alive() {
		return
	}
	s.discovering = false
	best := s.bestVerified(nil)
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
	for _, p := range s.queue {
		s.sendData(p, best, nil)
	}
	s.queue = nil
}

// sendData transmits payload over route r. prev carries failover state when
// this is a retransmission.
func (s *SecMLRSensor) sendData(payload []byte, r *Route, prev *pendingTx) {
	gw := r.Gateway
	key, ok := s.Keys.Gateway[gw]
	if !ok {
		return
	}
	s.txCtr[gw]++
	ctr := s.txCtr[gw]
	cipher := wsncrypto.Encrypt(key, ctr, payload)

	tx := prev
	if tx == nil {
		s.seq++
		tx = &pendingTx{seq: s.seq, payload: payload, tried: map[int]bool{}, sentAt: s.dev.Now()}
		s.pending[tx.seq] = tx
		s.Metrics.RecordGenerated(s.dev.ID(), tx.seq, s.dev.Now())
	}
	seq := tx.seq
	tx.tried[r.Place] = true

	pkt := &packet.Packet{
		Kind:    packet.KindData,
		From:    s.dev.ID(),  // IS
		To:      r.NextHop(), // IR
		Origin:  s.dev.ID(),
		Target:  gw,
		Seq:     seq,
		TTL:     s.Params.TTL,
		Payload: placePayload(r.Place, nil),
		Sec: &packet.SecEnvelope{
			Counter: ctr,
			Cipher:  cipher,
			MAC:     wsncrypto.Sum(key, ctr, cipher),
		},
	}
	if s.dev.Send(pkt) {
		s.Metrics.Inc(metrics.DataSent)
	}
	if tx.timer != nil {
		tx.timer.Stop()
	}
	tx.timer = s.dev.After(s.Params.AckWait, func() { s.failover(seq) })
}

// failover reacts to a missing ACK: try the next-best verified route the
// packet has not used yet, or abandon.
func (s *SecMLRSensor) failover(seq uint32) {
	tx, ok := s.pending[seq]
	if !ok || s.dev == nil || !s.dev.Alive() {
		return
	}
	next := s.bestVerified(tx.tried)
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
		s.handleRReq(pkt)
	case packet.KindRRes:
		s.handleRRes(pkt)
	case packet.KindData:
		s.handleData(pkt)
	case packet.KindAck:
		s.handleAck(pkt)
	case packet.KindNotify:
		s.handleNotify(pkt)
	}
}

// handleRReq only re-floods: without Kij, a sensor cannot answer for a
// gateway, which is exactly what makes spoofed route responses impossible.
func (s *SecMLRSensor) handleRReq(pkt *packet.Packet) {
	if pkt.Origin == s.dev.ID() || s.seen.Check(pkt.Origin, pkt.Seq) {
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

// sendFlood transmits a flood rebroadcast with optional de-synchronizing
// jitter (see Params.FloodJitter).
func (s *SecMLRSensor) sendFlood(fwd *packet.Packet, counter metrics.Counter) {
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
		return
	}
	// Response addressed to us: authenticate before believing anything.
	key, known := s.Keys.Gateway[gw]
	if !known || pkt.Sec == nil {
		s.Metrics.Inc(metrics.RejectedMAC)
		return
	}
	if !wsncrypto.Verify(key, pkt.Sec.Counter, pkt.Sec.Cipher, pkt.Sec.MAC) {
		s.Metrics.Inc(metrics.RejectedMAC)
		return
	}
	if !s.guard(gw).Accept(pkt.Sec.Counter) {
		s.Metrics.Inc(metrics.RejectedReplay)
		return
	}
	body := wsncrypto.Decrypt(key, pkt.Sec.Counter, pkt.Sec.Cipher)
	secPlace, _, okBody := parseResBody(body)
	if !okBody || secPlace != place {
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
		s.deliverDownstream(pkt)
		return
	}
	if pkt.TTL <= 1 {
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
	place, _, ok := parsePlacePayload(pkt.Payload)
	if !ok {
		return
	}
	r, entry := s.table[flowKey{pkt.Origin, place}]
	if !entry {
		return
	}
	// Rewrite IS/IR (§6.2.4) and forward.
	fwd := *pkt
	fwd.From = s.dev.ID()
	fwd.To = r.NextHop()
	fwd.TTL--
	fwd.Hops++
	if s.dev.Send(&fwd) {
		s.Metrics.Inc(metrics.DataSent)
	}
}

// deliverDownstream authenticates and delivers a gateway-originated packet.
func (s *SecMLRSensor) deliverDownstream(pkt *packet.Packet) {
	gw := pkt.Origin
	key, known := s.Keys.Gateway[gw]
	if !known || pkt.Sec == nil {
		s.Metrics.Inc(metrics.RejectedMAC)
		return
	}
	if !wsncrypto.Verify(key, pkt.Sec.Counter, pkt.Sec.Cipher, pkt.Sec.MAC) {
		s.Metrics.Inc(metrics.RejectedMAC)
		return
	}
	if !s.guard(gw).Accept(pkt.Sec.Counter) {
		s.Metrics.Inc(metrics.RejectedReplay)
		return
	}
	if s.OnDownstream != nil {
		s.OnDownstream(gw, wsncrypto.Decrypt(key, pkt.Sec.Counter, pkt.Sec.Cipher))
	}
}

func (s *SecMLRSensor) handleAck(pkt *packet.Packet) {
	idx := indexOf(pkt.Path, s.dev.ID())
	if idx < 0 || pkt.Sec == nil {
		return
	}
	if pkt.Target != s.dev.ID() {
		if idx+1 >= len(pkt.Path) || pkt.TTL <= 1 {
			return
		}
		fwd := *pkt
		fwd.From = s.dev.ID()
		fwd.To = pkt.Path[idx+1]
		fwd.TTL--
		fwd.Hops++
		if s.dev.Send(&fwd) {
			s.Metrics.Inc(metrics.AckSent)
		}
		return
	}
	gw := pkt.Origin
	key, known := s.Keys.Gateway[gw]
	if !known {
		s.Metrics.Inc(metrics.RejectedMAC)
		return
	}
	if !wsncrypto.Verify(key, pkt.Sec.Counter, pkt.Sec.Cipher, pkt.Sec.MAC) {
		s.Metrics.Inc(metrics.RejectedMAC)
		return
	}
	if !s.guard(gw).Accept(pkt.Sec.Counter) {
		s.Metrics.Inc(metrics.RejectedReplay)
		return
	}
	body := wsncrypto.Decrypt(key, pkt.Sec.Counter, pkt.Sec.Cipher)
	if len(body) < 4 {
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

func (s *SecMLRSensor) handleNotify(pkt *packet.Packet) {
	if s.seen.Check(pkt.Origin, pkt.Seq) {
		return
	}
	s.processNotify(pkt)
	if pkt.TTL > 1 {
		fwd := *pkt
		fwd.From = s.dev.ID()
		fwd.TTL--
		fwd.Hops++
		s.sendFlood(&fwd, metrics.NotifySent)
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
				s.applyNotify(pkt.Origin, n)
			}
		}
		delete(st.buffered, interval)
	}
}

func (s *SecMLRSensor) applyNotify(gw packet.NodeID, n mlrNotify) {
	if n.PrevPlace != NoPlace {
		if cur, ok := s.active[int(n.PrevPlace)]; ok && cur == gw {
			delete(s.active, int(n.PrevPlace))
		}
	}
	place := int(n.NewPlace)
	s.active[place] = gw
	// A verified route to this place authenticated a *different* gateway;
	// it cannot protect data for the new tenant. Force re-verification.
	if r, ok := s.verified[place]; ok && r.Gateway != gw {
		delete(s.verified, place)
	}
}
