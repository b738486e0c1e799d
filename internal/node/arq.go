package node

import (
	"wmsn/internal/metrics"
	"wmsn/internal/obs"
	"wmsn/internal/packet"
	"wmsn/internal/radio"
	"wmsn/internal/sim"
)

// Link-layer ARQ: hop-by-hop reliable delivery for unicast DATA frames.
//
// A device with ARQ enabled routes every eligible outgoing frame through a
// bounded FIFO forwarding queue and runs stop-and-wait over its head: the
// frame is transmitted, a retransmit timer is armed for the ACK wait of the
// current attempt (deterministic exponential backoff, see
// radio.RetryBackoff), and the frame is retired when the next hop's
// LINK-ACK arrives or the retry budget is exhausted. On exhaustion the
// frame is handed to the stack's LinkFailureHandler (when implemented) so
// routing can reroute around the dead hop instead of silently losing data.
//
// Everything is scheduled on the simulation kernel and draws no randomness,
// so enabling ARQ keeps runs bit-identical across RunMany worker counts;
// with ARQ disabled (the default) no code on these paths executes at all
// and unfaulted runs stay byte-identical to previous revisions.

// DefaultForwardQueueLimit bounds the per-device forwarding queue when
// ARQConfig.QueueLimit is 0.
const DefaultForwardQueueLimit = 32

// ARQConfig enables hop-by-hop ARQ on a device (see Device.EnableLinkARQ).
type ARQConfig struct {
	// Retries is how many retransmissions follow an unacknowledged first
	// attempt before the hop is declared dead. Must be positive — a zero
	// value disables ARQ.
	Retries int
	// AckWait is the ACK timeout for the first attempt; each retry doubles
	// it (radio.RetryBackoff). It should comfortably exceed one DATA
	// airtime plus one ACK airtime plus propagation.
	AckWait sim.Duration
	// QueueLimit bounds the forwarding queue; frames arriving at a full
	// queue are dropped and counted as QueueDrops (backpressure). 0 selects
	// DefaultForwardQueueLimit.
	QueueLimit int
	// Metrics receives the Link* and QueueDrops counters; nil disables
	// telemetry.
	Metrics metrics.Sink
}

// LinkFailureHandler is implemented by stacks that want to reroute when the
// link layer exhausts its retry budget on a frame. The handler receives the
// retired frame exactly as it was submitted to Send (To still names the
// unresponsive hop); it may copy the header and re-send it along another
// route, but must not modify the frame, whose slices a forwarder shares
// with a received one.
type LinkFailureHandler interface {
	HandleLinkFailure(pkt *packet.Packet)
}

// arqSeenKey identifies a received frame for duplicate suppression: the
// immediate sender plus the end-to-end identity. Scoping the key to the
// link (From) keeps legitimate end-to-end retransmissions over a different
// route from being mistaken for link-layer duplicates. The TTL is part of
// the key because only link-layer retransmissions are byte-identical
// clones: a frame that legitimately revisits this link — a routing loop
// under redirect, which must keep circulating until its TTL budget kills
// it, or a resend re-keyed upstream — arrives with a different TTL, and
// suppressing it would silently destroy a frame the sender just got
// acknowledged.
type arqSeenKey struct {
	from, origin packet.NodeID
	seq          uint32
	ttl          uint8
}

type arqSeenEntry struct {
	key     arqSeenKey
	expires sim.Time
}

// arqState is one device's link-layer ARQ machine.
type arqState struct {
	cfg   ARQConfig
	limit int

	queue   []*packet.Packet // head = frame in flight
	attempt int              // transmissions of the head so far, minus one
	timer   *sim.Timer       // pending retransmit timer for the head

	// Receiver-side duplicate suppression. Entries expire after dedupeTTL —
	// the worst-case span between a sender's first and last transmission of
	// one frame — so link-level retransmissions are suppressed while later,
	// legitimate end-to-end resends (e.g. SecMLR failover) pass through.
	dedupeTTL sim.Duration
	seen      map[arqSeenKey]sim.Time
	seenFIFO  []arqSeenEntry

	timeoutFn func() // bound once; avoids a closure per armed timer
}

func (a *arqState) inc(c metrics.Counter) {
	if a.cfg.Metrics != nil {
		a.cfg.Metrics.Inc(c)
	}
}

func (a *arqState) add(c metrics.Counter, n uint64) {
	if a.cfg.Metrics != nil {
		a.cfg.Metrics.Add(c, n)
	}
}

func (a *arqState) observe(h metrics.HistID, v uint64) {
	if a.cfg.Metrics != nil {
		a.cfg.Metrics.Observe(h, v)
	}
}

// EnableLinkARQ arms hop-by-hop ARQ on the device's sensor-layer radio.
// It is a no-op when cfg.Retries <= 0 or ARQ is already enabled. Protocol
// stacks call this from Start when Params.LinkRetries is set.
func (d *Device) EnableLinkARQ(cfg ARQConfig) {
	if cfg.Retries <= 0 || d.arq != nil {
		return
	}
	limit := cfg.QueueLimit
	if limit <= 0 {
		limit = DefaultForwardQueueLimit
	}
	var span sim.Duration
	for i := 0; i <= cfg.Retries; i++ {
		span += radio.RetryBackoff(cfg.AckWait, i)
	}
	a := &arqState{
		cfg:       cfg,
		limit:     limit,
		dedupeTTL: span + sim.Millisecond, // margin for airtime + propagation
		seen:      make(map[arqSeenKey]sim.Time),
	}
	a.timeoutFn = d.arqTimeout
	d.arq = a
}

// LinkARQEnabled reports whether hop-by-hop ARQ is armed on this device.
func (d *Device) LinkARQEnabled() bool { return d.arq != nil }

// LinkQueueLen returns the current forwarding-queue occupancy (0 when ARQ
// is disabled). The queued frames are exactly the "in flight" term of the
// metrics.CheckLinkConservation ledger.
func (d *Device) LinkQueueLen() int {
	if d.arq == nil {
		return 0
	}
	return len(d.arq.queue)
}

// linkTimerStuck reports an impossible state: a pending retransmit timer
// with nothing in flight. The chaos harness asserts this never happens.
func (d *Device) linkTimerStuck() bool {
	return d.arq != nil && len(d.arq.queue) == 0 && d.arq.timer != nil && d.arq.timer.Pending()
}

// arqEligible reports whether the link layer acknowledges this frame:
// unicast DATA only. Floods, control traffic and the ACK frames themselves
// stay fire-and-forget.
func arqEligible(pkt *packet.Packet) bool {
	return pkt.Kind == packet.KindData && pkt.To != packet.Broadcast && pkt.To != packet.None
}

// arqEnqueue admits a frame to the forwarding queue, starting transmission
// when it is the only occupant. A full queue drops the frame (backpressure)
// and reports false, exactly like a failed Send.
func (d *Device) arqEnqueue(pkt *packet.Packet) bool {
	a := d.arq
	if len(a.queue) >= a.limit {
		a.inc(metrics.QueueDrops)
		if d.world.obs.Active() {
			d.world.obs.Emit(obs.Event{
				At: d.Now(), Kind: obs.QueueDrop, Node: d.id, Peer: pkt.To,
				Origin: pkt.Origin, Seq: pkt.Seq,
			})
		}
		return false
	}
	a.queue = append(a.queue, pkt)
	a.inc(metrics.LinkTxQueued)
	a.observe(metrics.HistForwardQueueDepth, uint64(len(a.queue)))
	if len(a.queue) == 1 {
		d.arqTransmitHead()
	}
	return true
}

// arqTransmitHead puts the head frame on the air and arms the retransmit
// timer for the current attempt. A transmission that kills the device
// (battery brownout) flushes the queue via kill, so nothing is armed.
func (d *Device) arqTransmitHead() {
	a := d.arq
	if !d.transmitSensor(a.queue[0]) {
		return // device died mid-transmit; kill flushed the queue
	}
	if !d.Alive() || len(a.queue) == 0 {
		return
	}
	a.timer = d.world.kernel.After(radio.RetryBackoff(a.cfg.AckWait, a.attempt), a.timeoutFn)
}

// arqPop retires the head frame and starts the next one.
func (d *Device) arqPop() {
	a := d.arq
	n := len(a.queue)
	copy(a.queue, a.queue[1:])
	a.queue[n-1] = nil
	a.queue = a.queue[:n-1]
	a.attempt = 0
	if len(a.queue) > 0 {
		d.arqTransmitHead()
	}
}

// arqTimeout handles an expired ACK wait: retransmit while budget remains,
// otherwise declare the hop dead, retire the frame and let the stack
// reroute.
func (d *Device) arqTimeout() {
	a := d.arq
	if a == nil || !d.Alive() || len(a.queue) == 0 {
		return
	}
	a.timer = nil
	if a.attempt < a.cfg.Retries {
		a.attempt++
		a.inc(metrics.LinkRetries)
		if d.world.obs.Active() {
			head := a.queue[0]
			d.world.obs.Emit(obs.Event{
				At: d.Now(), Kind: obs.LinkRetry, Node: d.id, Peer: head.To,
				Origin: head.Origin, Seq: head.Seq, Value: int64(a.attempt),
			})
		}
		d.arqTransmitHead()
		return
	}
	head := a.queue[0]
	a.inc(metrics.LinkFailures)
	a.observe(metrics.HistLinkRetries, uint64(a.attempt))
	if d.world.obs.Active() {
		d.world.obs.Emit(obs.Event{
			At: d.Now(), Kind: obs.LinkFailure, Node: d.id, Peer: head.To,
			Origin: head.Origin, Seq: head.Seq,
		})
	}
	d.arqPop()
	if h, ok := d.stack.(LinkFailureHandler); ok {
		h.HandleLinkFailure(head)
	}
}

// arqHandleAck matches an incoming LINK-ACK against the in-flight frame.
// Stale ACKs — from an earlier attempt of an already-retired frame, or for
// anything that is not the head — are ignored.
func (d *Device) arqHandleAck(ack *packet.Packet) {
	a := d.arq
	if a == nil || len(a.queue) == 0 || !radio.AckMatches(ack, a.queue[0]) {
		return
	}
	if a.timer != nil {
		a.timer.Stop()
		a.timer = nil
	}
	a.inc(metrics.LinkAcked)
	// Retries-per-settled-frame distribution: a.attempt retransmissions were
	// needed before this ACK landed (0 = first try). The failure branch in
	// arqTimeout records the exhausted budget for abandoned frames, so every
	// settled frame contributes exactly one sample.
	a.observe(metrics.HistLinkRetries, uint64(a.attempt))
	if d.world.obs.Active() {
		head := a.queue[0]
		d.world.obs.Emit(obs.Event{
			At: d.Now(), Kind: obs.LinkAck, Node: d.id, Peer: head.To,
			Origin: head.Origin, Seq: head.Seq,
		})
	}
	d.arqPop()
}

// arqAckAndFilter acknowledges an eligible frame addressed to this node and
// reports whether it is fresh. A duplicate (the sender retransmitted because
// our ACK was lost) is re-ACKed but suppressed so the stack never forwards
// it twice.
func (d *Device) arqAckAndFilter(pkt *packet.Packet) bool {
	a := d.arq
	if d.transmitSensor(radio.LinkAckFor(pkt, d.id)) {
		a.inc(metrics.LinkAckSent)
	}
	if !d.Alive() {
		return false // the ACK transmission drained the battery
	}
	now := d.Now()
	for len(a.seenFIFO) > 0 && a.seenFIFO[0].expires <= now {
		e := a.seenFIFO[0]
		a.seenFIFO = a.seenFIFO[1:]
		if exp, ok := a.seen[e.key]; ok && exp == e.expires {
			delete(a.seen, e.key)
		}
	}
	k := arqSeenKey{from: pkt.From, origin: pkt.Origin, seq: pkt.Seq, ttl: pkt.TTL}
	if exp, dup := a.seen[k]; dup && exp > now {
		return false
	}
	exp := now + a.dedupeTTL
	a.seen[k] = exp
	a.seenFIFO = append(a.seenFIFO, arqSeenEntry{key: k, expires: exp})
	return true
}

// arqFlush discards the queue when the device dies, cancelling the
// retransmit timer so no event fires against a dead node. Flushed frames
// are accounted (LinkFlushed) to keep the conservation ledger balanced; the
// duplicate-suppression state survives into Recover — it is still correct,
// since a frame ACKed before death was genuinely received.
func (d *Device) arqFlush() {
	a := d.arq
	if a == nil {
		return
	}
	if n := len(a.queue); n > 0 {
		a.add(metrics.LinkFlushed, uint64(n))
		if d.world.obs.Active() {
			now := d.Now()
			for _, pkt := range a.queue {
				d.world.obs.Emit(obs.Event{
					At: now, Kind: obs.PacketExpired, Node: d.id,
					Origin: pkt.Origin, Seq: pkt.Seq, Detail: "link_flushed",
				})
			}
		}
		for i := range a.queue {
			a.queue[i] = nil
		}
		a.queue = a.queue[:0]
	}
	a.attempt = 0
	if a.timer != nil {
		a.timer.Stop()
		a.timer = nil
	}
}

// LinkQueueDepth sums ARQ forwarding-queue occupancy across all devices —
// the in-flight term for metrics.CheckLinkConservation.
func (w *World) LinkQueueDepth() uint64 {
	var n uint64
	for _, id := range w.order {
		if d, ok := w.devices[id]; ok {
			n += uint64(d.LinkQueueLen())
		}
	}
	return n
}

// LinkStuckTimers counts devices holding a pending ARQ retransmit timer
// with an empty queue. Always zero unless the state machine is broken; the
// chaos harness asserts it.
func (w *World) LinkStuckTimers() int {
	stuck := 0
	for _, id := range w.order {
		if d, ok := w.devices[id]; ok && d.linkTimerStuck() {
			stuck++
		}
	}
	return stuck
}
