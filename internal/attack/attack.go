// Package attack implements the network-layer adversaries the paper lists
// (§2.3, citing Karlof & Wagner, and §6): spoofed/altered/replayed routing
// information, selective forwarding, sinkhole, Sybil, wormholes, HELLO
// floods and acknowledgment spoofing.
//
// Each attacker is a node.Stack (or a wrapper around a legitimate stack for
// insider attacks) so that the same adversary can be dropped into an MLR or
// a SecMLR network; experiment E9 runs the full matrix and reports which
// attacks each protocol survives.
package attack

import (
	"math/rand"

	"wmsn/internal/core"
	"wmsn/internal/metrics"
	"wmsn/internal/node"
	"wmsn/internal/obs"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// Counters tracks what an attacker managed to do; the experiment harness
// reads these alongside the victim network's core.Metrics.
type Counters struct {
	Captured uint64 // packets observed
	Injected uint64 // packets put on the air by the attacker
	Dropped  uint64 // packets the attacker swallowed instead of forwarding
}

// NodeRand returns the deterministic private RNG for an attacker bound to
// the given node: a stream seeded from the scenario seed and the node ID
// only. Attackers must never draw from the world kernel's RNG: one draw
// there shifts every later loss draw, jitter and traffic phase of the run,
// so a campaign's outcome would mix its own effect with a reshuffled random
// stream.
func NodeRand(seed int64, id packet.NodeID) *rand.Rand {
	const mix = int64(-0x61C8864680B583EB) // golden-ratio multiplier, two's complement
	return rand.New(rand.NewSource(seed ^ int64(id)*mix))
}

// noteDrop counts one swallowed packet: the attacker's own Counters always
// move; when the attacker was installed by the fault injector, the run's
// metrics sink (AttackerDropped) and obs bus (AttackDrop) move with them.
func noteDrop(dev *node.Device, sink metrics.Sink, c *Counters, p *packet.Packet, kind string) {
	c.Dropped++
	if sink != nil {
		sink.Inc(metrics.AttackerDropped)
	}
	if dev == nil {
		return
	}
	if b := dev.World().Obs(); b.Active() {
		b.Emit(obs.Event{At: dev.Now(), Kind: obs.AttackDrop, Node: dev.ID(),
			Origin: p.Origin, Seq: p.Seq, Detail: kind})
	}
}

// noteInject counts one packet the attacker put on the air, mirroring into
// the metrics sink (AttackerInjected) and obs bus (AttackInject) when set.
func noteInject(dev *node.Device, sink metrics.Sink, c *Counters, p *packet.Packet, kind string) {
	c.Injected++
	if sink != nil {
		sink.Inc(metrics.AttackerInjected)
	}
	if dev == nil {
		return
	}
	if b := dev.World().Obs(); b.Active() {
		b.Emit(obs.Event{At: dev.Now(), Kind: obs.AttackInject, Node: dev.ID(),
			Origin: p.Origin, Seq: p.Seq, Detail: kind})
	}
}

// passInner hands p to the wrapped legitimate stack, filtering out frames
// the stack would never have seen without the attacker's promiscuous radio:
// a compromised insider keeps routing exactly as before, it just also
// eavesdrops.
func passInner(dev *node.Device, inner node.Stack, p *packet.Packet) {
	if inner == nil {
		return
	}
	if p.To != dev.ID() && p.To != packet.Broadcast {
		return // overheard promiscuously; not the inner stack's traffic
	}
	inner.HandleMessage(p)
}

// SelectiveForwarder is the insider grayhole: it participates in routing
// normally (via the wrapped legitimate stack) but silently drops a fraction
// of the DATA packets it should forward. DropProb 1.0 is the blackhole.
type SelectiveForwarder struct {
	Inner    node.Stack
	DropProb float64
	// Rng, when set, is the attacker's private drop-decision stream
	// (NodeRand). Nil falls back to the world kernel's RNG, which shifts
	// the run's shared stream; the fault injector always sets it.
	Rng *rand.Rand
	// Metrics, when set, mirrors drops into the run sink (AttackerDropped).
	Metrics  metrics.Sink
	Counters Counters

	dev *node.Device
	// kindLabel overrides the "selective-forward" drop label so a blackhole
	// campaign (DropProb 1) reports under its own attack kind.
	kindLabel string
}

// Start implements node.Stack.
func (a *SelectiveForwarder) Start(dev *node.Device) {
	a.dev = dev
	a.Inner.Start(dev)
}

// HandleMessage implements node.Stack.
func (a *SelectiveForwarder) HandleMessage(p *packet.Packet) {
	if a.dev == nil {
		return // not attached to a device yet
	}
	if p.Kind == packet.KindData && p.Origin != a.dev.ID() {
		if a.DropProb >= 1 || a.rand().Float64() < a.DropProb {
			label := a.kindLabel
			if label == "" {
				label = "selective-forward"
			}
			noteDrop(a.dev, a.Metrics, &a.Counters, p, label)
			return
		}
	}
	a.Inner.HandleMessage(p)
}

func (a *SelectiveForwarder) rand() *rand.Rand {
	if a.Rng != nil {
		return a.Rng
	}
	return a.dev.World().Kernel().Rand()
}

// Replayer captures packets of the configured kinds promiscuously and
// re-injects each one verbatim after Delay. Against plain MLR the replayed
// data is re-delivered (and double-counted upstream); against SecMLR the
// gateway's counters reject it.
type Replayer struct {
	Kinds map[packet.Kind]bool
	Delay sim.Duration
	// Jitter spreads each replay by an extra uniform [0, Jitter) draw from
	// the attacker's private Rng, de-synchronizing fraction-wide campaigns;
	// 0 replays at exactly Delay and draws nothing.
	Jitter sim.Duration
	// MaxCopies caps total injections; <= 0 selects DefaultReplayMaxCopies.
	MaxCopies int
	// Inner, when set, keeps the victim's legitimate stack running under
	// the replayer (insider compromise); nil is the stand-alone
	// eavesdropper node of experiment E9.
	Inner node.Stack
	// Rng is the private jitter stream (NodeRand); nil falls back to the
	// world kernel's RNG, which shifts the run's shared stream.
	Rng *rand.Rand
	// Metrics, when set, mirrors injections into the run sink.
	Metrics  metrics.Sink
	Counters Counters

	dev *node.Device
	// scheduled counts replays armed (not yet necessarily sent); the
	// MaxCopies cap gates on it so a burst of captures inside one Delay
	// window cannot overshoot the budget before the first send lands.
	scheduled int
}

// DefaultReplayMaxCopies is the injection cap a Replayer falls back to when
// MaxCopies is unset: large enough to be unbounded for any realistic run,
// small enough that a misconfigured campaign cannot overflow the Injected
// counter comparison.
const DefaultReplayMaxCopies = 1 << 20

// NewReplayer builds a replayer for the given kinds (default: DATA only).
func NewReplayer(delay sim.Duration, kinds ...packet.Kind) *Replayer {
	r := &Replayer{Kinds: make(map[packet.Kind]bool), Delay: delay, MaxCopies: DefaultReplayMaxCopies}
	if len(kinds) == 0 {
		kinds = []packet.Kind{packet.KindData}
	}
	for _, k := range kinds {
		r.Kinds[k] = true
	}
	return r
}

// Start implements node.Stack. The device should be marked Promiscuous by
// the scenario so unicast traffic is observable.
func (a *Replayer) Start(dev *node.Device) {
	a.dev = dev
	dev.SetPromiscuous(true)
}

// HandleMessage implements node.Stack.
func (a *Replayer) HandleMessage(p *packet.Packet) {
	if a.dev == nil {
		return // not attached to a device yet
	}
	if !a.Kinds[p.Kind] || p.From == a.dev.ID() {
		passInner(a.dev, a.Inner, p)
		return
	}
	a.Counters.Captured++
	if a.scheduled >= a.maxCopies() {
		passInner(a.dev, a.Inner, p)
		return
	}
	a.scheduled++
	cp := *p
	delay := a.Delay
	if a.Jitter > 0 {
		delay += sim.Duration(a.rand().Int63n(int64(a.Jitter)))
	}
	a.dev.After(delay, func() {
		if !a.dev.Alive() {
			return
		}
		rep := cp
		rep.From = a.dev.ID() // link-layer sender is the attacker's radio
		if a.dev.Send(&rep) {
			noteInject(a.dev, a.Metrics, &a.Counters, &rep, "replay")
		}
	})
	passInner(a.dev, a.Inner, p)
}

func (a *Replayer) maxCopies() int {
	if a.MaxCopies > 0 {
		return a.MaxCopies
	}
	return DefaultReplayMaxCopies
}

func (a *Replayer) rand() *rand.Rand {
	if a.Rng != nil {
		return a.Rng
	}
	return a.dev.World().Kernel().Rand()
}

// Sinkhole advertises irresistibly short routes and swallows the attracted
// traffic: on overhearing an RREQ it immediately answers with a forged RRES
// claiming the queried gateway is one hop behind the attacker. Plain MLR
// sensors believe it (spoofed routing information); SecMLR sensors reject
// the response for lack of a valid gateway MAC.
type Sinkhole struct {
	// FakeGateway is the gateway identity whose proximity is claimed.
	FakeGateway packet.NodeID
	// Place is the feasible-place index advertised.
	Place int
	TTL   uint8
	// Inner, when set, keeps the victim's legitimate stack running for
	// non-DATA traffic (insider compromise); lured DATA never reaches it.
	Inner node.Stack
	// Metrics, when set, mirrors forged responses and swallowed packets
	// into the run sink.
	Metrics  metrics.Sink
	Counters Counters

	dev *node.Device
}

// Start implements node.Stack.
func (a *Sinkhole) Start(dev *node.Device) {
	a.dev = dev
	dev.SetPromiscuous(true)
}

// HandleMessage implements node.Stack.
func (a *Sinkhole) HandleMessage(p *packet.Packet) {
	if a.dev == nil {
		return // not attached to a device yet
	}
	switch p.Kind {
	case packet.KindRReq:
		a.Counters.Captured++
		// Forge: <origin-path..., me, gateway> — a 1-hop-behind-me claim.
		full := p.AppendHop(a.dev.ID())
		full = append(full, a.FakeGateway)
		res := &packet.Packet{
			Kind:    packet.KindRRes,
			From:    a.dev.ID(),
			To:      p.From,
			Origin:  a.FakeGateway,
			Target:  p.Origin,
			Seq:     p.Seq,
			TTL:     a.TTL,
			Path:    full,
			Payload: core.EncodePlacePayload(a.Place, nil),
		}
		if a.dev.Send(res) {
			noteInject(a.dev, a.Metrics, &a.Counters, res, "sinkhole")
		}
		passInner(a.dev, a.Inner, p)
	case packet.KindData:
		// Attracted traffic disappears. Only packets addressed to the
		// attacker count as swallowed — promiscuously overheard copies of
		// other links' frames were never the sinkhole's to lose.
		if p.To == a.dev.ID() {
			noteDrop(a.dev, a.Metrics, &a.Counters, p, "sinkhole")
		}
	default:
		passInner(a.dev, a.Inner, p)
	}
}

// HelloFlood models the long-range forged broadcast: a powerful transmitter
// periodically floods forged NOTIFYs claiming a gateway moved to the
// attacker's place, so distant plain-MLR sensors redirect data toward a
// position where nothing listens. SecMLR sensors discard it (no valid TESLA
// tag can be produced).
type HelloFlood struct {
	// Gateway is the impersonated gateway ID.
	Gateway packet.NodeID
	// Place is the place index falsely claimed.
	Place int
	// PrevPlace is the place falsely vacated (core.NoPlace for none).
	PrevPlace int
	// Range is the boosted transmission radius; <= 0 uses the node's own
	// radio range (the insider variant the fault injector installs).
	Range    float64
	Interval sim.Duration
	TTL      uint8
	// Inner, when set, keeps the victim's legitimate stack handling traffic
	// while the flood runs on top (insider compromise).
	Inner node.Stack
	// Metrics, when set, mirrors forged broadcasts into the run sink.
	Metrics  metrics.Sink
	Counters Counters

	dev *node.Device
	seq uint32
	rep *sim.Repeater
}

// Start implements node.Stack and begins flooding.
func (a *HelloFlood) Start(dev *node.Device) {
	a.dev = dev
	a.flood()
	a.rep = dev.Every(a.Interval, a.flood)
}

// Stop halts the flood.
func (a *HelloFlood) Stop() {
	if a.rep != nil {
		a.rep.Stop()
	}
}

func (a *HelloFlood) flood() {
	if !a.dev.Alive() {
		return
	}
	a.seq++
	pkt := &packet.Packet{
		Kind:    packet.KindNotify,
		From:    a.dev.ID(),
		To:      packet.Broadcast,
		Origin:  a.Gateway, // spoofed
		Target:  packet.Broadcast,
		Seq:     0xFFFF0000 + a.seq, // avoid colliding with genuine seqs
		TTL:     a.TTL,
		Payload: core.EncodeNotifyPayload(a.Place, a.PrevPlace, 9999),
	}
	sent := false
	if a.Range > 0 {
		sent = a.dev.SendRange(pkt, a.Range)
	} else {
		sent = a.dev.Send(pkt)
	}
	if sent {
		noteInject(a.dev, a.Metrics, &a.Counters, pkt, "spoofed-routing")
	}
}

// HandleMessage implements node.Stack.
func (a *HelloFlood) HandleMessage(p *packet.Packet) {
	passInner(a.dev, a.Inner, p)
}

// Sybil originates data under many forged identities. A plain-MLR gateway
// accepts the pollution as real sensor readings; a SecMLR gateway rejects
// every identity it holds no key for.
type Sybil struct {
	Identities []packet.NodeID
	// Gateway / Place address the forged data like a legitimate reading.
	Gateway  packet.NodeID
	Place    int
	NextHop  packet.NodeID // first hop toward the gateway (Broadcast works too)
	Interval sim.Duration
	TTL      uint8
	Counters Counters

	dev *node.Device
	seq uint32
	rep *sim.Repeater
}

// Start implements node.Stack and begins injecting.
func (a *Sybil) Start(dev *node.Device) {
	a.dev = dev
	a.rep = dev.Every(a.Interval, a.inject)
}

// Stop halts injection.
func (a *Sybil) Stop() {
	if a.rep != nil {
		a.rep.Stop()
	}
}

func (a *Sybil) inject() {
	if !a.dev.Alive() {
		return
	}
	for _, id := range a.Identities {
		a.seq++
		pkt := &packet.Packet{
			Kind:    packet.KindData,
			From:    a.dev.ID(),
			To:      a.NextHop,
			Origin:  id, // forged
			Target:  a.Gateway,
			Seq:     a.seq,
			TTL:     a.TTL,
			Payload: core.EncodePlacePayload(a.Place, []byte("forged")),
		}
		if a.dev.Send(pkt) {
			a.Counters.Injected++
		}
	}
}

// HandleMessage implements node.Stack.
func (a *Sybil) HandleMessage(*packet.Packet) {}

// Wormhole tunnels overheard control packets between two colluding radios
// through an out-of-band channel, making distant parts of the network look
// adjacent. Route discovery then prefers the wormhole's phantom shortcut;
// data sent into it is dropped.
type Wormhole struct {
	Counters Counters
	a, b     *wormholeEnd
}

type wormholeEnd struct {
	w    *Wormhole
	peer *wormholeEnd
	dev  *node.Device
}

// NewWormhole creates the two cooperating endpoint stacks.
func NewWormhole() (*Wormhole, node.Stack, node.Stack) {
	w := &Wormhole{}
	a := &wormholeEnd{w: w}
	b := &wormholeEnd{w: w}
	a.peer, b.peer = b, a
	w.a, w.b = a, b
	return w, a, b
}

// Start implements node.Stack.
func (e *wormholeEnd) Start(dev *node.Device) {
	e.dev = dev
	dev.SetPromiscuous(true)
}

// HandleMessage implements node.Stack.
func (e *wormholeEnd) HandleMessage(p *packet.Packet) {
	if e.dev == nil {
		return // not attached to a device yet
	}
	switch p.Kind {
	case packet.KindRReq, packet.KindRRes, packet.KindNotify:
		e.w.Counters.Captured++
		if e.peer.dev == nil || !e.peer.dev.Alive() {
			return
		}
		// Tunnel instantly (out-of-band link) and replay at the far end,
		// preserving the packet contents verbatim: the path now implies
		// that nodes around end A are one hop from nodes around end B.
		cp := *p
		cp.From = e.peer.dev.ID()
		if p.Kind == packet.KindRRes {
			// Deliver the tunneled response straight to its final target,
			// who is (by wormhole placement) near the far end.
			cp.To = p.Target
		}
		peer := e.peer
		e.dev.World().Kernel().After(sim.Microsecond, func() {
			if peer.dev != nil && peer.dev.Alive() && peer.dev.Send(&cp) {
				e.w.Counters.Injected++
			}
		})
	case packet.KindData:
		// Data lured into the wormhole is swallowed.
		e.w.Counters.Dropped++
	}
}

// AckSpoofer forges gateway acknowledgments: an insider that participates
// in routing (via the wrapped legitimate stack) but, instead of forwarding
// DATA, drops it and immediately fakes the gateway's ACK so the source
// believes the delivery succeeded. Plain MLR has no ACKs (the attack
// degenerates to a blackhole); SecMLR rejects the forged ACK because it
// cannot carry a valid MAC, and the source fails over.
type AckSpoofer struct {
	// Inner is the legitimate stack the attacker runs to stay on paths.
	Inner    node.Stack
	Counters Counters

	dev *node.Device
}

// Start implements node.Stack.
func (a *AckSpoofer) Start(dev *node.Device) {
	a.dev = dev
	if a.Inner != nil {
		a.Inner.Start(dev)
	}
}

// HandleMessage implements node.Stack.
func (a *AckSpoofer) HandleMessage(p *packet.Packet) {
	if a.dev == nil {
		return // not attached to a device yet
	}
	if p.Kind != packet.KindData || p.To != a.dev.ID() || p.Origin == a.dev.ID() {
		if a.Inner != nil {
			a.Inner.HandleMessage(p)
		}
		return
	}
	a.Counters.Dropped++
	// Forge an ACK from the claimed gateway straight back to the origin.
	ack := &packet.Packet{
		Kind:    packet.KindAck,
		From:    a.dev.ID(),
		To:      p.From,
		Origin:  p.Target, // spoofed gateway identity
		Target:  p.Origin,
		Seq:     p.Seq,
		TTL:     8,
		Path:    []packet.NodeID{p.Target, a.dev.ID(), p.From, p.Origin},
		Payload: []byte{0, 0, 0, 0},
		Sec:     &packet.SecEnvelope{Counter: 1, Cipher: []byte{0, 0, 0, 0}, MAC: make([]byte, 32)},
	}
	if a.dev.Send(ack) {
		a.Counters.Injected++
	}
}
