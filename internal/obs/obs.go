// Package obs is the event-tracing observability layer of the simulator: a
// typed event bus that the kernel-adjacent layers (radio medium, link ARQ,
// routing stacks, fault injector, node lifecycle, metrics) publish into, and
// a small set of pluggable sinks that consume the stream — a bounded
// ring-buffer flight recorder (Recorder), a JSONL streaming writer (JSONL),
// an unbounded in-memory capture (Capture) and a time-bucketed series
// accumulator (Series).
//
// The bus is deliberately dumb: an Event is a flat value struct (no
// interfaces, no heap indirection), Emit fans it out to every attached sink,
// and a nil *Bus is a valid, inert bus — every layer holds a possibly-nil
// bus pointer and guards its hottest emission sites with Bus.Active(), so a
// run without tracing executes exactly the same instructions and allocates
// exactly the same memory as before this package existed.
//
// Determinism: events carry virtual (sim.Kernel) timestamps and are emitted
// synchronously from kernel callbacks, so a traced run produces a
// byte-identical event stream for a given (Config, Seed) no matter how many
// RunEach workers execute sibling runs — each run must simply own its bus.
package obs

import (
	"encoding/json"
	"fmt"

	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// Kind discriminates event types. The set is fixed at compile time so sinks
// can back per-kind accumulators with arrays.
type Kind uint8

// Event kinds. The packet-lifecycle kinds (generated, link hops, delivered /
// expired) are what cmd/wmsntrace reconstructs per-packet journeys from; the
// fault and reroute kinds anchor recovery-window analysis; Sample carries
// periodically sampled gauges (queue depth, in-flight, energy) that no
// discrete event can express.
const (
	PacketGenerated Kind = iota // a data packet left its origin
	PacketDelivered             // a gateway accepted a fresh data packet
	PacketExpired               // a data packet died mid-path (Detail = reason)
	LinkTx                      // a unicast DATA frame was put on the air (per attempt)
	LinkAck                     // the sender matched a LINK-ACK for its in-flight frame
	LinkRetry                   // an ACK wait expired and the frame was retransmitted
	LinkFailure                 // the link retry budget was exhausted; hop declared dead
	QueueDrop                   // a frame was rejected by a full forwarding queue
	FrameLost                   // the radio dropped a unicast DATA copy at its addressee
	Reroute                     // a routing stack replaced or rediscovered a route
	FaultInjected               // the fault injector executed a disruptive plan event
	GatewayDeath                // a gateway died (any cause)
	NodeDeath                   // a non-gateway device died (any cause)
	NodeRecover                 // a dead device was revived
	Sample                      // periodic gauge sample (Detail = gauge name, Value = value)
	AttackInjected              // the fault injector swapped a node's stack for an adversary
	AttackDrop                  // an adversary stack swallowed a packet it should have forwarded
	AttackInject                // an adversary stack put a forged or replayed packet on the air
	numKinds
)

var kindNames = [numKinds]string{
	PacketGenerated: "packet_generated",
	PacketDelivered: "packet_delivered",
	PacketExpired:   "packet_expired",
	LinkTx:          "link_tx",
	LinkAck:         "link_ack",
	LinkRetry:       "link_retry",
	LinkFailure:     "link_failure",
	QueueDrop:       "queue_drop",
	FrameLost:       "frame_lost",
	Reroute:         "reroute",
	FaultInjected:   "fault_injected",
	GatewayDeath:    "gateway_death",
	NodeDeath:       "node_death",
	NodeRecover:     "node_recover",
	Sample:          "sample",
	AttackInjected:  "attack_injected",
	AttackDrop:      "attack_drop",
	AttackInject:    "attack_inject",
}

// String returns the stable snake_case name used in JSONL traces.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindNames lists every defined event kind name in declaration order — the
// schema of the "kind" field in JSONL traces.
func KindNames() []string {
	out := make([]string, numKinds)
	copy(out, kindNames[:])
	return out
}

// ParseKind resolves a kind name back to its value.
func ParseKind(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// MarshalJSON renders the kind as its stable name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, ok := ParseKind(s)
	if !ok {
		return fmt.Errorf("obs: unknown event kind %q", s)
	}
	*k = v
	return nil
}

// Event is one observable action, stamped with its virtual time. It is a
// flat value: emitting one allocates nothing, and the JSON field order is
// the declaration order, so serialized traces of identical runs compare
// byte-identical.
//
// Field use by kind:
//
//	PacketGenerated   Node = origin
//	PacketDelivered   Node = accepting gateway, Value = hop count
//	PacketExpired     Node = dropping node, Detail = reason, Value = count for batch drops
//	LinkTx            Node = transmitter, Peer = next hop, Value = frame TTL
//	LinkAck           Node = sender, Peer = acking hop
//	LinkRetry         Node = sender, Peer = unresponsive hop, Value = attempt number
//	LinkFailure       Node = sender, Peer = dead hop
//	QueueDrop         Node = dropping node, Peer = intended next hop
//	FrameLost         Node = addressee that lost the copy, Peer = transmitter, Detail = loss|collision
//	Reroute           Node = rerouting node, Peer = new gateway / dead hop, Detail = mechanism, Value = failover µs
//	FaultInjected     Node = target device, Detail = plan-event label
//	GatewayDeath      Node = gateway, Detail = cause
//	NodeDeath         Node = device, Detail = cause
//	NodeRecover       Node = device
//	Sample            Detail = gauge name, Value = gauge value
//	AttackInjected    Node = compromised device, Detail = attack kind
//	AttackDrop        Node = attacker, Origin/Seq = swallowed packet, Detail = attack kind
//	AttackInject      Node = attacker, Origin/Seq = carried packet, Detail = attack kind
type Event struct {
	At     sim.Time      `json:"at"`
	Kind   Kind          `json:"kind"`
	Node   packet.NodeID `json:"node"`
	Peer   packet.NodeID `json:"peer,omitempty"`
	Origin packet.NodeID `json:"origin,omitempty"`
	Seq    uint32        `json:"seq,omitempty"`
	Value  int64         `json:"val,omitempty"`
	Detail string        `json:"detail,omitempty"`
}

// String renders a compact one-line form for logs and recorder dumps.
func (ev Event) String() string {
	s := fmt.Sprintf("%s %-16s %s", ev.At, ev.Kind, ev.Node)
	if ev.Peer != 0 {
		s += fmt.Sprintf(" peer=%s", ev.Peer)
	}
	if ev.Origin != 0 {
		s += fmt.Sprintf(" pkt=%s:%d", ev.Origin, ev.Seq)
	}
	if ev.Value != 0 {
		s += fmt.Sprintf(" val=%d", ev.Value)
	}
	if ev.Detail != "" {
		s += " " + ev.Detail
	}
	return s
}

// Sink consumes events. Implementations may assume single-goroutine use —
// the simulation kernel is sequential — and must be cheap: Observe sits on
// the per-frame hot path of traced runs.
type Sink interface {
	Observe(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Observe implements Sink.
func (f SinkFunc) Observe(ev Event) { f(ev) }

// Bus fans emitted events out to its sinks. The zero value and the nil
// pointer are both valid, inert buses; Emit on them is a no-op. A Bus must
// be exclusive to one simulation run — sharing one across RunEach workers
// would interleave streams nondeterministically.
type Bus struct {
	// Sample asks the scenario layer to schedule a periodic kernel sampler
	// emitting gauge events (in-flight packets, ARQ queue depth, mean sensor
	// energy) every Sample of virtual time. 0 disables sampling. The sampler
	// only reads simulation state, so enabling it never perturbs results.
	Sample sim.Duration

	sinks []Sink
}

// NewBus returns a bus with the given sinks attached.
func NewBus(sinks ...Sink) *Bus {
	b := &Bus{}
	for _, s := range sinks {
		b.Attach(s)
	}
	return b
}

// Attach adds a sink. Nil sinks are ignored.
func (b *Bus) Attach(s Sink) {
	if s != nil {
		b.sinks = append(b.sinks, s)
	}
}

// Active reports whether emitting would reach any sink. Hot emission sites
// call this before constructing their Event so a run without tracing pays
// one predictable branch and nothing else.
func (b *Bus) Active() bool { return b != nil && len(b.sinks) > 0 }

// Emit fans ev out to every sink. Safe on a nil bus.
func (b *Bus) Emit(ev Event) {
	if b == nil {
		return
	}
	for _, s := range b.sinks {
		s.Observe(ev)
	}
}

// Capture is the unbounded in-memory sink: it appends every event. The
// experiment harness uses one per run and serializes them in submission
// order, which keeps multi-run trace output byte-identical at any worker
// count.
type Capture struct {
	Events []Event
}

// Observe implements Sink.
func (c *Capture) Observe(ev Event) { c.Events = append(c.Events, ev) }
