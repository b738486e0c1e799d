// Package core implements the paper's routing protocols for multi-gateway
// wireless mesh sensor networks:
//
//   - SPR (Shortest Path Routing, §5.2): on-demand discovery of the
//     minimum-hop path from a sensor to the best of the m gateways, with
//     route caching along established paths (Property 1).
//   - MLR (Maximal network Lifetime Routing, §5.3): round-based gateway
//     mobility over a set of feasible places, with *incremental* routing
//     tables that accumulate one entry per place and are never rebuilt.
//   - SecMLR (§6.2): MLR hardened with pairwise-key encryption, MACs,
//     freshness counters, µTESLA-authenticated movement broadcasts and
//     multi-route fault tolerance.
//
// Each protocol is a pair of node.Stack implementations (sensor side and
// gateway side) built on one shared routing machine (stack.go), plus
// shared plumbing in this file: protocol parameters, routing-table types
// and the metrics sink every experiment reads.
package core

import (
	"fmt"

	"wmsn/internal/metrics"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// Params tunes protocol timing and limits. The zero value is unusable; use
// DefaultParams.
type Params struct {
	// TTL is the initial hop budget for flooded packets.
	TTL uint8
	// GatewayWait is how long a SecMLR gateway collects alternative RREQ
	// paths before answering (§6.2.2 "waits a given timeout to collect
	// multiple path information").
	GatewayWait sim.Duration
	// Retries is how many times a route discovery is reissued before the
	// queued data is dropped.
	Retries int
	// QueueLimit bounds payloads buffered while discovery is in flight.
	QueueLimit int
	// AckWait is how long a SecMLR source waits for the gateway's ACK
	// before failing over to its next-best route.
	AckWait sim.Duration
	// NoShortcutAnswers disables the Property-1 optimization (cached-route
	// nodes answering RREQs, SPR/MLR step 3.1) so every query is answered
	// by a real gateway. Ablation knob.
	NoShortcutAnswers bool
	// OverloadThreshold, when positive, makes an MLR gateway flood an
	// overload notification after absorbing that many data packets in one
	// round; sensors with alternatives then redirect (§4.3 load balance).
	// 0 disables load shedding.
	OverloadThreshold uint64
	// OverloadClear is how long sensors avoid an overloaded place;
	// 0 selects 60 s.
	OverloadClear sim.Duration
	// FloodJitter, when positive, delays every flood rebroadcast by a
	// uniform random time in [0, FloodJitter). On collision-prone media
	// this de-synchronizes the broadcast storm; with it at 0 (default) a
	// flood wavefront expands deterministically, which keeps plain
	// SPR/MLR's first-copy-answered discovery BFS-optimal on clean media.
	FloodJitter sim.Duration
	// AdvertInterval, when positive, makes SPR/MLR gateways flood a
	// lightweight liveness advertisement every interval, and sensors expire
	// routes through gateways that fall silent, failing over to the
	// next-best live route (or rediscovering). 0 (the default) disables the
	// mechanism entirely, leaving unfaulted runs byte-identical; the
	// scenario layer turns it on automatically when a fault plan is
	// attached. SecMLR ignores it — its ACK-driven failover already covers
	// gateway loss.
	AdvertInterval sim.Duration
	// LinkRetries, when positive, enables hop-by-hop link-layer ARQ on
	// every device running this protocol: unicast DATA frames are
	// acknowledged per hop and retransmitted up to LinkRetries times with
	// exponential backoff before the hop is declared dead and the routing
	// layer reroutes. 0 (the default) keeps the data path fire-and-forget
	// and byte-identical to previous revisions.
	LinkRetries int
	// LinkAckWait is the base link-ACK timeout (first attempt); each retry
	// doubles it. Only read when LinkRetries > 0.
	LinkAckWait sim.Duration
	// ForwardQueueLimit bounds the per-node link-layer forwarding queue
	// under ARQ; frames beyond it are dropped and counted as QueueDrops.
	// 0 selects node.DefaultForwardQueueLimit.
	ForwardQueueLimit int
}

// DefaultParams returns sensible defaults for the simulated radios.
func DefaultParams() Params {
	return Params{
		TTL:         32,
		GatewayWait: 60 * sim.Millisecond,
		Retries:     2,
		QueueLimit:  64,
		AckWait:     500 * sim.Millisecond,
		LinkAckWait: 10 * sim.Millisecond, // inert while LinkRetries == 0
	}
}

// enableARQ arms the device's hop-by-hop link ARQ when the parameters ask
// for it; every core stack calls this from Start so sender and receiver
// sides of each hop agree on whether DATA frames are acknowledged.
func enableARQ(dev *node.Device, p Params, m metrics.Sink) {
	if p.LinkRetries <= 0 {
		return
	}
	dev.EnableLinkARQ(node.ARQConfig{
		Retries:    p.LinkRetries,
		AckWait:    p.LinkAckWait,
		QueueLimit: p.ForwardQueueLimit,
		Metrics:    m,
	})
}

// Route is one routing-table entry: the full minimum-hop path from this node
// to a gateway (storing the path, not just the next hop, lets a node answer
// other nodes' RREQs per SPR step 3.1 and exploits Property 1).
type Route struct {
	Gateway packet.NodeID
	Place   int // MLR feasible-place index; -1 under plain SPR
	Hops    int
	Path    []packet.NodeID // self ... gateway, inclusive
}

// NextHop returns the first hop of the route (self when degenerate).
func (r Route) NextHop() packet.NodeID {
	if len(r.Path) >= 2 {
		return r.Path[1]
	}
	if len(r.Path) == 1 {
		return r.Path[0]
	}
	return packet.None
}

// String renders the entry like the paper's Table 1 rows.
func (r Route) String() string {
	return fmt.Sprintf("place=%d gw=%v hops=%d route=%s", r.Place, r.Gateway, r.Hops, packet.PathString(r.Path))
}

// shortcutPath builds the path of a Property 1 shortcut answer (SPR/MLR
// step 3.1): the flood prefix, then this node, then its cached route
// (which starts at this node) past its first hop, with loops erased. The
// result is one fresh allocation.
func shortcutPath(prefix []packet.NodeID, self packet.NodeID, route []packet.NodeID) []packet.NodeID {
	full := make([]packet.NodeID, 0, len(prefix)+len(route))
	full = append(full, prefix...)
	full = append(full, self)
	full = append(full, route[1:]...)
	return compressPath(full)
}

// compressPath removes cycles from a route by loop erasure: scanning left
// to right, revisiting a node splices out the detour between its two
// occurrences. Combined paths (a flood prefix joined to a cached suffix,
// SPR/MLR step 3.1) can revisit nodes; forwarding such a path would
// ping-pong between the duplicates until the TTL expires. Every spliced
// edge was traversed by the original walk, so the result is a valid,
// shorter route. It works in place and returns the rewritten prefix of
// path; the output is short and loop-free, so a linear scan finds the
// earlier visit.
func compressPath(path []packet.NodeID) []packet.NodeID {
	out := path[:0]
	for _, id := range path {
		if i := indexOf(out, id); i >= 0 {
			out = out[:i+1]
			continue
		}
		out = append(out, id)
	}
	return out
}

// Metrics is the shared in-memory telemetry sink every experiment reads.
// It is an alias for metrics.Memory: protocol stacks report through the
// metrics.Sink interface, and this name is kept so harness and test code
// that reads core.Metrics fields keeps compiling unchanged.
type Metrics = metrics.Memory

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics {
	return metrics.New()
}
