package obs

import (
	"fmt"
	"sort"

	"wmsn/internal/packet"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

// Replay: analysis over a recorded event stream. Everything here operates on
// a plain []Event — live capture or ReadJSONL output — so cmd/wmsntrace can
// answer per-packet lifecycle queries, drop breakdowns and time-series
// questions from a trace file alone, without re-running the simulation.

// PacketKey is the end-to-end identity of a data packet.
type PacketKey struct {
	Origin packet.NodeID
	Seq    uint32
}

// String renders the identity in the "origin:seq" form the wmsntrace
// -packet flag accepts.
func (k PacketKey) String() string { return fmt.Sprintf("%s:%d", k.Origin, k.Seq) }

// Hop is one link-layer leg of a packet's journey, reconstructed from
// LinkTx/LinkRetry/LinkAck/LinkFailure events.
type Hop struct {
	From, To packet.NodeID
	Start    sim.Time // first transmission attempt
	End      sim.Time // LINK-ACK matched / hop declared dead (0 if neither)
	Retries  int      // retransmissions beyond the first attempt
	Acked    bool     // the next hop acknowledged receipt
	Failed   bool     // the retry budget was exhausted
}

// Latency returns the hop's link latency (first attempt to ACK), or -1 when
// the hop was never acknowledged (fire-and-forget runs or dead hops).
func (h Hop) Latency() sim.Duration {
	if !h.Acked {
		return -1
	}
	return h.End - h.Start
}

// Life is the reconstructed lifecycle of one data packet.
type Life struct {
	Key         PacketKey
	Generated   sim.Time
	HasGen      bool // the trace contains the PacketGenerated event
	Delivered   bool
	DeliveredAt sim.Time
	Gateway     packet.NodeID // accepting gateway when delivered
	HopCount    int64         // hop count reported at delivery
	Hops        []Hop
	Events      []Event // every event of this packet, in stream order
}

// Status summarizes the packet's fate for listings.
func (l *Life) Status() string {
	switch {
	case l.Delivered:
		return "delivered"
	case len(l.Events) == 0:
		return "unknown"
	default:
		for i := len(l.Events) - 1; i >= 0; i-- {
			if l.Events[i].Kind == PacketExpired {
				return "expired:" + l.Events[i].Detail
			}
		}
		return "in-flight"
	}
}

// PathString renders the hop sequence like "n7->n4->n1000000".
func (l *Life) PathString() string {
	if len(l.Hops) == 0 {
		return "-"
	}
	s := l.Hops[0].From.String()
	for _, h := range l.Hops {
		s += "->" + h.To.String()
	}
	return s
}

// Lifecycle reconstructs the journey of one packet from the stream. Hops are
// grouped by (sender, receiver, frame TTL): link-layer retransmissions
// resend the same frame, TTL included, while a frame that legitimately
// revisits a link (routing loop, rerouted resend) carries a different TTL
// and opens a fresh hop — the same disambiguation the ARQ receiver uses.
func Lifecycle(events []Event, key PacketKey) *Life {
	l := &Life{Key: key}
	openHop := func(node, peer packet.NodeID) *Hop {
		for i := len(l.Hops) - 1; i >= 0; i-- {
			h := &l.Hops[i]
			if h.From == node && h.To == peer && !h.Acked && !h.Failed {
				return h
			}
		}
		return nil
	}
	lastTTL := make(map[[2]packet.NodeID]int64)
	for _, ev := range events {
		if ev.Origin != key.Origin || ev.Seq != key.Seq {
			continue
		}
		l.Events = append(l.Events, ev)
		switch ev.Kind {
		case PacketGenerated:
			l.Generated, l.HasGen = ev.At, true
		case PacketDelivered:
			l.Delivered, l.DeliveredAt, l.Gateway, l.HopCount = true, ev.At, ev.Node, ev.Value
		case LinkTx:
			link := [2]packet.NodeID{ev.Node, ev.Peer}
			if h := openHop(ev.Node, ev.Peer); h != nil && lastTTL[link] == ev.Value {
				break // retransmission of the open hop; counted via LinkRetry
			}
			lastTTL[link] = ev.Value
			l.Hops = append(l.Hops, Hop{From: ev.Node, To: ev.Peer, Start: ev.At})
		case LinkRetry:
			if h := openHop(ev.Node, ev.Peer); h != nil {
				h.Retries++
			}
		case LinkAck:
			if h := openHop(ev.Node, ev.Peer); h != nil {
				h.End, h.Acked = ev.At, true
			}
		case LinkFailure:
			if h := openHop(ev.Node, ev.Peer); h != nil {
				h.End, h.Failed = ev.At, true
			}
		}
	}
	return l
}

// Table renders the packet's journey: the hop table with per-hop latency and
// retry counts, followed by every raw event as footnote-level rows.
func (l *Life) Table() *trace.Table {
	t := trace.NewTable(fmt.Sprintf("packet %s lifecycle", l.Key),
		"hop", "from", "to", "sent", "resolved", "latency_ms", "retries", "outcome")
	for i, h := range l.Hops {
		lat, res, outcome := "-", "-", "sent"
		if h.Acked {
			lat = fmt.Sprintf("%.3f", (h.End - h.Start).Millis())
			res = h.End.String()
			outcome = "acked"
		} else if h.Failed {
			res = h.End.String()
			outcome = "link-failure"
		}
		t.AddRow(i+1, h.From, h.To, h.Start, res, lat, h.Retries, outcome)
	}
	if l.HasGen {
		t.AddNote("generated at %s by %s", l.Generated, l.Key.Origin)
	}
	switch {
	case l.Delivered && l.HasGen:
		t.AddNote("delivered at %s to %s after %d hops (end-to-end %.3f ms, path %s)",
			l.DeliveredAt, l.Gateway, l.HopCount, (l.DeliveredAt - l.Generated).Millis(), l.PathString())
	case l.Delivered:
		t.AddNote("delivered at %s to %s after %d hops (path %s)",
			l.DeliveredAt, l.Gateway, l.HopCount, l.PathString())
	default:
		t.AddNote("fate: %s", l.Status())
	}
	return t
}

// Packets lists every packet identity present in the stream, ordered by
// origin then sequence number, with its reconstructed fate.
func Packets(events []Event) []*Life {
	keys := make(map[PacketKey]bool)
	for _, ev := range events {
		if ev.Origin != 0 {
			keys[PacketKey{ev.Origin, ev.Seq}] = true
		}
	}
	ordered := make([]PacketKey, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Origin != ordered[j].Origin {
			return ordered[i].Origin < ordered[j].Origin
		}
		return ordered[i].Seq < ordered[j].Seq
	})
	lives := make([]*Life, len(ordered))
	for i, k := range ordered {
		lives[i] = Lifecycle(events, k)
	}
	return lives
}

// DropTable breaks down every loss-flavored event by kind and reason.
func DropTable(events []Event) *trace.Table {
	type dropKey struct {
		kind   Kind
		detail string
	}
	counts := make(map[dropKey]uint64)
	for _, ev := range events {
		switch ev.Kind {
		case PacketExpired:
			n := uint64(1)
			if ev.Value > 1 {
				n = uint64(ev.Value)
			}
			counts[dropKey{ev.Kind, ev.Detail}] += n
		case QueueDrop, FrameLost, LinkFailure, AttackDrop:
			// AttackDrop gets its own rows (keyed by attack kind via Detail)
			// so attacker-swallowed packets are never mistaken for radio loss.
			counts[dropKey{ev.Kind, ev.Detail}]++
		}
	}
	keys := make([]dropKey, 0, len(counts))
	var total uint64
	for k, n := range counts {
		keys = append(keys, k)
		total += n
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].detail < keys[j].detail
	})
	t := trace.NewTable("drop breakdown", "kind", "reason", "count", "share")
	for _, k := range keys {
		reason := k.detail
		if reason == "" {
			reason = "-"
		}
		t.AddRow(k.kind, reason, counts[k], trace.Ratio(counts[k], total))
	}
	if total == 0 {
		t.AddNote("no drops in trace")
	}
	return t
}

// SummaryTable renders stream-wide totals per event kind plus the trace's
// virtual-time span.
func SummaryTable(events []Event) *trace.Table {
	var counts [numKinds]uint64
	var first, last sim.Time
	for i, ev := range events {
		if ev.Kind < numKinds {
			counts[ev.Kind]++
		}
		if i == 0 || ev.At < first {
			first = ev.At
		}
		if ev.At > last {
			last = ev.At
		}
	}
	t := trace.NewTable("trace summary", "event", "count")
	for k := Kind(0); k < numKinds; k++ {
		if counts[k] > 0 {
			t.AddRow(k, counts[k])
		}
	}
	t.AddNote("%d events spanning %s .. %s", len(events), first, last)
	return t
}

// Reroutes returns the reroute, fault and death events of the stream in
// order — the anchors for recovery-window analysis.
func Reroutes(events []Event) []Event {
	var out []Event
	for _, ev := range events {
		switch ev.Kind {
		case Reroute, FaultInjected, AttackInjected, GatewayDeath, NodeDeath, NodeRecover:
			out = append(out, ev)
		}
	}
	return out
}

// ReplaySeries folds a recorded stream into a fresh Series sink, exactly as
// a live run with the same bucket width would have.
func ReplaySeries(events []Event, bucket sim.Duration) *Series {
	s := NewSeries(bucket)
	for _, ev := range events {
		s.Observe(ev)
	}
	return s
}
