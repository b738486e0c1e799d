// Package metrics is the observability layer shared by every protocol stack
// in the simulator. It splits telemetry into a small Sink interface — the
// packet-lifecycle events and named counters a protocol reports while
// running — and Memory, the default in-memory implementation whose derived
// statistics (delivery ratio, hop/latency distributions, per-gateway load)
// the experiment harness reads after a run.
//
// Protocol code (internal/core, internal/baseline, internal/radio) holds a
// Sink and never sees the concrete aggregation; the scenario layer owns one
// Memory per run, and per-run Memory values merge deterministically (in
// submission order) into an Aggregate, which serializes as a Snapshot for
// structured export (wmsnbench -metrics-json).
package metrics

import (
	"fmt"

	"wmsn/internal/obs"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// Counter names one monotonically increasing protocol event stream. The set
// is fixed at compile time so Memory can back every counter with a plain
// uint64 field (hot-path increments stay a single add, no map lookups).
type Counter uint8

const (
	DroppedNoRoute     Counter = iota // originations abandoned after failed discovery
	DroppedQueue                      // originations rejected by a full queue
	RReqSent                          // RREQ transmissions (incl. rebroadcasts)
	RResSent                          // RRES transmissions (incl. forwards)
	NotifySent                        // gateway movement notifications
	AckSent                           // SecMLR acknowledgments
	DataSent                          // data transmissions (incl. forwards)
	Failovers                         // SecMLR route failovers after missing ACKs
	AbandonedData                     // SecMLR data given up after exhausting routes
	RejectedMAC                       // packets dropped for bad MACs
	RejectedReplay                    // packets dropped for stale counters
	ForwardNoEntry                    // data dropped mid-path: no table entry
	ForwardTTLExpired                 // data dropped mid-path: TTL exhausted
	ForwardSelfLoop                   // data dropped mid-path: malformed path
	RadioTransmissions                // frames put on the air
	RadioDeliveries                   // frame receptions delivered to a stack
	RadioLost                         // frame receptions killed by random loss
	RadioCollided                     // frame receptions killed by collision
	RadioBytesOnAir                   // payload bytes transmitted
	RadioBackoffs                     // CSMA backoff events
	RadioDropped                      // frames abandoned after too many backoffs
	FaultsInjected                    // discrete fault-plan events executed
	Reroutes                          // routes invalidated and replaced after a fault
	FailoverLatencyUs                 // cumulative µs between losing a route and replacing it
	AdvertSent                        // gateway liveness advertisements transmitted
	LinkTxQueued                      // frames accepted into a forwarding queue (ARQ)
	LinkAcked                         // frames confirmed by a link-layer ACK
	LinkAckSent                       // link-layer ACK frames transmitted
	LinkRetries                       // link-layer retransmissions after an ACK timeout
	LinkFailures                      // frames abandoned after exhausting the retry budget
	LinkFlushed                       // queued frames discarded when their node died
	QueueDrops                        // frames rejected by a full forwarding queue (backpressure)
	CompromisedNodes                  // nodes whose stack the fault injector swapped for an adversary
	AttackerDropped                   // packets swallowed by adversary stacks
	AttackerInjected                  // packets forged or replayed onto the air by adversary stacks
	numCounters
)

var counterNames = [numCounters]string{
	DroppedNoRoute:     "dropped_no_route",
	DroppedQueue:       "dropped_queue",
	RReqSent:           "rreq_sent",
	RResSent:           "rres_sent",
	NotifySent:         "notify_sent",
	AckSent:            "ack_sent",
	DataSent:           "data_sent",
	Failovers:          "failovers",
	AbandonedData:      "abandoned_data",
	RejectedMAC:        "rejected_mac",
	RejectedReplay:     "rejected_replay",
	ForwardNoEntry:     "forward_no_entry",
	ForwardTTLExpired:  "forward_ttl_expired",
	ForwardSelfLoop:    "forward_self_loop",
	RadioTransmissions: "radio_transmissions",
	RadioDeliveries:    "radio_deliveries",
	RadioLost:          "radio_lost",
	RadioCollided:      "radio_collided",
	RadioBytesOnAir:    "radio_bytes_on_air",
	RadioBackoffs:      "radio_backoffs",
	RadioDropped:       "radio_dropped",
	FaultsInjected:     "faults_injected",
	Reroutes:           "reroutes",
	FailoverLatencyUs:  "failover_latency_us",
	AdvertSent:         "advert_sent",
	LinkTxQueued:       "link_tx_queued",
	LinkAcked:          "link_acked",
	LinkAckSent:        "link_ack_sent",
	LinkRetries:        "link_retries",
	LinkFailures:       "link_failures",
	LinkFlushed:        "link_flushed",
	QueueDrops:         "queue_drops",
	CompromisedNodes:   "compromised_nodes",
	AttackerDropped:    "attacker_dropped",
	AttackerInjected:   "attacker_injected",
}

// String returns the stable snake_case name used in Snapshot JSON.
func (c Counter) String() string {
	if c < numCounters {
		return counterNames[c]
	}
	return "unknown_counter"
}

// Sink receives telemetry from running protocol stacks. All implementations
// may assume single-goroutine use: the simulation kernel is sequential, so
// sinks need no locking. Methods must be cheap — they sit on the per-packet
// hot path.
type Sink interface {
	// RecordGenerated notes a data packet leaving its origin.
	RecordGenerated(origin packet.NodeID, seq uint32, now sim.Time)
	// RecordDelivered notes a data packet accepted by gateway gw after the
	// given hop count. Duplicate (origin, seq) deliveries must be counted
	// as duplicates, not as fresh deliveries.
	RecordDelivered(origin packet.NodeID, seq uint32, gw packet.NodeID, hops int, now sim.Time)
	// Inc adds one to a named counter.
	Inc(c Counter)
	// Add adds n to a named counter.
	Add(c Counter, n uint64)
	// Observe records one sample into a named histogram (histogram.go).
	Observe(h HistID, v uint64)
}

// floodKey identifies a data packet per (origin, sequence).
type floodKey struct {
	origin packet.NodeID
	seq    uint32
}

type pendingData struct {
	at sim.Time
}

// Memory is the default Sink: it aggregates everything in memory and exposes
// the derived statistics the experiment tables are built from. One Memory is
// shared by every stack in a scenario run. The counter fields stay exported
// so harness and test code can read totals directly; protocol code writes
// them only through Inc/Add.
type Memory struct {
	Generated  uint64 // data packets originated by sensors
	Delivered  uint64 // data packets accepted at a gateway
	Duplicates uint64 // data packets delivered more than once

	DroppedNoRoute uint64 // originations abandoned after failed discovery
	DroppedQueue   uint64 // originations rejected by a full queue

	RReqSent      uint64 // RREQ transmissions (incl. rebroadcasts)
	RResSent      uint64 // RRES transmissions (incl. forwards)
	NotifySent    uint64 // gateway movement notifications
	AckSent       uint64 // SecMLR acknowledgments
	DataSent      uint64 // data transmissions (incl. forwards)
	Failovers     uint64 // SecMLR route failovers after missing ACKs
	AbandonedData uint64 // SecMLR data given up after exhausting routes

	RejectedMAC    uint64 // packets dropped for bad MACs
	RejectedReplay uint64 // packets dropped for stale counters

	ForwardNoEntry    uint64 // data dropped mid-path: no table entry
	ForwardTTLExpired uint64 // data dropped mid-path: TTL exhausted
	ForwardSelfLoop   uint64 // data dropped mid-path: malformed path

	RadioTransmissions uint64 // frames put on the air
	RadioDeliveries    uint64 // frame receptions delivered to a stack
	RadioLost          uint64 // frame receptions killed by random loss
	RadioCollided      uint64 // frame receptions killed by collision
	RadioBytesOnAir    uint64 // payload bytes transmitted
	RadioBackoffs      uint64 // CSMA backoff events
	RadioDropped       uint64 // frames abandoned after too many backoffs

	FaultsInjected    uint64 // discrete fault-plan events executed
	Reroutes          uint64 // routes invalidated and replaced after a fault
	FailoverLatencyUs uint64 // cumulative µs between losing a route and replacing it
	AdvertSent        uint64 // gateway liveness advertisements transmitted

	LinkTxQueued uint64 // frames accepted into a forwarding queue (ARQ)
	LinkAcked    uint64 // frames confirmed by a link-layer ACK
	LinkAckSent  uint64 // link-layer ACK frames transmitted
	LinkRetries  uint64 // link-layer retransmissions after an ACK timeout
	LinkFailures uint64 // frames abandoned after exhausting the retry budget
	LinkFlushed  uint64 // queued frames discarded when their node died
	QueueDrops   uint64 // frames rejected by a full forwarding queue (backpressure)

	CompromisedNodes uint64 // nodes whose stack the fault injector swapped for an adversary
	AttackerDropped  uint64 // packets swallowed by adversary stacks
	AttackerInjected uint64 // packets forged or replayed onto the air by adversary stacks

	pending    map[floodKey]pendingData
	hopsSum    uint64         // exact hop-count sum over fresh deliveries
	hopsN      uint64         // fresh deliveries contributing to hopsSum
	hists      [numHists]Hist // fixed-memory mergeable distributions
	perGateway map[packet.NodeID]uint64
	delivered  map[floodKey]struct{}
	obs        *obs.Bus
	progress   *sim.Progress // optional live watermark (delivery count)
}

var _ Sink = (*Memory)(nil)

// New returns an empty in-memory sink.
func New() *Memory {
	return &Memory{
		pending:    make(map[floodKey]pendingData),
		perGateway: make(map[packet.NodeID]uint64),
		delivered:  make(map[floodKey]struct{}),
	}
}

// counterPtr maps a Counter to its backing field.
func (m *Memory) counterPtr(c Counter) *uint64 {
	switch c {
	case DroppedNoRoute:
		return &m.DroppedNoRoute
	case DroppedQueue:
		return &m.DroppedQueue
	case RReqSent:
		return &m.RReqSent
	case RResSent:
		return &m.RResSent
	case NotifySent:
		return &m.NotifySent
	case AckSent:
		return &m.AckSent
	case DataSent:
		return &m.DataSent
	case Failovers:
		return &m.Failovers
	case AbandonedData:
		return &m.AbandonedData
	case RejectedMAC:
		return &m.RejectedMAC
	case RejectedReplay:
		return &m.RejectedReplay
	case ForwardNoEntry:
		return &m.ForwardNoEntry
	case ForwardTTLExpired:
		return &m.ForwardTTLExpired
	case ForwardSelfLoop:
		return &m.ForwardSelfLoop
	case RadioTransmissions:
		return &m.RadioTransmissions
	case RadioDeliveries:
		return &m.RadioDeliveries
	case RadioLost:
		return &m.RadioLost
	case RadioCollided:
		return &m.RadioCollided
	case RadioBytesOnAir:
		return &m.RadioBytesOnAir
	case RadioBackoffs:
		return &m.RadioBackoffs
	case RadioDropped:
		return &m.RadioDropped
	case FaultsInjected:
		return &m.FaultsInjected
	case Reroutes:
		return &m.Reroutes
	case FailoverLatencyUs:
		return &m.FailoverLatencyUs
	case AdvertSent:
		return &m.AdvertSent
	case LinkTxQueued:
		return &m.LinkTxQueued
	case LinkAcked:
		return &m.LinkAcked
	case LinkAckSent:
		return &m.LinkAckSent
	case LinkRetries:
		return &m.LinkRetries
	case LinkFailures:
		return &m.LinkFailures
	case LinkFlushed:
		return &m.LinkFlushed
	case QueueDrops:
		return &m.QueueDrops
	case CompromisedNodes:
		return &m.CompromisedNodes
	case AttackerDropped:
		return &m.AttackerDropped
	case AttackerInjected:
		return &m.AttackerInjected
	}
	return nil
}

// Inc adds one to a named counter. Unknown counters are ignored.
func (m *Memory) Inc(c Counter) {
	if p := m.counterPtr(c); p != nil {
		*p++
	}
}

// Add adds n to a named counter. Unknown counters are ignored.
func (m *Memory) Add(c Counter, n uint64) {
	if p := m.counterPtr(c); p != nil {
		*p += n
	}
}

// Observe records one sample into a named histogram. Unknown IDs are
// ignored. Like Inc/Add this sits on the hot path: a bucket increment and a
// handful of integer compares, no allocation.
func (m *Memory) Observe(h HistID, v uint64) {
	if h >= numHists {
		return
	}
	m.hists[h].Observe(v)
}

// Hist returns the named histogram for reading (percentiles, snapshot).
// Callers must not Observe through the returned pointer; use Observe.
func (m *Memory) Hist(h HistID) *Hist {
	if h >= numHists {
		h = 0
	}
	return &m.hists[h]
}

// SetProgress attaches a live progress watermark: every fresh delivery bumps
// its delivery counter (atomically, so a poller may read mid-run).
func (m *Memory) SetProgress(p *sim.Progress) { m.progress = p }

// Count returns the current value of a named counter (0 when unknown).
func (m *Memory) Count(c Counter) uint64 {
	if p := m.counterPtr(c); p != nil {
		return *p
	}
	return 0
}

// SetObserver attaches an observability bus: every RecordGenerated and
// fresh RecordDelivered is mirrored as a PacketGenerated / PacketDelivered
// event. Hooking the bus here, at the single choke point every protocol
// stack already reports through, traces end-to-end packet fates without a
// per-stack emission site.
func (m *Memory) SetObserver(b *obs.Bus) { m.obs = b }

// RecordGenerated notes a data packet leaving its origin.
func (m *Memory) RecordGenerated(origin packet.NodeID, seq uint32, now sim.Time) {
	m.Generated++
	m.pending[floodKey{origin, seq}] = pendingData{at: now}
	if m.obs.Active() {
		m.obs.Emit(obs.Event{At: now, Kind: obs.PacketGenerated, Node: origin, Origin: origin, Seq: seq})
	}
}

// RecordDelivered notes a data packet accepted by gateway gw.
func (m *Memory) RecordDelivered(origin packet.NodeID, seq uint32, gw packet.NodeID, hops int, now sim.Time) {
	k := floodKey{origin, seq}
	if _, dup := m.delivered[k]; dup {
		m.Duplicates++
		return
	}
	m.delivered[k] = struct{}{}
	m.Delivered++
	m.perGateway[gw]++
	m.hopsSum += uint64(hops)
	m.hopsN++
	if p, ok := m.pending[k]; ok {
		m.hists[HistDeliveryLatencyUs].Observe(uint64(now - p.at))
		delete(m.pending, k)
	}
	m.progress.AddDeliveries(1)
	if m.obs.Active() {
		m.obs.Emit(obs.Event{At: now, Kind: obs.PacketDelivered, Node: gw, Origin: origin, Seq: seq, Value: int64(hops)})
	}
}

// PendingCount returns how many generated packets have not (yet) been
// delivered — the observability sampler's "in flight" gauge. O(1), no
// allocation.
func (m *Memory) PendingCount() int {
	return len(m.pending)
}

// Undelivered lists (origin, seq) pairs generated but never delivered, in
// unspecified order — post-mortem debugging and loss analysis.
func (m *Memory) Undelivered() [][2]uint64 {
	out := make([][2]uint64, 0, len(m.pending))
	for k := range m.pending {
		out = append(out, [2]uint64{uint64(k.origin), uint64(k.seq)})
	}
	return out
}

// DeliveryRatio returns Delivered/Generated (1 when nothing was generated).
func (m *Memory) DeliveryRatio() float64 {
	if m.Generated == 0 {
		return 1
	}
	return float64(m.Delivered) / float64(m.Generated)
}

// MeanHops returns the average hop count over delivered data.
func (m *Memory) MeanHops() float64 {
	if m.hopsN == 0 {
		return 0
	}
	return float64(m.hopsSum) / float64(m.hopsN)
}

// MeanLatency returns the average origination-to-delivery latency. The
// delivery histogram carries the exact sum and count, so the mean is exact.
func (m *Memory) MeanLatency() sim.Duration {
	h := &m.hists[HistDeliveryLatencyUs]
	if h.count == 0 {
		return 0
	}
	return sim.Duration(h.sum / h.count)
}

// LatencyPercentile returns the p-th percentile latency from the delivery
// histogram: p is clamped to [0, 100], p <= 0 (and NaN) return the minimum
// sample and p >= 100 the maximum, both exact; other ranks are exact to
// within the histogram's 12.5% bucket width (see Hist.Percentile). The zero
// duration is returned when nothing has been delivered. Per-run and merged
// metrics answer the same way.
func (m *Memory) LatencyPercentile(p float64) sim.Duration {
	return sim.Duration(m.hists[HistDeliveryLatencyUs].Percentile(p))
}

// DeliveredFrom returns how many distinct packets claiming the given origin
// were accepted by gateways — the forged-data-accepted metric of the Sybil
// experiment.
func (m *Memory) DeliveredFrom(origin packet.NodeID) uint64 {
	var n uint64
	for k := range m.delivered {
		if k.origin == origin {
			n++
		}
	}
	return n
}

// PerGateway returns deliveries per gateway ID (load-balance metric, E8).
func (m *Memory) PerGateway() map[packet.NodeID]uint64 {
	out := make(map[packet.NodeID]uint64, len(m.perGateway))
	for k, v := range m.perGateway {
		out[k] = v
	}
	return out
}

// GatewayLoadImbalance returns max/mean deliveries across gateways
// (1 = perfectly balanced; 0 when no gateway delivered anything).
func (m *Memory) GatewayLoadImbalance() float64 {
	if len(m.perGateway) == 0 {
		return 0
	}
	var max, total uint64
	for _, v := range m.perGateway {
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(m.perGateway))
	return float64(max) / mean
}

// CheckLinkConservation verifies the ARQ ledger: every frame accepted into a
// forwarding queue (LinkTxQueued) must be accounted for exactly once — acked,
// declared failed after exhausting retries, flushed by its node's death, or
// still sitting in a queue (inFlight, summed over live nodes by the caller).
// A non-nil error means frames were silently created or destroyed.
func (m *Memory) CheckLinkConservation(inFlight uint64) error {
	settled := m.LinkAcked + m.LinkFailures + m.LinkFlushed
	if m.LinkTxQueued != settled+inFlight {
		return fmt.Errorf("metrics: link ledger out of balance: queued=%d != acked=%d + failed=%d + flushed=%d + in-flight=%d",
			m.LinkTxQueued, m.LinkAcked, m.LinkFailures, m.LinkFlushed, inFlight)
	}
	return nil
}

// ControlPackets returns total control-plane transmissions.
func (m *Memory) ControlPackets() uint64 {
	return m.RReqSent + m.RResSent + m.NotifySent + m.AckSent
}

// Merge folds another run's totals into m: counters are summed, histograms
// merged bucket-wise, hop sums and per-gateway deliveries added per key.
// Latency percentiles come from the fixed-memory histograms, so merged
// state stays bounded no matter how many runs fold in. The per-packet dedup state
// (pending/delivered keys) is also not merged — (origin, seq) pairs collide
// across independent runs, so only aggregate counts are meaningful across
// run boundaries. Histogram merging is commutative and associative, so any
// fold order (parallel workers) yields bit-identical aggregates.
func (m *Memory) Merge(o *Memory) {
	if o == nil {
		return
	}
	m.Generated += o.Generated
	m.Delivered += o.Delivered
	m.Duplicates += o.Duplicates
	for c := Counter(0); c < numCounters; c++ {
		*m.counterPtr(c) += *o.counterPtr(c)
	}
	for i := range m.hists {
		m.hists[i].Merge(&o.hists[i])
	}
	m.hopsSum += o.hopsSum
	m.hopsN += o.hopsN
	if m.perGateway == nil {
		m.perGateway = make(map[packet.NodeID]uint64, len(o.perGateway))
	}
	for k, v := range o.perGateway {
		m.perGateway[k] += v
	}
}
