// Package radio simulates the shared wireless medium: unit-disk propagation,
// transmission airtime, per-link loss, and an optional collision model in
// which overlapping receptions at a node corrupt each other.
//
// Two media are typically instantiated per WMSN: a short-range low-rate one
// for the sensor layer (802.15.4-like, 250 kbit/s) and a long-range
// high-rate one for the mesh backbone (802.11-like, 11 Mbit/s), matching the
// paper's §3.2 ("sensor nodes only support 802.15.4; WMRs only support
// 802.11; WMGs support both"). Gateways join both media.
package radio

import (
	"fmt"
	"math"

	"wmsn/internal/geom"
	"wmsn/internal/metrics"
	"wmsn/internal/obs"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// Config describes a medium's PHY/MAC characteristics.
type Config struct {
	// BitRate is the transmission rate in bits per second. Airtime of a
	// packet is SizeBits/BitRate.
	BitRate float64
	// PropDelay is the fixed propagation plus processing delay added to
	// every delivery.
	PropDelay sim.Duration
	// LossRate is the independent per-link packet loss probability in
	// [0,1).
	LossRate float64
	// Collisions enables the overlap-corruption model: when two receptions
	// overlap in time at a receiver, both are corrupted and dropped.
	Collisions bool
	// CellSize is the spatial-hash cell edge in meters; 0 selects a
	// reasonable default.
	CellSize float64
	// CSMA enables carrier-sense multiple access: a station that senses
	// an in-flight transmission it can hear defers for a random backoff
	// before retrying, up to MaxBackoffs attempts. Energy is charged at
	// submission (the sensing cost itself is not modeled).
	CSMA bool
	// MaxBackoffs bounds CSMA retry attempts; 0 selects 5.
	MaxBackoffs int
	// BackoffWindow is the maximum random defer per attempt; 0 selects
	// 4 ms.
	BackoffWindow sim.Duration
	// Metrics, when non-nil, receives every medium event (transmissions,
	// deliveries, losses, collisions, CSMA activity) as Radio* counters in
	// addition to the medium's own Stats. Leave nil to keep the hot path
	// branch-free of telemetry.
	Metrics metrics.Sink
	// Obs, when active, receives a FrameLost event for every unicast DATA
	// copy the medium drops at its addressee (loss model or collision) —
	// the ground truth behind the link layer's retry decisions. Nil keeps
	// the delivery loop free of tracing beyond one branch.
	Obs *obs.Bus
}

// SensorRadio is an 802.15.4-flavored configuration for the sensor layer.
func SensorRadio() Config {
	return Config{BitRate: 250_000, PropDelay: 50 * sim.Microsecond}
}

// MeshRadio is an 802.11-flavored configuration for the mesh backbone.
func MeshRadio() Config {
	return Config{BitRate: 11_000_000, PropDelay: 20 * sim.Microsecond}
}

// Stats aggregates medium activity for the overhead experiments.
type Stats struct {
	Transmissions uint64 // packets put on the air
	Deliveries    uint64 // packet copies handed to receivers
	Lost          uint64 // copies dropped by the loss model
	Collided      uint64 // copies corrupted by overlapping receptions
	BytesOnAir    uint64 // Σ packet size over transmissions
	Backoffs      uint64 // CSMA deferrals
	CSMADropped   uint64 // packets abandoned after MaxBackoffs attempts
}

// Station is a node's attachment to a medium. The field order packs it
// into 128 bytes: scale runs attach 100k stations.
type Station struct {
	id        packet.NodeID
	pos       geom.Point
	rangeM    float64
	handler   func(*packet.Packet)
	listening bool
	rxFilled  bool    // see rx
	rxLoss    float64 // extra per-station reception loss probability
	medium    *Medium
	// pending tracks receptions in flight, for the collision model;
	// any two receptions whose airtimes overlap corrupt each other.
	pending []*delivery
	// rx caches the ID-sorted stations within range once rxFilled is set.
	// rxEpoch and rxRange are the key it was (or is about to be) filled
	// under: the medium's topology epoch and the transmission range. See
	// Medium.receivers.
	rx      []*Station
	rxEpoch uint64
	rxRange float64
}

// ID returns the station's node ID.
func (s *Station) ID() packet.NodeID { return s.id }

// Pos returns the station's current position.
func (s *Station) Pos() geom.Point { return s.pos }

// Range returns the station's transmission range in meters.
func (s *Station) Range() float64 { return s.rangeM }

// SetRange adjusts transmission power (topology control, §4.4).
func (s *Station) SetRange(r float64) {
	if r < 0 {
		r = 0
	}
	s.rangeM = r
}

// Listening reports whether the radio is awake.
func (s *Station) Listening() bool { return s.listening }

// SetListening wakes or sleeps the receiver (sleep scheduling, §4.4).
// A sleeping station receives nothing but may still transmit.
func (s *Station) SetListening(on bool) { s.listening = on }

// RxLoss returns the station's extra reception loss probability.
func (s *Station) RxLoss() float64 { return s.rxLoss }

// SetRxLoss sets an additional independent loss probability applied to every
// reception at this station, on top of the medium-wide LossRate. The fault
// injector uses it for per-link and region-wide degradation ramps. p is
// clamped to [0, 1); a station with RxLoss 0 draws no extra randomness, so
// unfaulted runs keep their RNG streams unchanged.
func (s *Station) SetRxLoss(p float64) {
	if p < 0 || math.IsNaN(p) {
		p = 0
	}
	if p >= 1 {
		p = 0.999999
	}
	s.rxLoss = p
}

// Move relocates the station (gateway mobility between MLR rounds).
func (s *Station) Move(p geom.Point) {
	s.medium.reindex(s, p)
}

type delivery struct {
	to        *Station
	pkt       *packet.Packet
	start     sim.Time
	end       sim.Time
	corrupted bool
}

// deliveryBatch carries every reception completing at one instant from one
// transmission. Scheduling the batch as a single kernel event replaces the
// one-event-per-receiver pattern: a broadcast heard by d neighbors costs
// one heap operation instead of d. Entries stay in ID-sorted receiver
// order (receivers returns stations sorted by ID, cached or fresh), so
// handler invocation order is identical to the per-event schedule, whose
// same-timestamp events fired in the consecutive sequence order they were
// created in.
type deliveryBatch struct {
	entries []*delivery
}

// activeTx records a transmission occupying the channel, for carrier sense.
type activeTx struct {
	pos    geom.Point
	rangeM float64
	end    sim.Time
}

// Medium is a shared broadcast channel among registered stations.
type Medium struct {
	k        *sim.Kernel
	cfg      Config
	stations map[packet.NodeID]*Station
	grid     *geom.GridIndex[*Station] // spatial index for receiver lookup
	stats    Stats
	active   []activeTx // in-flight transmissions (CSMA only)
	// epoch counts topology changes (Attach, Detach, Move); it keys every
	// station's receiver cache. It changes only where the grid does.
	epoch uint64

	// Hot-path scratch: delivery structs and batches are pooled on free
	// lists and scheduled through the kernel's zero-alloc arg path via
	// deliverFn/deliverBatchFn (bound once here, so no per-delivery closure
	// exists); rxScratch is the reusable receiver buffer for transmitNow.
	freeDel        []*delivery
	freeBatch      []*deliveryBatch
	deliverFn      func(any)
	deliverBatchFn func(any)
	rxScratch      []*Station
}

// New creates a medium driven by kernel k.
func New(k *sim.Kernel, cfg Config) *Medium {
	if cfg.BitRate <= 0 {
		panic("radio: non-positive bit rate")
	}
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		panic(fmt.Sprintf("radio: loss rate %v outside [0,1)", cfg.LossRate))
	}
	cell := cfg.CellSize
	if cell <= 0 {
		cell = 50
	}
	m := &Medium{
		k:        k,
		cfg:      cfg,
		stations: make(map[packet.NodeID]*Station),
		grid:     geom.NewGridIndex[*Station](cell),
	}
	m.deliverFn = func(arg any) { m.deliver(arg.(*delivery)) }
	m.deliverBatchFn = func(arg any) { m.deliverBatch(arg.(*deliveryBatch)) }
	return m
}

func (m *Medium) getBatch() *deliveryBatch {
	if n := len(m.freeBatch); n > 0 {
		b := m.freeBatch[n-1]
		m.freeBatch[n-1] = nil
		m.freeBatch = m.freeBatch[:n-1]
		return b
	}
	return &deliveryBatch{}
}

func (m *Medium) getDelivery() *delivery {
	if n := len(m.freeDel); n > 0 {
		d := m.freeDel[n-1]
		m.freeDel[n-1] = nil
		m.freeDel = m.freeDel[:n-1]
		return d
	}
	return &delivery{}
}

// putDelivery recycles a delivery once its own deliver event has run and it
// is out of every pending list. Deliveries dropped from a pending list by a
// sibling's compaction stay live until their own event fires.
func (m *Medium) putDelivery(d *delivery) {
	d.to = nil
	d.pkt = nil
	d.corrupted = false
	m.freeDel = append(m.freeDel, d)
}

// Stats returns a snapshot of medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// LossRate returns the medium-wide per-link loss probability.
func (m *Medium) LossRate() float64 { return m.cfg.LossRate }

// SetLossRate changes the medium-wide per-link loss probability mid-run
// (region-wide degradation ramps). Out-of-range values panic, matching New.
func (m *Medium) SetLossRate(p float64) {
	if p < 0 || p >= 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("radio: loss rate %v outside [0,1)", p))
	}
	m.cfg.LossRate = p
}

// report mirrors a stats increment to the optional metrics sink.
func (m *Medium) report(c metrics.Counter, n uint64) {
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.Add(c, n)
	}
}

// observeLoss traces a dropped copy of a unicast DATA frame at its
// addressee. Broadcast copies and overheard unicasts are omitted: only the
// addressee's loss is a hop-level event the link layer will react to.
func (m *Medium) observeLoss(st *Station, pkt *packet.Packet, reason string) {
	if !m.cfg.Obs.Active() || pkt.Kind != packet.KindData || pkt.To != st.id {
		return
	}
	m.cfg.Obs.Emit(obs.Event{
		At: m.k.Now(), Kind: obs.FrameLost, Node: st.id, Peer: pkt.From,
		Origin: pkt.Origin, Seq: pkt.Seq, Detail: reason,
	})
}

// Airtime returns how long a packet of size bytes occupies the channel.
func (m *Medium) Airtime(sizeBytes int) sim.Duration {
	us := float64(sizeBytes*8) / m.cfg.BitRate * 1e6
	return sim.Duration(math.Ceil(us))
}

// Attach registers a station. handler is called once per successful
// delivery with the transmission's snapshot: one clone of the sent frame,
// shared with every other listener of the same transmission, so handler
// must not modify it (a forwarder copies the header and replaces the slices
// it changes). Attaching an already-attached ID panics: duplicate radio
// identities are a configuration bug (the deliberate case, the Sybil
// attack, forges packet headers instead).
func (m *Medium) Attach(id packet.NodeID, pos geom.Point, rangeM float64, handler func(*packet.Packet)) *Station {
	if _, dup := m.stations[id]; dup {
		panic(fmt.Sprintf("radio: station %v attached twice", id))
	}
	s := &Station{id: id, pos: pos, rangeM: rangeM, handler: handler, listening: true, medium: m}
	m.stations[id] = s
	m.grid.Insert(s, pos)
	m.epoch++
	return s
}

// Detach removes a station (node death or departure). Packets already in
// flight to it are silently dropped at delivery time.
func (m *Medium) Detach(id packet.NodeID) {
	s, ok := m.stations[id]
	if !ok {
		return
	}
	m.grid.Remove(s, s.pos)
	delete(m.stations, id)
	s.handler = nil
	m.epoch++
}

// Station returns the attachment for id, or nil.
func (m *Medium) Station(id packet.NodeID) *Station { return m.stations[id] }

func (m *Medium) reindex(s *Station, p geom.Point) {
	m.grid.Move(s, s.pos, p)
	s.pos = p
	m.epoch++
}

// InRange returns the stations within sender's range, excluding the sender
// itself, in deterministic (ID-sorted) order.
func (m *Medium) InRange(sender *Station) []*Station {
	if sender == nil {
		return nil
	}
	return m.inRangeInto(sender, sender.rangeM, nil)
}

// inRangeInto appends the stations within rangeM of sender to out (the hot
// path passes a reusable scratch buffer; InRange passes nil for a fresh
// slice). Range changes need no reindexing: the range bounds the grid query
// window at lookup time.
func (m *Medium) inRangeInto(sender *Station, rangeM float64, out []*Station) []*Station {
	if rangeM <= 0 {
		return out
	}
	base := len(out)
	out = m.grid.AppendWithin(out, sender.pos, rangeM, sender)
	sortStations(out[base:])
	return out
}

// receivers returns the ID-sorted stations within rangeM of from, for a
// transmission at that range. While the medium's epoch and rangeM match
// from's cache key, the cached list is returned; otherwise the key is reset
// and the list is computed into *scratch by inRangeInto. The cache is
// filled only at the second transmission under one key, so a station that
// transmits once per topology allocates nothing for it; the fill copies the
// scratch list into the cache's backing array, which grows at most once per
// fill, to fit. SetRange changes no epoch: only a sender's own range
// decides who hears it, and that range is part of the key. Listening, loss
// and handler checks stay with the caller, per transmission. The result is
// read-only and valid until the next call for from or with scratch.
func (m *Medium) receivers(from *Station, rangeM float64, scratch *[]*Station) []*Station {
	if from.rxEpoch != m.epoch || from.rxRange != rangeM {
		from.rxEpoch, from.rxRange, from.rxFilled = m.epoch, rangeM, false
		*scratch = m.inRangeInto(from, rangeM, (*scratch)[:0])
		return *scratch
	}
	if !from.rxFilled {
		*scratch = m.inRangeInto(from, rangeM, (*scratch)[:0])
		from.rx = append(from.rx[:0], *scratch...)
		from.rxFilled = true
	}
	return from.rx
}

// Neighbors returns the IDs of stations within range of id.
func (m *Medium) Neighbors(id packet.NodeID) []packet.NodeID {
	s := m.stations[id]
	if s == nil {
		return nil
	}
	in := m.InRange(s)
	out := make([]packet.NodeID, len(in))
	for i, st := range in {
		out[i] = st.id
	}
	return out
}

func sortStations(ss []*Station) {
	// Insertion sort: neighbor lists are short and this avoids pulling in
	// sort for a hot path.
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].id < ss[j-1].id; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// Transmit broadcasts pkt from station from. Every listening station within
// range receives the transmission's snapshot (see Attach) after airtime +
// PropDelay, unless the loss model drops it or (with Collisions) an
// overlapping reception corrupts it. The snapshot is taken when the frame
// goes on the air, before Transmit returns unless CSMA defers it; from then
// on the sender may modify pkt.
// Unicast packets (pkt.To != Broadcast) still occupy every neighbor's radio
// — wireless is broadcast — but are only handed to the addressee; the node
// layer charges overhearing energy accordingly.
//
// With CSMA enabled, a busy channel defers the transmission by a random
// backoff (retried up to MaxBackoffs times before the packet is abandoned).
// A deferred frame still goes out at the range it was submitted at.
func (m *Medium) Transmit(from *Station, pkt *packet.Packet) {
	if from != nil {
		m.TransmitRange(from, pkt, from.rangeM)
	}
}

// TransmitRange is Transmit at rangeM instead of the station's own range,
// for one frame (LEACH-style direct hops at boosted power). The station's
// range is left as it is.
func (m *Medium) TransmitRange(from *Station, pkt *packet.Packet, rangeM float64) {
	if from == nil {
		return
	}
	if m.cfg.CSMA {
		m.transmitCSMA(from, pkt, rangeM, 0)
		return
	}
	m.transmitNow(from, pkt, rangeM)
}

// carrierBusy reports whether st can hear an in-flight transmission.
func (m *Medium) carrierBusy(st *Station) bool {
	now := m.k.Now()
	kept := m.active[:0]
	busy := false
	for _, tx := range m.active {
		if tx.end <= now {
			continue
		}
		kept = append(kept, tx)
		if st.pos.Dist(tx.pos) <= tx.rangeM {
			busy = true
		}
	}
	m.active = kept
	return busy
}

func (m *Medium) transmitCSMA(from *Station, pkt *packet.Packet, rangeM float64, attempt int) {
	if from.handler == nil && m.stations[from.id] == nil {
		return // detached while backing off
	}
	maxB := m.cfg.MaxBackoffs
	if maxB <= 0 {
		maxB = 5
	}
	window := m.cfg.BackoffWindow
	if window <= 0 {
		window = 4 * sim.Millisecond
	}
	if m.carrierBusy(from) {
		if attempt >= maxB {
			m.stats.CSMADropped++
			m.report(metrics.RadioDropped, 1)
			return
		}
		m.stats.Backoffs++
		m.report(metrics.RadioBackoffs, 1)
		delay := 1 + sim.Duration(m.k.Rand().Int63n(int64(window)))
		m.k.After(delay, func() { m.transmitCSMA(from, pkt, rangeM, attempt+1) })
		return
	}
	m.transmitNow(from, pkt, rangeM)
}

func (m *Medium) transmitNow(from *Station, pkt *packet.Packet, rangeM float64) {
	m.stats.Transmissions++
	m.stats.BytesOnAir += uint64(pkt.Size())
	m.report(metrics.RadioTransmissions, 1)
	m.report(metrics.RadioBytesOnAir, uint64(pkt.Size()))
	airtime := m.Airtime(pkt.Size())
	start := m.k.Now()
	end := start + airtime + m.cfg.PropDelay
	if m.cfg.CSMA {
		m.active = append(m.active, activeTx{pos: from.pos, rangeM: rangeM, end: start + airtime})
	}
	// One snapshot per transmission, shared read-only by every listener.
	// Like the batch, it is made at the first reception that survives the
	// loss draws, so a transmission nobody hears costs no clone.
	var snap *packet.Packet
	var batch *deliveryBatch
	for _, st := range m.receivers(from, rangeM, &m.rxScratch) {
		if !st.listening {
			continue
		}
		if m.cfg.LossRate > 0 && m.k.Rand().Float64() < m.cfg.LossRate {
			m.stats.Lost++
			m.report(metrics.RadioLost, 1)
			m.observeLoss(st, pkt, "loss")
			continue
		}
		if st.rxLoss > 0 && m.k.Rand().Float64() < st.rxLoss {
			m.stats.Lost++
			m.report(metrics.RadioLost, 1)
			m.observeLoss(st, pkt, "loss")
			continue
		}
		if batch == nil {
			batch = m.getBatch()
			snap = pkt.Clone()
		}
		d := m.getDelivery()
		d.to, d.pkt, d.start, d.end = st, snap, start, end
		if m.cfg.Collisions {
			// Any reception overlapping an in-flight one corrupts both.
			for _, prev := range st.pending {
				if prev.end > start && !prev.corrupted {
					prev.corrupted = true
					m.stats.Collided++
					m.report(metrics.RadioCollided, 1)
				}
				if prev.end > start {
					d.corrupted = true
				}
			}
			if d.corrupted {
				m.stats.Collided++
				m.report(metrics.RadioCollided, 1)
			}
			st.pending = append(st.pending, d)
		}
		batch.entries = append(batch.entries, d)
	}
	if batch != nil {
		m.k.ScheduleArgAt(end, m.deliverBatchFn, batch)
	}
}

// deliverBatch completes every reception of one transmission. All entries
// share the same arrival instant, and their ID-sorted order matches the
// firing order of the per-event schedule they replace (consecutive
// sequence numbers at an equal timestamp).
func (m *Medium) deliverBatch(b *deliveryBatch) {
	for i, d := range b.entries {
		if m.k.Stopped() {
			// Kernel.Stop landed inside this batch (typically a reception's
			// energy charge killed the node whose death stops the run). The
			// per-event schedule would have left the remaining receptions
			// as queued events, so re-queue them individually: a run that
			// never resumes drops them exactly as before, and a resumed
			// run still completes them.
			for j := i; j < len(b.entries); j++ {
				m.k.ScheduleArgAt(b.entries[j].end, m.deliverFn, b.entries[j])
				b.entries[j] = nil
			}
			break
		}
		b.entries[i] = nil
		m.deliver(d)
	}
	b.entries = b.entries[:0]
	m.freeBatch = append(m.freeBatch, b)
}

func (m *Medium) deliver(d *delivery) {
	st := d.to
	if m.cfg.Collisions {
		// Drop completed receptions from the pending set. This always drops
		// d itself (d.end == now), so d is unreferenced after this call and
		// safe to recycle below.
		now := m.k.Now()
		kept := st.pending[:0]
		for _, p := range st.pending {
			if p.end > now {
				kept = append(kept, p)
			}
		}
		st.pending = kept
	}
	corrupted, pkt := d.corrupted, d.pkt
	m.putDelivery(d)
	if corrupted {
		m.observeLoss(st, pkt, "collision")
		return
	}
	if st.handler == nil || !st.listening {
		return
	}
	m.stats.Deliveries++
	m.report(metrics.RadioDeliveries, 1)
	st.handler(pkt)
}

// Pool carries a medium's recycled hot-path storage — delivery structs,
// delivery batches and the receiver scratch buffer — between sequential
// runs (the run arena; see sim.EventPool for the kernel half). A zero Pool
// is valid and empty. Pools are not safe for concurrent use: each run
// adopts the pool's storage exclusively and harvests it back when done.
type Pool struct {
	del     []*delivery
	batches []*deliveryBatch
	scratch [][]*Station
}

// AdoptPool seeds m's free lists from p, emptying p. Call once, on a
// freshly constructed medium.
func (m *Medium) AdoptPool(p *Pool) {
	if p.del != nil {
		m.freeDel = p.del
		p.del = nil
	}
	if p.batches != nil {
		m.freeBatch = p.batches
		p.batches = nil
	}
	if n := len(p.scratch); n > 0 {
		m.rxScratch = p.scratch[n-1][:0]
		p.scratch[n-1] = nil
		p.scratch = p.scratch[:n-1]
	}
}

// HarvestPool moves m's pooled storage into p and detaches it from m. The
// medium remains usable afterwards (it simply allocates fresh storage),
// but the harvested structures must not be reached through stale kernel
// events — the caller harvests the kernel in the same breath, which
// invalidates every scheduled delivery. All station and packet references
// are cleared so the pool never pins a dead world in memory.
func (m *Medium) HarvestPool(p *Pool) {
	// Free-listed deliveries were already cleared by putDelivery; batches
	// nil their entries in deliverBatch. Deliveries still in flight are
	// abandoned to the GC along with their kernel events.
	p.del = append(p.del, m.freeDel...)
	m.freeDel = nil
	p.batches = append(p.batches, m.freeBatch...)
	m.freeBatch = nil
	if m.rxScratch != nil {
		s := m.rxScratch[:cap(m.rxScratch)]
		for i := range s {
			s[i] = nil
		}
		p.scratch = append(p.scratch, s[:0])
		m.rxScratch = nil
	}
}
