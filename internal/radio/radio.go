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
	// CellSize is the spatial grid's cell edge in meters; 0 selects a
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

// Receiver takes the frames a station hears. Receive is called once per
// successful delivery with the sent frame itself (see Medium.Attach).
type Receiver interface {
	Receive(pkt *packet.Packet)
}

// HandlerFunc adapts an ordinary function to a Receiver.
type HandlerFunc func(*packet.Packet)

// Receive calls f(pkt).
func (f HandlerFunc) Receive(pkt *packet.Packet) { f(pkt) }

// Station is a node's attachment to a medium. The field order packs it
// into 128 bytes (TestStationSize): scale runs attach 100k stations.
type Station struct {
	id        packet.NodeID
	listening bool
	rxFilled  bool // see rx
	pos       geom.Point
	rangeM    float64
	rcv       Receiver // nil for a transmit-only or detached station
	rxLoss    float64  // extra per-station reception loss probability
	medium    *Medium
	// pending tracks receptions in flight, for the collision model;
	// any two receptions whose airtimes overlap corrupt each other. Each
	// points into the entries of the reception's batch.
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

// delivery is one reception of its batch's frame: the receiving station,
// the instant the reception ends, and whether an overlapping reception
// corrupted it.
type delivery struct {
	to        *Station
	end       sim.Time
	corrupted bool
}

// deliveryBatch carries every reception completing at one instant from one
// transmission. Scheduling the batch as a single kernel event replaces the
// one-event-per-receiver pattern: a broadcast heard by d neighbors costs
// one heap operation instead of d. Entries stay in ID-sorted receiver
// order (receivers returns stations sorted by ID, cached or fresh), so
// the order of Receive calls is identical to the per-event schedule, whose
// same-timestamp events fired in the consecutive sequence order they were
// created in.
//
// The receptions live by value in entries, and the frame is carried once.
// entries never grows past the capacity it is taken with, so it never
// moves, and the collision model's pending lists point into it. next is
// the first entry not yet delivered.
type deliveryBatch struct {
	pkt     *packet.Packet
	entries []delivery
	next    int
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

	// Hot-path scratch: batches are pooled on a free list and scheduled
	// through the kernel's zero-alloc arg path via deliverBatchFn (bound
	// once here, so no per-batch closure exists); rxScratch is the reusable
	// receiver buffer for transmitNow.
	freeBatch      []*deliveryBatch
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
	m.deliverBatchFn = func(arg any) { m.deliverBatch(arg.(*deliveryBatch)) }
	return m
}

// getBatch returns an empty batch with room for n entries.
func (m *Medium) getBatch(n int) *deliveryBatch {
	if k := len(m.freeBatch); k > 0 {
		b := m.freeBatch[k-1]
		m.freeBatch[k-1] = nil
		m.freeBatch = m.freeBatch[:k-1]
		if cap(b.entries) < n {
			b.entries = make([]delivery, 0, n)
		}
		return b
	}
	return &deliveryBatch{entries: make([]delivery, 0, n)}
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

// Attach registers a station. rcv.Receive is called once per successful
// delivery with the sent frame itself: the *Packet passed to Transmit,
// shared with its sender and with every other listener of the same
// transmission, so the receiver must not modify it (a forwarder copies the
// header and replaces the slices it changes). A nil rcv makes a
// transmit-only station. Attaching an already-attached ID panics:
// duplicate radio identities are a configuration bug (the deliberate case,
// the Sybil attack, forges packet headers instead). So does a position
// that is not finite (see geom.GridIndex).
func (m *Medium) Attach(id packet.NodeID, pos geom.Point, rangeM float64, rcv Receiver) *Station {
	if _, dup := m.stations[id]; dup {
		panic(fmt.Sprintf("radio: station %v attached twice", id))
	}
	s := &Station{id: id, pos: pos, rangeM: rangeM, rcv: rcv, listening: true, medium: m}
	m.grid.Insert(s, pos)
	m.stations[id] = s
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
	s.rcv = nil
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
// and receiver checks stay with the caller, per transmission. The result is
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
// range receives pkt itself (see Attach) after airtime + PropDelay, unless
// the loss model drops it or (with Collisions) an overlapping reception
// corrupts it. No copy is taken: from the call on, pkt and every slice it
// holds belong to the air, and nobody, the sender included, may modify
// them. A sender that wants another frame builds a new one.
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
	if from.rcv == nil && m.stations[from.id] == nil {
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
			return
		}
		m.stats.Backoffs++
		delay := 1 + sim.Duration(m.k.Rand().Int63n(int64(window)))
		m.k.After(delay, func() { m.transmitCSMA(from, pkt, rangeM, attempt+1) })
		return
	}
	m.transmitNow(from, pkt, rangeM)
}

func (m *Medium) transmitNow(from *Station, pkt *packet.Packet, rangeM float64) {
	m.stats.Transmissions++
	m.stats.BytesOnAir += uint64(pkt.Size())
	airtime := m.Airtime(pkt.Size())
	start := m.k.Now()
	end := start + airtime + m.cfg.PropDelay
	if m.cfg.CSMA {
		m.active = append(m.active, activeTx{pos: from.pos, rangeM: rangeM, end: start + airtime})
	}
	// Every listener gets the sent frame itself (see Transmit). The batch
	// is taken at the first reception that survives the loss draws, so a
	// transmission nobody hears schedules nothing, and with room for every
	// receiver, so its entries never move.
	var batch *deliveryBatch
	rx := m.receivers(from, rangeM, &m.rxScratch)
	for _, st := range rx {
		if !st.listening {
			continue
		}
		if m.cfg.LossRate > 0 && m.k.Rand().Float64() < m.cfg.LossRate {
			m.stats.Lost++
			m.observeLoss(st, pkt, "loss")
			continue
		}
		if st.rxLoss > 0 && m.k.Rand().Float64() < st.rxLoss {
			m.stats.Lost++
			m.observeLoss(st, pkt, "loss")
			continue
		}
		if batch == nil {
			batch = m.getBatch(len(rx))
			batch.pkt = pkt
		}
		batch.entries = append(batch.entries, delivery{to: st, end: end})
		if m.cfg.Collisions {
			d := &batch.entries[len(batch.entries)-1]
			// Any reception overlapping an in-flight one corrupts both.
			for _, prev := range st.pending {
				if prev.end > start && !prev.corrupted {
					prev.corrupted = true
					m.stats.Collided++
				}
				if prev.end > start {
					d.corrupted = true
				}
			}
			if d.corrupted {
				m.stats.Collided++
			}
			st.pending = append(st.pending, d)
		}
	}
	if batch != nil {
		m.k.ScheduleArgAt(end, m.deliverBatchFn, batch)
	}
}

// deliverBatch completes the receptions of one transmission, from b.next
// on. All entries share the same arrival instant, and their ID-sorted order
// matches the firing order of the per-event schedule they replace
// (consecutive sequence numbers at an equal timestamp).
//
// Kernel.Stop can land inside the batch, typically when a reception's
// energy charge kills the node whose death stops the run. The rest of the
// batch is then re-queued as one event at the same instant, so a run that
// never resumes drops it, and a resumed run delivers it in order before
// anything queued after it, as one event per reception would.
//
// The batch is recycled once every entry is delivered. By then each
// entry's own delivery has dropped it from its station's pending list, so
// nothing points into the entries any more.
func (m *Medium) deliverBatch(b *deliveryBatch) {
	for b.next < len(b.entries) {
		d := &b.entries[b.next]
		b.next++
		m.deliver(d, b.pkt)
		if b.next < len(b.entries) && m.k.Stopped() {
			m.k.ScheduleArgAt(m.k.Now(), m.deliverBatchFn, b)
			return
		}
	}
	clear(b.entries)
	b.entries, b.pkt, b.next = b.entries[:0], nil, 0
	m.freeBatch = append(m.freeBatch, b)
}

func (m *Medium) deliver(d *delivery, pkt *packet.Packet) {
	st := d.to
	if m.cfg.Collisions {
		// Drop completed receptions from the pending set, d among them
		// (d.end == now).
		now := m.k.Now()
		kept := st.pending[:0]
		for _, p := range st.pending {
			if p.end > now {
				kept = append(kept, p)
			}
		}
		st.pending = kept
	}
	if d.corrupted {
		m.observeLoss(st, pkt, "collision")
		return
	}
	if st.rcv == nil || !st.listening {
		return
	}
	m.stats.Deliveries++
	st.rcv.Receive(pkt)
}
