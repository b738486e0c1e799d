package radio

import (
	"wmsn/internal/geom"
	"wmsn/internal/metrics"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// Sharded operation: when the owning world is split into spatial regions
// (internal/node EnableSharding), each medium runs one laneCtx per region.
// A lane owns a kernel, an RNG stream, a Stats block and delivery free
// lists, so concurrent region workers never share mutable radio state. The
// spatial grid and the stations map are shared read-only during a parallel
// window — attach, detach, and move are confined to barriers and global
// phases — and every delivery crossing a region border is routed through a
// per-(source,destination) outbox drained at the next barrier, where the
// receiver-side checks (listening, loss draws) run against the destination
// lane's state. The conservative window length (one propagation delay plus
// the minimum one-microsecond airtime) guarantees a cross-border delivery
// is always adopted before the destination lane's clock reaches it.
type laneCtx struct {
	k         *sim.Kernel
	stats     Stats
	freeDel   []*delivery
	freeBatch []*deliveryBatch
	scratch   []*Station
	deliver   func(any) // bound once; runs deliverLane on this lane
	deliverB  func(any) // bound once; runs deliverLaneBatch on this lane
	// outbox[dst] collects deliveries produced by this lane for stations
	// owned by lane dst during the current window.
	outbox [][]remoteDelivery
}

// remoteDelivery is a reception crossing a region border, staged until the
// barrier. The packet is the transmission's read-only snapshot, which the
// destination lane reads after the barrier while other lanes may read it
// too.
type remoteDelivery struct {
	to         *Station
	pkt        *packet.Packet
	start, end sim.Time
}

func (lc *laneCtx) getDelivery() *delivery {
	if n := len(lc.freeDel); n > 0 {
		d := lc.freeDel[n-1]
		lc.freeDel[n-1] = nil
		lc.freeDel = lc.freeDel[:n-1]
		return d
	}
	return &delivery{}
}

func (lc *laneCtx) getBatch() *deliveryBatch {
	if n := len(lc.freeBatch); n > 0 {
		b := lc.freeBatch[n-1]
		lc.freeBatch[n-1] = nil
		lc.freeBatch = lc.freeBatch[:n-1]
		return b
	}
	return &deliveryBatch{}
}

func (lc *laneCtx) putDelivery(d *delivery) {
	d.to = nil
	d.pkt = nil
	d.corrupted = false
	lc.freeDel = append(lc.freeDel, d)
}

// EnableSharding switches the medium to per-lane operation. kernels[i]
// drives lane i; laneOf assigns every subsequently attached station to its
// owning lane (existing stations are reassigned in place). The MAC-level
// channel models that require a global view of the medium — CSMA carrier
// sense and the collision model — are incompatible with regional execution,
// as is tracing; both panic here rather than silently racing.
func (m *Medium) EnableSharding(kernels []*sim.Kernel, laneOf func(packet.NodeID, geom.Point) int32) {
	if m.lanes != nil {
		panic("radio: sharding enabled twice")
	}
	if m.cfg.CSMA || m.cfg.Collisions {
		panic("radio: CSMA and collision models require a global channel view; disable them for sharded runs")
	}
	if m.cfg.Obs.Active() {
		panic("radio: tracing is incompatible with sharded runs")
	}
	m.laneOf = laneOf
	m.lanes = make([]*laneCtx, len(kernels))
	for i, k := range kernels {
		lc := &laneCtx{k: k, outbox: make([][]remoteDelivery, len(kernels))}
		lc.deliver = func(arg any) { m.deliverLane(lc, arg.(*delivery)) }
		lc.deliverB = func(arg any) { m.deliverLaneBatch(lc, arg.(*deliveryBatch)) }
		m.lanes[i] = lc
	}
	for _, st := range m.stations {
		st.lane = laneOf(st.id, st.pos)
	}
}

// Sharded reports whether the medium runs in per-lane mode.
func (m *Medium) Sharded() bool { return m.lanes != nil }

// Deafen stops a station from receiving — handler cleared, not removed from
// the index. A region worker killing its own device calls this immediately
// (the fields are owned by that lane) and stages the structural Detach for
// the barrier, where grid and map mutation is safe.
func (m *Medium) Deafen(id packet.NodeID) {
	if st := m.stations[id]; st != nil {
		st.handler = nil
	}
}

// transmitSharded is the per-lane transmit path. It runs on the sender
// lane's worker during a parallel window, or on the coordinating goroutine
// (with every worker parked) during a global phase; either way only the
// sender lane's context is mutated, plus its outboxes, which no one else
// reads until the barrier.
func (m *Medium) transmitSharded(from *Station, pkt *packet.Packet) {
	lc := m.lanes[from.lane]
	lc.stats.Transmissions++
	lc.stats.BytesOnAir += uint64(pkt.Size())
	m.report(metrics.RadioTransmissions, 1)
	m.report(metrics.RadioBytesOnAir, uint64(pkt.Size()))
	airtime := m.Airtime(pkt.Size())
	start := lc.k.Now()
	end := start + airtime + m.cfg.PropDelay
	// One snapshot per transmission, shared read-only by home-lane and
	// cross-border listeners alike (see transmitNow).
	var snap *packet.Packet
	// Home-lane receptions of one transmission all complete at the same
	// instant; they are scheduled as a single batch event (ID-sorted entry
	// order matches the per-event firing order, exactly as in the sequential
	// engine's deliverBatch), so a broadcast heard by d home neighbors costs
	// one heap operation instead of d.
	var batch *deliveryBatch
	// from's receiver cache is written only here, by from's own lane, and
	// the epoch keying it changes only at barriers.
	for _, st := range m.receivers(from, &lc.scratch) {
		if st.lane != from.lane {
			// Cross-border: stage unconditionally; the listening and loss
			// checks belong to the destination lane and run at adoption.
			if snap == nil {
				snap = pkt.Clone()
			}
			lc.outbox[st.lane] = append(lc.outbox[st.lane],
				remoteDelivery{to: st, pkt: snap, start: start, end: end})
			continue
		}
		if !st.listening || st.handler == nil {
			continue
		}
		if m.cfg.LossRate > 0 && lc.k.Rand().Float64() < m.cfg.LossRate {
			lc.stats.Lost++
			m.report(metrics.RadioLost, 1)
			continue
		}
		if st.rxLoss > 0 && lc.k.Rand().Float64() < st.rxLoss {
			lc.stats.Lost++
			m.report(metrics.RadioLost, 1)
			continue
		}
		if snap == nil {
			snap = pkt.Clone()
		}
		d := lc.getDelivery()
		d.to, d.pkt, d.start, d.end = st, snap, start, end
		if batch == nil {
			batch = lc.getBatch()
		}
		batch.entries = append(batch.entries, d)
	}
	if batch != nil {
		lc.k.ScheduleArgAt(end, lc.deliverB, batch)
	}
}

// deliverLaneBatch completes every home-lane reception of one transmission.
// Mirrors the sequential deliverBatch: if the lane kernel is stopped
// mid-batch (a reception's energy charge killed a run-stopping node), the
// remaining entries are re-queued as individual events so they are neither
// lost on resume nor delivered past the stop.
func (m *Medium) deliverLaneBatch(lc *laneCtx, b *deliveryBatch) {
	for i, d := range b.entries {
		if lc.k.Stopped() {
			for j := i; j < len(b.entries); j++ {
				lc.k.ScheduleArgAt(b.entries[j].end, lc.deliver, b.entries[j])
				b.entries[j] = nil
			}
			break
		}
		b.entries[i] = nil
		m.deliverLane(lc, d)
	}
	b.entries = b.entries[:0]
	lc.freeBatch = append(lc.freeBatch, b)
}

// deliverLane completes a reception on the destination lane.
func (m *Medium) deliverLane(lc *laneCtx, d *delivery) {
	st, pkt := d.to, d.pkt
	lc.putDelivery(d)
	if st.handler == nil || !st.listening {
		return
	}
	lc.stats.Deliveries++
	m.report(metrics.RadioDeliveries, 1)
	st.handler(pkt)
}

// DrainOutboxes adopts every staged cross-border delivery into its
// destination lane. Called at barriers and after global phases, with all
// workers parked. Adoption order is deterministic: destination lanes in
// index order, source lanes in index order, entries in production order —
// and each lane's production order is itself deterministic. The receiver
// checks mirror the home-lane transmit path, evaluated against the
// destination's state (loss draws come from the destination lane's RNG, so
// each lane's random stream is consumed only by its own receptions).
func (m *Medium) DrainOutboxes() {
	for dst, dl := range m.lanes {
		for _, src := range m.lanes {
			box := src.outbox[dst]
			if len(box) == 0 {
				continue
			}
			for i := range box {
				m.adopt(dl, &box[i])
				box[i] = remoteDelivery{}
			}
			src.outbox[dst] = box[:0]
		}
	}
}

func (m *Medium) adopt(dl *laneCtx, r *remoteDelivery) {
	st := r.to
	if st.handler == nil || !st.listening {
		return
	}
	if m.cfg.LossRate > 0 && dl.k.Rand().Float64() < m.cfg.LossRate {
		dl.stats.Lost++
		m.report(metrics.RadioLost, 1)
		return
	}
	if st.rxLoss > 0 && dl.k.Rand().Float64() < st.rxLoss {
		dl.stats.Lost++
		m.report(metrics.RadioLost, 1)
		return
	}
	d := dl.getDelivery()
	d.to, d.pkt, d.start, d.end = st, r.pkt, r.start, r.end
	dl.k.ScheduleArgAt(d.end, dl.deliver, d)
}

// mergeLaneStats folds the per-lane counters into a Stats total, in lane
// order (deterministic for a fixed seed and shard count).
func (m *Medium) mergeLaneStats(s Stats) Stats {
	for _, lc := range m.lanes {
		s.Transmissions += lc.stats.Transmissions
		s.Deliveries += lc.stats.Deliveries
		s.Lost += lc.stats.Lost
		s.Collided += lc.stats.Collided
		s.BytesOnAir += lc.stats.BytesOnAir
		s.Backoffs += lc.stats.Backoffs
		s.CSMADropped += lc.stats.CSMADropped
	}
	return s
}
