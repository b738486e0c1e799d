// Package mesh implements the middle layer of the WMSN architecture
// (Fig. 1): the self-organizing, self-healing wireless mesh backbone formed
// by gateways (WMGs), mesh routers (WMRs) and base stations.
//
// Routers discover neighbors with periodic HELLO beacons, flood link-state
// advertisements (LSAs) when their neighbor set changes, and forward data
// along shortest paths computed from the link-state database. When a router
// fails, its neighbors time it out, re-advertise, and traffic re-routes
// around the hole — the paper's §3.1 "if one node drops out of the network,
// its neighbors simply find another route".
package mesh

import (
	"encoding/binary"
	"sort"

	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// Config tunes the mesh control plane.
type Config struct {
	// HelloInterval is the neighbor beacon period.
	HelloInterval sim.Duration
	// DeadFactor times HelloInterval is the neighbor expiry timeout.
	DeadFactor int
	// TTL bounds LSA floods and data forwarding.
	TTL uint8
}

// DefaultConfig returns production-flavored defaults scaled for simulation.
func DefaultConfig() Config {
	return Config{
		HelloInterval: 2 * sim.Second,
		DeadFactor:    3,
		TTL:           32,
	}
}

// Stats counts mesh control and data activity.
type Stats struct {
	HellosSent    uint64
	LSAsSent      uint64 // originations and re-floods
	DataForwarded uint64
	DataDelivered uint64
	DataDropped   uint64 // no route to target
	Recomputes    uint64
}

// lsa is one router's advertised adjacency.
type lsa struct {
	seq       uint32
	neighbors []packet.NodeID
}

// Router is the link-state stack attached to one mesh-capable device.
type Router struct {
	Cfg Config
	// OnDeliver receives packets whose Target is this router.
	OnDeliver func(pkt *packet.Packet)

	dev   *node.Device
	stats Stats

	// lastSeen tracks neighbor liveness by HELLO arrival time.
	lastSeen map[packet.NodeID]sim.Time
	// lsdb maps router -> latest advertised adjacency.
	lsdb map[packet.NodeID]lsa
	// routes maps destination -> next hop, from the last SPF run.
	routes map[packet.NodeID]packet.NodeID

	seq     uint32 // own LSA sequence
	dataSeq uint32
	ticker  *sim.Repeater
	stopped bool
}

// NewRouter creates a mesh router stack.
func NewRouter(cfg Config) *Router {
	if cfg.HelloInterval <= 0 {
		cfg = DefaultConfig()
	}
	return &Router{
		Cfg:      cfg,
		lastSeen: make(map[packet.NodeID]sim.Time),
		lsdb:     make(map[packet.NodeID]lsa),
		routes:   make(map[packet.NodeID]packet.NodeID),
	}
}

// Attach binds the router to a device's mesh radio and starts the control
// plane. The first HELLO goes out at a random fraction of the interval so
// co-located routers do not beacon in lockstep.
func (r *Router) Attach(dev *node.Device) {
	r.dev = dev
	dev.SetMeshHandler(r.handle)
	k := dev.World().Kernel()
	phase := sim.Duration(k.Rand().Int63n(int64(r.Cfg.HelloInterval)))
	k.After(phase, func() {
		if r.stopped {
			return
		}
		r.tick()
		r.ticker = k.Every(r.Cfg.HelloInterval, r.tick)
	})
}

// Stop halts the control plane (used when simulating router failure the
// polite way; crashes just Fail the device).
func (r *Router) Stop() {
	r.stopped = true
	if r.ticker != nil {
		r.ticker.Stop()
	}
}

// Resume restarts a Stopped control plane: the HELLO ticker is re-armed and
// the router re-advertises itself, so neighbors re-learn it within one
// HELLO interval. Resuming a router that was never stopped is a no-op; a
// crashed (Failed) device needs Device.Recover instead — its ticker kept
// running and rejoin is automatic.
func (r *Router) Resume() {
	if !r.stopped || r.dev == nil {
		return
	}
	r.stopped = false
	k := r.dev.World().Kernel()
	r.tick()
	r.ticker = k.Every(r.Cfg.HelloInterval, r.tick)
}

// Stats returns a snapshot of the router's counters.
func (r *Router) Stats() Stats { return r.stats }

// Neighbors returns the currently live neighbor set, sorted.
func (r *Router) Neighbors() []packet.NodeID {
	out := make([]packet.NodeID, 0, len(r.lastSeen))
	for id := range r.lastSeen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NextHop returns the next hop toward dst, if a route exists.
func (r *Router) NextHop(dst packet.NodeID) (packet.NodeID, bool) {
	nh, ok := r.routes[dst]
	return nh, ok
}

// Reachable reports whether dst is in the current routing table.
func (r *Router) Reachable(dst packet.NodeID) bool {
	_, ok := r.routes[dst]
	return ok
}

// tick sends a HELLO and expires dead neighbors.
func (r *Router) tick() {
	if r.stopped || r.dev == nil || !r.dev.Alive() {
		return
	}
	hello := &packet.Packet{
		Kind:   packet.KindHello,
		From:   r.dev.ID(),
		To:     packet.Broadcast,
		Origin: r.dev.ID(),
		Target: packet.Broadcast,
		TTL:    1,
	}
	if r.dev.SendMesh(hello) {
		r.stats.HellosSent++
	}
	// Expire neighbors we have not heard from.
	deadline := r.dev.Now() - sim.Duration(r.Cfg.DeadFactor)*r.Cfg.HelloInterval
	changed := false
	for id, at := range r.lastSeen {
		if at < deadline {
			delete(r.lastSeen, id)
			changed = true
		}
	}
	if changed {
		r.originateLSA()
	}
}

// originateLSA floods this router's current adjacency.
func (r *Router) originateLSA() {
	r.seq++
	nbrs := r.Neighbors()
	r.lsdb[r.dev.ID()] = lsa{seq: r.seq, neighbors: nbrs}
	r.recompute()
	payload := marshalLSA(r.seq, nbrs)
	pkt := &packet.Packet{
		Kind:    packet.KindMeshLSA,
		From:    r.dev.ID(),
		To:      packet.Broadcast,
		Origin:  r.dev.ID(),
		Target:  packet.Broadcast,
		Seq:     r.seq,
		TTL:     r.Cfg.TTL,
		Payload: payload,
	}
	if r.dev.SendMesh(pkt) {
		r.stats.LSAsSent++
	}
}

func marshalLSA(seq uint32, nbrs []packet.NodeID) []byte {
	buf := binary.BigEndian.AppendUint32(nil, seq)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(nbrs)))
	for _, id := range nbrs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(id))
	}
	return buf
}

func parseLSA(b []byte) (seq uint32, nbrs []packet.NodeID, ok bool) {
	if len(b) < 6 {
		return 0, nil, false
	}
	seq = binary.BigEndian.Uint32(b)
	n := int(binary.BigEndian.Uint16(b[4:]))
	if len(b) < 6+4*n {
		return 0, nil, false
	}
	for i := 0; i < n; i++ {
		nbrs = append(nbrs, packet.NodeID(binary.BigEndian.Uint32(b[6+4*i:])))
	}
	return seq, nbrs, true
}

// handle processes mesh-layer receptions.
func (r *Router) handle(pkt *packet.Packet) {
	if r.stopped {
		return
	}
	switch pkt.Kind {
	case packet.KindHello:
		_, known := r.lastSeen[pkt.Origin]
		r.lastSeen[pkt.Origin] = r.dev.Now()
		if !known {
			r.originateLSA()
		}
	case packet.KindMeshLSA:
		seq, nbrs, ok := parseLSA(pkt.Payload)
		if !ok || pkt.Origin == r.dev.ID() {
			return
		}
		cur, have := r.lsdb[pkt.Origin]
		if have && cur.seq >= seq {
			return // stale or duplicate
		}
		r.lsdb[pkt.Origin] = lsa{seq: seq, neighbors: nbrs}
		r.recompute()
		if pkt.TTL > 1 {
			fwd := *pkt
			fwd.From = r.dev.ID()
			fwd.TTL--
			fwd.Hops++
			if r.dev.SendMesh(&fwd) {
				r.stats.LSAsSent++
			}
		}
	case packet.KindData:
		if pkt.Target == r.dev.ID() {
			r.stats.DataDelivered++
			if r.OnDeliver != nil {
				r.OnDeliver(pkt)
			}
			return
		}
		r.forward(pkt)
	}
}

// SendTo originates a data packet across the mesh toward dst. origin and
// seq identify the underlying sensor reading end to end.
func (r *Router) SendTo(dst packet.NodeID, origin packet.NodeID, seq uint32, payload []byte) bool {
	if r.dev == nil || !r.dev.Alive() {
		return false
	}
	if dst == r.dev.ID() {
		// Local delivery (the base station is also this node).
		r.stats.DataDelivered++
		if r.OnDeliver != nil {
			r.OnDeliver(&packet.Packet{Kind: packet.KindData, From: r.dev.ID(),
				To: r.dev.ID(), Origin: origin, Target: dst, Seq: seq, Payload: payload})
		}
		return true
	}
	pkt := &packet.Packet{
		Kind:    packet.KindData,
		From:    r.dev.ID(),
		To:      r.dev.ID(), // rewritten by forward
		Origin:  origin,
		Target:  dst,
		Seq:     seq,
		TTL:     r.Cfg.TTL,
		Payload: payload,
	}
	return r.forward(pkt)
}

func (r *Router) forward(pkt *packet.Packet) bool {
	if pkt.TTL <= 1 {
		r.stats.DataDropped++
		return false
	}
	nh, ok := r.routes[pkt.Target]
	if !ok {
		r.stats.DataDropped++
		return false
	}
	fwd := *pkt
	fwd.From = r.dev.ID()
	fwd.To = nh
	fwd.TTL--
	fwd.Hops++
	if r.dev.SendMesh(&fwd) {
		r.stats.DataForwarded++
		return true
	}
	return false
}

// recompute runs BFS over the link-state database from this router,
// producing next hops for every reachable destination. Links are used only
// if both endpoints advertise each other (bidirectionality check).
func (r *Router) recompute() {
	r.stats.Recomputes++
	self := r.dev.ID()
	adj := func(u packet.NodeID) []packet.NodeID {
		if u == self {
			return r.Neighbors()
		}
		return r.lsdb[u].neighbors
	}
	has := func(list []packet.NodeID, id packet.NodeID) bool {
		for _, x := range list {
			if x == id {
				return true
			}
		}
		return false
	}
	// BFS with first-hop tracking.
	routes := make(map[packet.NodeID]packet.NodeID)
	type qe struct {
		id    packet.NodeID
		first packet.NodeID
	}
	visited := map[packet.NodeID]bool{self: true}
	var queue []qe
	for _, nb := range r.Neighbors() {
		// Accept the direct link if the neighbor's LSA confirms it or we
		// have no LSA from it yet (bootstrap).
		if l, ok := r.lsdb[nb]; ok && !has(l.neighbors, self) {
			continue
		}
		visited[nb] = true
		routes[nb] = nb
		queue = append(queue, qe{nb, nb})
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nxt := range adj(cur.id) {
			if visited[nxt] {
				continue
			}
			// Bidirectionality: nxt must advertise cur back (or be unknown).
			if l, ok := r.lsdb[nxt]; ok && !has(l.neighbors, cur.id) {
				continue
			}
			visited[nxt] = true
			routes[nxt] = cur.first
			queue = append(queue, qe{nxt, cur.first})
		}
	}
	r.routes = routes
}

// Backbone wires a set of mesh-capable devices into one routed backbone and
// exposes gateway-to-base-station delivery for the sensor layer.
type Backbone struct {
	routers map[packet.NodeID]*Router
}

// NewBackbone attaches a Router to every given device (gateways, WMRs and
// base stations) and returns the handle.
func NewBackbone(cfg Config, devs ...*node.Device) *Backbone {
	b := &Backbone{routers: make(map[packet.NodeID]*Router, len(devs))}
	for _, d := range devs {
		r := NewRouter(cfg)
		r.Attach(d)
		b.routers[d.ID()] = r
	}
	return b
}

// Router returns the router on device id, or nil.
func (b *Backbone) Router(id packet.NodeID) *Router { return b.routers[id] }

// TotalStats sums stats across all routers.
func (b *Backbone) TotalStats() Stats {
	var t Stats
	for _, r := range b.routers {
		s := r.Stats()
		t.HellosSent += s.HellosSent
		t.LSAsSent += s.LSAsSent
		t.DataForwarded += s.DataForwarded
		t.DataDelivered += s.DataDelivered
		t.DataDropped += s.DataDropped
		t.Recomputes += s.Recomputes
	}
	return t
}
