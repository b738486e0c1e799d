// Package node binds the simulator substrates together: a Device is a node
// with a radio station, a battery and a protocol stack; a World owns the
// event kernel, the two radio media (sensor layer and mesh backbone) and
// every device, and tracks lifetime events such as the first battery death.
//
// The architecture mirrors the paper's Fig. 1: Sensor devices attach only to
// the sensor medium (802.15.4-like), MeshRouter devices only to the mesh
// medium (802.11-like), and Gateway devices (WMGs) to both, acting as sink
// nodes of the sensor layer and routers of the mesh layer. BaseStation
// devices sit on the mesh medium and represent the Internet egress.
package node

import (
	"fmt"
	"math"

	"wmsn/internal/energy"
	"wmsn/internal/geom"
	"wmsn/internal/obs"
	"wmsn/internal/packet"
	"wmsn/internal/radio"
	"wmsn/internal/sim"
)

// Kind classifies devices per the paper's three-plus-one node taxonomy.
type Kind uint8

// Device kinds.
const (
	Sensor      Kind = iota // low-power sensing node, 802.15.4 only
	Gateway                 // WMG: sensor-layer sink + mesh router
	MeshRouter              // WMR: mesh backbone relay only
	BaseStation             // mesh egress to the Internet
)

var kindNames = [...]string{"sensor", "gateway", "mesh-router", "base-station"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// DeathCause classifies why a device died. Typed causes replace the
// "battery"/"failure" string literals that were previously compared across
// packages.
type DeathCause uint8

// Death causes.
const (
	CauseBattery  DeathCause = iota // battery drained mid-operation
	CauseFailure                    // hardware fault, capture, etc. (Device.Fail)
	CauseInjected                   // scheduled by a fault plan (internal/fault)
)

var causeNames = [...]string{"battery", "failure", "injected"}

// String implements fmt.Stringer.
func (c DeathCause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("DeathCause(%d)", uint8(c))
}

// Stack is a protocol state machine attached to a device's sensor-layer
// radio (SPR, MLR, SecMLR, or a baseline).
type Stack interface {
	// Start is invoked once when the device enters the world; the stack
	// keeps dev for sending and timer scheduling.
	Start(dev *Device)
	// HandleMessage is invoked for every successfully received (and
	// energy-charged) sensor-layer packet addressed to this node or
	// broadcast. The packet is the sender's own frame, shared with every
	// other listener of the same transmission, and must not be modified;
	// to forward it, copy the header (fwd := *pkt) and replace, never
	// modify, the slices that change.
	HandleMessage(pkt *packet.Packet)
}

// Device is one node in the world: identity, radio attachments, battery,
// liveness and protocol machinery. Its position is the position of the
// stations it is attached to.
type Device struct {
	id    packet.NodeID
	kind  Kind
	world *World

	sensorSt *radio.Station // nil for MeshRouter/BaseStation
	meshSt   *radio.Station // nil for Sensor

	alive   bool
	promisc bool
	battery energy.Battery
	model   energy.Model
	snap    attachSnapshot // attachment state saved at the last kill

	stack       Stack
	meshHandler func(*packet.Packet)
	arq         *arqState // hop-by-hop link ARQ; nil unless enabled (arq.go)
}

// attachSnapshot captures the radio attachment state of a device at the
// moment it dies, so Recover can re-attach the stations exactly as they
// were: position, per-medium ranges, the sensor listening flag and which
// media the device was on. Every kill overwrites it.
type attachSnapshot struct {
	pos                geom.Point
	sensorRange        float64
	meshRange          float64
	sensorListening    bool
	hadSensor, hadMesh bool
}

// ID returns the device's node ID.
func (d *Device) ID() packet.NodeID { return d.id }

// Kind returns the device kind.
func (d *Device) Kind() Kind { return d.kind }

// World returns the owning world.
func (d *Device) World() *World { return d.world }

// Pos returns the position of the device's stations (the zero point for a
// dead, detached device).
func (d *Device) Pos() geom.Point {
	switch {
	case d.sensorSt != nil:
		return d.sensorSt.Pos()
	case d.meshSt != nil:
		return d.meshSt.Pos()
	}
	return geom.Point{}
}

// Move relocates the device on every medium it is attached to.
func (d *Device) Move(p geom.Point) {
	if d.sensorSt != nil {
		d.sensorSt.Move(p)
	}
	if d.meshSt != nil {
		d.meshSt.Move(p)
	}
}

// Battery returns the device's battery.
func (d *Device) Battery() *energy.Battery { return &d.battery }

// Alive reports whether the device is operating.
func (d *Device) Alive() bool { return d.alive }

// Stack returns the sensor-layer protocol stack.
func (d *Device) Stack() Stack { return d.stack }

// SwapStack replaces the device's protocol stack in place and returns the
// previous one. The new stack's Start is NOT invoked — the caller either
// wraps the old stack (which keeps running underneath) or binds the
// replacement itself. The fault injector uses this to compromise nodes
// mid-run without re-arming the victim's timers.
func (d *Device) SwapStack(st Stack) Stack {
	old := d.stack
	d.stack = st
	return old
}

// SensorStation returns the sensor-layer radio attachment, or nil.
func (d *Device) SensorStation() *radio.Station { return d.sensorSt }

// MeshStation returns the mesh-layer radio attachment, or nil.
func (d *Device) MeshStation() *radio.Station { return d.meshSt }

// SetMeshHandler registers the mesh-layer receive hook (used by the mesh
// routing implementation on gateways, routers and base stations).
func (d *Device) SetMeshHandler(f func(*packet.Packet)) { d.meshHandler = f }

// Promiscuous reports whether the device consumes overheard unicasts.
func (d *Device) Promiscuous() bool { return d.promisc }

// SetPromiscuous marks the device as an eavesdropper: unicast packets
// addressed to other nodes are handed to its stack instead of being
// dropped after the energy charge.
func (d *Device) SetPromiscuous(on bool) { d.promisc = on }

// Now returns the current virtual time.
func (d *Device) Now() sim.Time { return d.world.kernel.Now() }

// After schedules fn on the world kernel, delay from now.
func (d *Device) After(delay sim.Duration, fn func()) *sim.Timer {
	return d.world.kernel.After(delay, fn)
}

// Every schedules fn periodically on the world kernel.
func (d *Device) Every(interval sim.Duration, fn func()) *sim.Repeater {
	return d.world.kernel.Every(interval, fn)
}

// Send transmits pkt on the sensor-layer medium, charging transmission
// energy. It reports whether the transmission happened (false when the
// device is dead, detached from the sensor medium, or the battery browned
// out mid-packet, which also kills the device).
//
// Whatever it reports, pkt is immutable from the call on: the medium hands
// this very frame to every listener (see radio.Medium.Transmit), and the
// link layer may retransmit it later, so the caller must not modify pkt or
// its slices afterwards. The same holds for SendRange and SendMesh.
//
// With link-layer ARQ enabled (EnableLinkARQ), eligible frames — unicast
// DATA — are instead admitted to the bounded forwarding queue: true means
// accepted for reliable delivery (transmission may be deferred behind the
// frame in flight), false means the queue is full and the frame was dropped
// under backpressure.
func (d *Device) Send(pkt *packet.Packet) bool {
	if !d.alive || d.sensorSt == nil {
		return false
	}
	if d.arq != nil && arqEligible(pkt) {
		return d.arqEnqueue(pkt)
	}
	return d.transmitSensor(pkt)
}

// transmitSensor is the raw sensor-layer transmission path, at the
// station's own range. ARQ retransmissions and LINK-ACKs come through here
// directly, bypassing the queue.
func (d *Device) transmitSensor(pkt *packet.Packet) bool {
	if d.sensorSt == nil {
		return false
	}
	return d.SendRange(pkt, d.sensorSt.Range())
}

// SendRange transmits pkt on the sensor layer at a boosted (or reduced)
// transmission range for this one frame, charging energy for that range.
// The station's own range is unchanged, and a frame deferred by CSMA still
// goes out at rangeM. LEACH-style protocols use this for direct
// long-distance hops to cluster heads and sinks.
func (d *Device) SendRange(pkt *packet.Packet, rangeM float64) bool {
	w := d.world
	if !d.alive || d.sensorSt == nil {
		return false
	}
	cost := d.model.TxCost(pkt.SizeBits(), rangeM)
	if !d.battery.DrawTx(cost) {
		w.kill(d, CauseBattery)
		return false
	}
	if w.obs.Active() && arqEligible(pkt) {
		w.obs.Emit(obs.Event{
			At: d.Now(), Kind: obs.LinkTx, Node: d.id, Peer: pkt.To,
			Origin: pkt.Origin, Seq: pkt.Seq, Value: int64(pkt.TTL),
		})
	}
	w.sensorMedium.TransmitRange(d.sensorSt, pkt, rangeM)
	return true
}

// SendMesh transmits pkt on the mesh medium. Mesh nodes are mains- or
// generator-powered in the architecture, but energy is still accounted.
func (d *Device) SendMesh(pkt *packet.Packet) bool {
	w := d.world
	if !d.alive || d.meshSt == nil {
		return false
	}
	cost := d.model.TxCost(pkt.SizeBits(), d.meshSt.Range())
	if !d.battery.DrawTx(cost) {
		w.kill(d, CauseBattery)
		return false
	}
	w.meshMedium.Transmit(d.meshSt, pkt)
	return true
}

// Receive handles a sensor-layer delivery: charges reception energy,
// filters unicast packets addressed elsewhere (unless promiscuous), and
// hands the packet to the stack. It makes the device the radio.Receiver of
// its sensor station, so a reception goes from the station to the device
// with no closure in between.
func (d *Device) Receive(pkt *packet.Packet) {
	w := d.world
	if !d.alive {
		return
	}
	if !d.battery.DrawRx(d.model.RxCost(pkt.SizeBits())) {
		w.kill(d, CauseBattery)
		return
	}
	if pkt.To != packet.Broadcast && pkt.To != d.id && !d.promisc {
		return // overheard someone else's unicast; energy spent, nothing more
	}
	if d.arq != nil {
		if pkt.Kind == packet.KindLinkAck {
			// LINK-ACKs terminate at the link layer, never at a stack.
			if pkt.To == d.id {
				d.arqHandleAck(pkt)
			}
			return
		}
		if pkt.To == d.id && arqEligible(pkt) && !d.arqAckAndFilter(pkt) {
			return // duplicate (re-ACKed) or the ACK drained the battery
		}
	}
	if d.stack != nil {
		d.stack.HandleMessage(pkt)
	}
}

// meshReceiver is a Device seen as the radio.Receiver of its mesh station.
// A conversion, (*meshReceiver)(d), not a wrapper: it allocates nothing.
type meshReceiver Device

// Receive implements radio.Receiver.
func (r *meshReceiver) Receive(pkt *packet.Packet) { (*Device)(r).receiveMesh(pkt) }

// receiveMesh handles a mesh-layer delivery.
func (d *Device) receiveMesh(pkt *packet.Packet) {
	w := d.world
	if !d.alive {
		return
	}
	if !d.battery.DrawRx(d.model.RxCost(pkt.SizeBits())) {
		w.kill(d, CauseBattery)
		return
	}
	if pkt.To != packet.Broadcast && pkt.To != d.id && !d.promisc {
		return
	}
	if d.meshHandler != nil {
		d.meshHandler(pkt)
	}
}

// Fail kills the device immediately (hardware fault, capture, etc.). The
// robustness experiments (E6, E7) use this.
func (d *Device) Fail() { d.world.kill(d, CauseFailure) }

// FailCause kills the device recording the given cause; the fault injector
// uses it with CauseInjected so scheduled crashes are distinguishable from
// organic failures in Deaths().
func (d *Device) FailCause(c DeathCause) { d.world.kill(d, c) }

// Recover revives a previously killed device: the radio stations are
// re-attached at the position and ranges saved when it died, and the device
// resumes with whatever battery charge remains (a battery-dead sensor will
// die again on its next operation). Protocol state survives intact — the
// stack and mesh handler were never torn down — so a recovered mesh router
// re-joins the backbone on its next HELLO tick. Recover reports whether it
// actually revived the device (false when it is already alive).
func (d *Device) Recover() bool {
	w := d.world
	if d.alive {
		return false
	}
	snap := d.snap
	if snap.hadSensor {
		d.sensorSt = w.sensorMedium.Attach(d.id, snap.pos, snap.sensorRange, d)
		d.sensorSt.SetListening(snap.sensorListening)
	}
	if snap.hadMesh {
		d.meshSt = w.meshMedium.Attach(d.id, snap.pos, snap.meshRange, (*meshReceiver)(d))
	}
	d.alive = true
	if d.kind == Sensor {
		w.sensorsAlive++
	}
	if w.obs.Active() {
		w.obs.Emit(obs.Event{At: w.kernel.Now(), Kind: obs.NodeRecover, Node: d.id})
	}
	return true
}

// Config configures a World.
type Config struct {
	Seed        int64
	SensorRadio radio.Config
	MeshRadio   radio.Config
	// EnergyModel charges radio operations; nil selects energy.DefaultFixed.
	EnergyModel energy.Model
	// SensorBattery is the initial charge per sensor node in joules;
	// 0 selects 2 J (a practical simulation default; full AA cells would
	// make lifetime runs take forever).
	SensorBattery float64
	// Obs is the observability event bus. Nil (the default) disables
	// tracing entirely: the bus pointer is propagated but every emission
	// site is guarded by obs.Bus.Active, so untraced runs pay one branch
	// per site and allocate nothing.
	Obs *obs.Bus
}

// DeathRecord describes a device death.
type DeathRecord struct {
	ID    packet.NodeID
	At    sim.Time
	Cause DeathCause
}

// World owns the kernel, the media and the devices of one simulation.
type World struct {
	kernel       *sim.Kernel
	sensorMedium *radio.Medium
	meshMedium   *radio.Medium
	cfg          Config

	devices map[packet.NodeID]*Device
	order   []packet.NodeID // insertion order, for deterministic iteration

	deaths       []DeathRecord
	firstDeath   sim.Time
	sensorsAlive int
	sensorsTotal int
	onDeath      []func(DeathRecord)
	obs          *obs.Bus
}

// NewWorld builds an empty world.
func NewWorld(cfg Config) *World {
	if cfg.SensorRadio.BitRate == 0 {
		cfg.SensorRadio = radio.SensorRadio()
	}
	if cfg.MeshRadio.BitRate == 0 {
		cfg.MeshRadio = radio.MeshRadio()
	}
	if cfg.EnergyModel == nil {
		cfg.EnergyModel = energy.DefaultFixed
	}
	if cfg.SensorBattery == 0 {
		cfg.SensorBattery = 2.0
	}
	cfg.SensorRadio.Obs = cfg.Obs
	cfg.MeshRadio.Obs = cfg.Obs
	k := sim.NewKernel(cfg.Seed)
	return &World{
		kernel:       k,
		sensorMedium: radio.New(k, cfg.SensorRadio),
		meshMedium:   radio.New(k, cfg.MeshRadio),
		cfg:          cfg,
		devices:      make(map[packet.NodeID]*Device),
		firstDeath:   -1,
		obs:          cfg.Obs,
	}
}

// Obs returns the world's observability bus — possibly nil, which is itself
// a valid, inert bus. Protocol stacks reach the bus through here to emit
// Reroute and PacketExpired events.
func (w *World) Obs() *obs.Bus { return w.obs }

// Kernel returns the event kernel.
func (w *World) Kernel() *sim.Kernel { return w.kernel }

// SensorMedium returns the sensor-layer medium.
func (w *World) SensorMedium() *radio.Medium { return w.sensorMedium }

// MeshMedium returns the mesh backbone medium.
func (w *World) MeshMedium() *radio.Medium { return w.meshMedium }

// Device returns the device with the given ID, or nil.
func (w *World) Device(id packet.NodeID) *Device { return w.devices[id] }

// Devices returns all devices in insertion order.
func (w *World) Devices() []*Device {
	out := make([]*Device, 0, len(w.order))
	for _, id := range w.order {
		if d, ok := w.devices[id]; ok {
			out = append(out, d)
		}
	}
	return out
}

// DevicesOfKind returns devices of kind k in insertion order.
func (w *World) DevicesOfKind(k Kind) []*Device {
	var out []*Device
	for _, d := range w.Devices() {
		if d.kind == k {
			out = append(out, d)
		}
	}
	return out
}

// newDevice builds a live device about to join the world. The duplicate
// check runs before any station is attached.
func (w *World) newDevice(id packet.NodeID, kind Kind, bat energy.Battery, stack Stack) *Device {
	if _, dup := w.devices[id]; dup {
		panic(fmt.Sprintf("node: device %v added twice", id))
	}
	return &Device{
		id: id, kind: kind, world: w,
		alive: true, battery: bat,
		model: w.cfg.EnergyModel,
		stack: stack,
	}
}

func (w *World) register(d *Device) {
	w.devices[d.id] = d
	w.order = append(w.order, d.id)
	if d.kind == Sensor {
		w.sensorsAlive++
		w.sensorsTotal++
	}
	if d.stack != nil {
		d.stack.Start(d)
	}
}

// AddSensor creates a sensor node with the given radio range and battery
// capacity (0 selects the world default) running stack.
func (w *World) AddSensor(id packet.NodeID, pos geom.Point, rangeM float64, batteryJ float64, stack Stack) *Device {
	if batteryJ == 0 {
		batteryJ = w.cfg.SensorBattery
	}
	d := w.newDevice(id, Sensor, *energy.NewBattery(batteryJ), stack)
	d.sensorSt = w.sensorMedium.Attach(id, pos, rangeM, d)
	w.register(d)
	return d
}

// AddGateway creates a WMG attached to both media with unrestricted energy.
func (w *World) AddGateway(id packet.NodeID, pos geom.Point, sensorRange, meshRange float64, stack Stack) *Device {
	d := w.newDevice(id, Gateway, *energy.Infinite(), stack)
	d.sensorSt = w.sensorMedium.Attach(id, pos, sensorRange, d)
	d.meshSt = w.meshMedium.Attach(id, pos, meshRange, (*meshReceiver)(d))
	w.register(d)
	return d
}

// AddMeshRouter creates a WMR attached to the mesh medium only.
func (w *World) AddMeshRouter(id packet.NodeID, pos geom.Point, meshRange float64) *Device {
	d := w.newDevice(id, MeshRouter, *energy.Infinite(), nil)
	d.meshSt = w.meshMedium.Attach(id, pos, meshRange, (*meshReceiver)(d))
	w.register(d)
	return d
}

// AddBaseStation creates a base station on the mesh medium.
func (w *World) AddBaseStation(id packet.NodeID, pos geom.Point, meshRange float64) *Device {
	d := w.newDevice(id, BaseStation, *energy.Infinite(), nil)
	d.meshSt = w.meshMedium.Attach(id, pos, meshRange, (*meshReceiver)(d))
	w.register(d)
	return d
}

// OnDeath registers a callback invoked whenever a device dies.
func (w *World) OnDeath(fn func(DeathRecord)) { w.onDeath = append(w.onDeath, fn) }

func (w *World) kill(d *Device, cause DeathCause) {
	if !d.alive {
		return
	}
	d.alive = false
	d.arqFlush()
	snap := attachSnapshot{pos: d.Pos()}
	snap.hadSensor, snap.hadMesh = d.sensorSt != nil, d.meshSt != nil
	if d.sensorSt != nil {
		snap.sensorRange = d.sensorSt.Range()
		snap.sensorListening = d.sensorSt.Listening()
		w.sensorMedium.Detach(d.id)
		d.sensorSt = nil
	}
	if d.meshSt != nil {
		snap.meshRange = d.meshSt.Range()
		w.meshMedium.Detach(d.id)
		d.meshSt = nil
	}
	d.snap = snap
	rec := DeathRecord{ID: d.id, At: d.Now(), Cause: cause}
	w.deaths = append(w.deaths, rec)
	if w.obs.Active() {
		k := obs.NodeDeath
		if d.kind == Gateway {
			k = obs.GatewayDeath
		}
		w.obs.Emit(obs.Event{At: rec.At, Kind: k, Node: d.id, Detail: rec.Cause.String()})
	}
	if d.kind == Sensor {
		w.sensorsAlive--
		if w.firstDeath < 0 {
			w.firstDeath = rec.At
		}
	}
	for _, fn := range w.onDeath {
		fn(rec)
	}
}

// Deaths returns all death records in order of occurrence.
func (w *World) Deaths() []DeathRecord { return w.deaths }

// FirstSensorDeath returns the time the first sensor battery died — the
// paper's network lifetime (§5.3) — or -1 if all sensors are still alive.
func (w *World) FirstSensorDeath() sim.Time { return w.firstDeath }

// SensorsAlive returns the count of living sensor nodes.
func (w *World) SensorsAlive() int { return w.sensorsAlive }

// SensorsTotal returns the number of sensors ever added.
func (w *World) SensorsTotal() int { return w.sensorsTotal }

// SensorEnergyStats summarizes battery use across sensor nodes.
func (w *World) SensorEnergyStats() energy.Stats {
	var bats []*energy.Battery
	for _, d := range w.Devices() {
		if d.kind == Sensor {
			bats = append(bats, &d.battery)
		}
	}
	return energy.Summarize(bats)
}

// Run drives the simulation until the given horizon.
func (w *World) Run(until sim.Time) uint64 { return w.kernel.Run(until) }

// RunUntilIdle drives the simulation until no events remain.
func (w *World) RunUntilIdle() uint64 { return w.kernel.RunAll() }

// MinSensorBatteryFraction returns the lowest remaining-battery fraction
// among living sensors, 1 when none.
func (w *World) MinSensorBatteryFraction() float64 {
	min := 1.0
	for _, d := range w.Devices() {
		if d.kind == Sensor && d.alive {
			min = math.Min(min, d.battery.FractionRemaining())
		}
	}
	return min
}
