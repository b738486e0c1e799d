// Package wmsn is a discrete-event simulator and protocol library for
// Wireless Mesh Sensor Networks, reproducing Tang et al., "Wireless Mesh
// Sensor Networks in Pervasive Environment: a Reliable Architecture and
// Routing Protocol" (ICPP 2007; extended journal version "Secure Routing
// for Wireless Mesh Sensor Networks in Pervasive Environments", IJICS
// 12(4), 2007).
//
// The library provides:
//
//   - The paper's three routing protocols: SPR (shortest-path routing to
//     the best of m gateways), MLR (maximal-network-lifetime routing with
//     round-based gateway mobility and incremental routing tables), and
//     SecMLR (MLR hardened with pairwise keys, MACs, counters and µTESLA
//     broadcast authentication).
//   - The substrates they need: a deterministic event kernel, a unit-disk
//     radio model with loss and collisions, battery/energy accounting, a
//     link-state wireless mesh backbone with self-healing, and a
//     symmetric-crypto toolkit.
//   - Flat-architecture baselines (flooding, direct, MCFA, LEACH,
//     PEGASIS), eight network-layer attacks, gateway placement models, a
//     deterministic fault-injection subsystem (Config.Faults), a reliable
//     link layer with hop-by-hop ARQ (Params.LinkRetries), and the full
//     experiment suite (E1–E15) behind cmd/wmsnbench.
//
// Quick start:
//
//	res, err := wmsn.RunContext(ctx, wmsn.Config{
//	    Seed: 1, Protocol: wmsn.SPR,
//	    NumSensors: 100, Side: 200, SensorRange: 35, NumGateways: 3,
//	})
//	if err != nil { ... } // errors.Is(err, wmsn.ErrCanceled) on cancellation
//	fmt.Println(res.Metrics.DeliveryRatio())
//
// The run API has three entry points. RunContext runs one configuration;
// RunEach runs a sweep on a worker pool and delivers bit-identical results
// in submission order at any worker count; BuildE builds a network that
// the caller drives by hand (Net.RunTraffic, or StartTraffic and
// World.Run). All three validate the configuration and report a bad one as
// an error; RunContext and RunEach also honor context cancellation and
// deadlines (a canceled run stops the kernel within one event batch). For
// running simulations as a network service, see cmd/wmsnd.
//
// See examples/ for richer scenarios and DESIGN.md for the system map.
package wmsn

import (
	"context"

	"wmsn/internal/attack"
	"wmsn/internal/core"
	"wmsn/internal/energy"
	"wmsn/internal/experiments"
	"wmsn/internal/fault"
	"wmsn/internal/geom"
	"wmsn/internal/mesh"
	"wmsn/internal/metrics"
	"wmsn/internal/node"
	"wmsn/internal/obs"
	"wmsn/internal/packet"
	"wmsn/internal/protocol"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

// Geometry and identity.
type (
	// Point is a planar location in meters.
	Point = geom.Point
	// Rect is an axis-aligned region.
	Rect = geom.Rect
	// NodeID identifies a node.
	NodeID = packet.NodeID
	// Packet is one frame on the simulated air. It is immutable once sent:
	// every listener receives the sender's own frame.
	Packet = packet.Packet
)

// Virtual time.
type (
	// Time is a virtual instant in microseconds.
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
)

// Time units.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// Scenario plumbing: Config describes an experiment, Net is a built network,
// Result summarizes a completed run.
type (
	Config   = scenario.Config
	Net      = scenario.Net
	Result   = scenario.Result
	Protocol = scenario.Protocol
	// Metrics aggregates end-to-end protocol behaviour.
	Metrics = core.Metrics
)

// Protocols.
const (
	SPR      = scenario.SPR
	MLR      = scenario.MLR
	SecMLR   = scenario.SecMLR
	Flooding = scenario.Flooding
	Direct   = scenario.Direct
	MCFA     = scenario.MCFA
	LEACH    = scenario.LEACH
	PEGASIS  = scenario.PEGASIS
)

// Protocol registry: external packages plug new routing protocols into the
// scenario/experiment machinery by registering a builder (typically from an
// init function), then referencing its ID in Config.Protocol.
type (
	// ProtocolBuilder is a named protocol factory plus its capability set.
	ProtocolBuilder = protocol.Builder
	// ProtocolEnv is the prepared world a builder instantiates into.
	ProtocolEnv = protocol.Env
	// ProtocolInstance is what a builder hands back to the scenario.
	ProtocolInstance = protocol.Instance
	// ProtocolCapabilities describes what a protocol supports.
	ProtocolCapabilities = protocol.Capabilities
	// Originator is any sensor stack that can produce a reading.
	Originator = protocol.Originator
)

// RegisterProtocol adds a protocol builder to the registry. It panics on an
// empty ID, nil build function, or duplicate registration.
func RegisterProtocol(b ProtocolBuilder) { protocol.Register(b) }

// RegisteredProtocols lists every registered protocol ID in sorted order.
func RegisteredProtocols() []Protocol { return protocol.IDs() }

// MetricsSink receives lifecycle events and counters from protocol and radio
// layers: every protocol reports through it (ProtocolEnv.Metrics).
type MetricsSink = metrics.Sink

// FaultPlan is a declarative, validated fault schedule. Declared on
// Config.Faults, it schedules deterministic crashes, recoveries, gateway
// kills, loss degradation and background churn; the run's Result then
// carries a Reliability summary.
type FaultPlan = fault.Plan

// NewFaultPlan returns an empty fault plan; chain CrashAt, RecoverAt,
// KillGateway, DegradeLinks, DegradeAll, RampLoss, WithChurn and Settle to
// populate it.
func NewFaultPlan() *FaultPlan { return fault.NewPlan() }

// ErrCanceled marks a run stopped by context cancellation or deadline.
// Errors from RunContext and RunEach match it with errors.Is; the
// context's own cause (context.Canceled, context.DeadlineExceeded, or a
// custom cancel cause) stays in the chain.
var ErrCanceled = scenario.ErrCanceled

// RunContext builds the network described by cfg, drives its reporting
// workload to the horizon, and returns the aggregated result. The
// configuration is validated first (see Config.Validate) and every
// misconfiguration — negative counts, loss rates outside [0,1),
// schedule/gateway mismatches, fault times past the horizon — comes back as
// one joined, actionable error.
//
// Cancellation and deadlines on ctx reach into the event kernel: a canceled
// run stops within one event batch (a few thousand events, microseconds of
// work) and returns an error matching ErrCanceled. A background or
// never-canceled context adds no overhead and changes no results.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	return scenario.RunContext(ctx, cfg)
}

// RunEach runs independent scenarios on a bounded worker pool, canceling
// the remaining runs when ctx fires. workers <= 0 uses one worker per CPU;
// workers == 1 runs sequentially. fn receives each result as soon as it and
// all earlier runs finish — exactly once per index, in ascending submission
// order, on the calling goroutine — so a sweep's early results are
// consumable while later runs still execute. The delivered results are
// byte-identical to calling RunContext on each config in turn, at any
// worker count. The first (lowest-index) error, validation or cancellation,
// is also the return value.
func RunEach(ctx context.Context, workers int, cfgs []Config, fn func(i int, r Result, err error)) error {
	return scenario.RunEach(ctx, workers, cfgs, fn)
}

// BuildE constructs the network for cfg without starting traffic, for
// callers that want to inject attackers or custom workloads first, and
// reports an invalid configuration as an error. A hand-driven Net bypasses
// the cancellation machinery of RunContext, so prefer expressing the
// scenario declaratively when the hooks below suffice.
//
// Scheduled failures are better expressed declaratively via Config.Faults,
// which keeps runs reproducible under RunEach and yields a Reliability
// summary. The imperative hooks remain for what a schedule cannot express:
// Config.Mutate for installing adversary stacks, trace taps and replayers
// once the network exists, and Config.StackWrapper for compromising a
// subset of otherwise-legitimate nodes in place (insider attacks).
func BuildE(cfg Config) (*Net, error) { return scenario.BuildE(cfg) }

// GatewayID returns the node ID of the i-th gateway in a scenario.
func GatewayID(i int) NodeID { return scenario.GatewayID(i) }

// HotspotDeploy, a Config.Deploy strategy, concentrates a fraction of
// sensors in a sub-region (the default scatters them uniformly).
type HotspotDeploy = geom.Hotspot

// Energy models for Config.EnergyModel: a constant charge per bit (§5.2
// assumption) and the Heinzelman first-order radio model.
var (
	DefaultFixedEnergy      = energy.DefaultFixed
	DefaultFirstOrderEnergy = energy.DefaultFirstOrder
)

// Core protocol types, for callers assembling networks by hand (see the
// node and core packages' docs for the full surface).
type (
	// World owns the kernel, media and devices of one simulation.
	World = node.World
	// Stack is a protocol state machine attached to a device.
	Stack = node.Stack
	// Params tunes protocol timing.
	Params = core.Params
)

// Observability: the typed event bus every layer publishes into when tracing
// is enabled (Config.Obs), and the sinks that consume the stream. See
// internal/obs and cmd/wmsntrace.
type (
	// TraceBus is the observability event bus; nil disables tracing.
	TraceBus = obs.Bus
	// TraceEventRecord is one traced action with its virtual timestamp.
	TraceEventRecord = obs.Event
	// TraceSink consumes traced events.
	TraceSink = obs.Sink
	// TraceSinkFunc adapts a plain function into a TraceSink.
	TraceSinkFunc = obs.SinkFunc
	// TraceSeries is the time-bucketed series sink.
	TraceSeries = obs.Series
)

// TracePacketDelivered is the traced kind of a reading reaching a gateway;
// internal/obs lists the others.
const TracePacketDelivered = obs.PacketDelivered

// NewTraceBus returns an event bus with the given sinks attached.
func NewTraceBus(sinks ...obs.Sink) *TraceBus { return obs.NewBus(sinks...) }

// NewWorld builds an empty world with the given seed and defaults.
func NewWorld(seed int64) *World { return node.NewWorld(node.Config{Seed: seed}) }

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics { return core.NewMetrics() }

// DefaultParams returns the default protocol parameters.
func DefaultParams() Params { return core.DefaultParams() }

// SPR stack constructors (sensor side / gateway side) and SecMLR key
// pre-distribution.
var (
	NewSPRSensor  = core.NewSPRSensor
	NewSPRGateway = core.NewSPRGateway
	ProvisionKeys = core.ProvisionKeys
)

// Mesh backbone (the middle layer of the architecture).
type (
	// MeshBackbone wires devices into one routed mesh.
	MeshBackbone = mesh.Backbone
	// MeshConfig tunes the mesh control plane.
	MeshConfig = mesh.Config
)

// Mesh constructors.
var (
	NewMeshBackbone   = mesh.NewBackbone
	DefaultMeshConfig = mesh.DefaultConfig
)

// Attacks, for security evaluations.
type (
	// SelectiveForwarder drops a fraction of forwarded data (grayhole).
	SelectiveForwarder = attack.SelectiveForwarder
	// Replayer captures and re-injects packets.
	Replayer = attack.Replayer
	// Sinkhole forges irresistible routes and swallows traffic.
	Sinkhole = attack.Sinkhole
)

// NewReplayer builds a Replayer that re-injects captured packets of the
// given kinds (default: DATA only) after a delay.
var NewReplayer = attack.NewReplayer

// Experiments exposes the reproduction suite (E1..E15) programmatically;
// cmd/wmsnbench is its CLI.
type (
	// Experiment is one reproduction experiment.
	Experiment = experiments.Experiment
	// ExperimentOpts scales an experiment run.
	ExperimentOpts = experiments.Opts
	// Table is an aligned text table of results.
	Table = trace.Table
)

// AllExperiments returns the suite in order.
func AllExperiments() []Experiment { return experiments.All() }
