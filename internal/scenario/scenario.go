// Package scenario binds the simulator substrates into runnable
// experiments: it deploys a sensor field, installs a routing protocol
// (core SPR/MLR/SecMLR or a baseline), drives periodic traffic, optionally
// injects adversaries and failures, and collects the metrics every
// experiment in EXPERIMENTS.md reads.
package scenario

import (
	"context"
	"errors"
	"fmt"
	"math"

	"wmsn/internal/baseline"
	"wmsn/internal/core"
	"wmsn/internal/energy"
	"wmsn/internal/fault"
	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/obs"
	"wmsn/internal/packet"
	"wmsn/internal/protocol"
	"wmsn/internal/radio"
	"wmsn/internal/sensing"
	"wmsn/internal/sim"
)

// Protocol selects the routing protocol under test. It aliases protocol.ID:
// any Builder registered with the protocol registry — including ones added
// by external packages or tests — can be named here.
type Protocol = protocol.ID

// The built-in protocols, re-exported for convenience.
const (
	SPR       = protocol.SPR       // §5.2, multi-gateway shortest path
	MLR       = protocol.MLR       // §5.3, lifetime-maximizing rounds
	SecMLR    = protocol.SecMLR    // §6.2, secured MLR
	Flooding  = protocol.Flooding  // flat baseline
	Gossiping = protocol.Gossiping // flat baseline
	Direct    = protocol.Direct    // single-hop baseline
	MCFA      = protocol.MCFA      // cost-field baseline
	LEACH     = protocol.LEACH     // cluster baseline
	PEGASIS   = protocol.PEGASIS   // chain baseline
	SPIN      = protocol.SPIN      // negotiation baseline
)

// Originator is any sensor stack that can produce a reading.
type Originator = protocol.Originator

// Config describes one experiment run. Zero fields take defaults from
// Defaults.
type Config struct {
	Seed int64
	// Protocol under test.
	Protocol Protocol
	// NumSensors nodes deployed by Deploy in a Side x Side region.
	NumSensors int
	Side       float64
	Deploy     geom.Deployer
	// SensorRange is the sensor-layer radio range.
	SensorRange float64
	// NumGateways (or the single sink for flat baselines).
	NumGateways int
	// Places are the MLR feasible places; empty derives a grid of
	// 2*NumGateways places. For SPR and baselines only the first
	// NumGateways places are used as static positions.
	Places []geom.Point
	// Schedule is the MLR round schedule; empty derives a rotation.
	Schedule [][]int
	RoundLen sim.Duration
	// Rounds bounds the derived rotation schedule length.
	Rounds int

	// Traffic: every sensor originates one PayloadSize-byte reading each
	// ReportInterval, starting after a warmup.
	ReportInterval sim.Duration
	PayloadSize    int
	Warmup         sim.Duration

	// RunFor is the simulated horizon.
	RunFor sim.Time
	// StopAtFirstDeath ends the run when the first sensor battery dies
	// (lifetime experiments).
	StopAtFirstDeath bool

	// Energy / battery.
	EnergyModel   energy.Model
	SensorBattery float64

	// Radio imperfections.
	LossRate   float64
	Collisions bool
	// CSMA enables carrier sensing with random backoff on the sensor
	// medium (pairs naturally with Collisions).
	CSMA bool

	// LEACH-specific.
	LEACHProb float64

	// TEEN, when non-nil, replaces unconditional periodic reporting with
	// threshold-sensitive reporting (§2.2.2 [18]): each ReportInterval the
	// sensor samples the field at its position and transmits only when the
	// TEEN filter fires. The sensed value rides in the payload.
	TEEN *TEENConfig

	// NoShortcutAnswers disables SPR/MLR's cached-route answering
	// (Property-1 shortcut) — the ablation of experiment E12.
	NoShortcutAnswers bool

	// Params, when non-nil, overrides the protocol parameters entirely
	// (timing windows, TTLs, retry budgets). NoShortcutAnswers still
	// applies on top.
	Params *core.Params

	// Faults, when non-nil, attaches a deterministic fault plan to the
	// run: scheduled crashes, recoveries, gateway kills, loss degradation
	// and background churn, executed on the run's own kernel (see
	// internal/fault). A fault plan auto-enables gateway liveness
	// advertisements (Params.AdvertInterval = 1s) unless Params is set
	// explicitly; the resulting Result carries a Reliability summary.
	Faults *fault.Plan

	// Obs, when non-nil, attaches the observability event bus to the run:
	// the kernel-adjacent layers (radio medium, link ARQ, routing stacks,
	// fault injector, node lifecycle, metrics) emit typed events into it,
	// and when Obs.Sample is set a kernel-scheduled sampler additionally
	// emits periodic gauge events (in-flight packets, ARQ queue depth,
	// sensors alive, mean energy). The sampler only reads state, so a
	// traced run's Result is identical to an untraced one. Each run must
	// own its bus — sharing one across RunMany configs would interleave
	// event streams nondeterministically.
	Obs *obs.Bus

	// Hooks: Mutate runs after the network is built but before traffic
	// starts (install attackers, schedule failures, ...). Prefer Faults
	// for crash/recovery/loss schedules — Mutate remains the escape hatch
	// for custom stacks, adversaries and trace taps. StackWrapper, when
	// set, wraps every sensor stack at creation — the hook insider
	// attacks (selective forwarding, ACK spoofing) use to compromise a
	// subset of legitimate nodes while keeping them on routing paths.
	Mutate       func(n *Net)
	StackWrapper func(id packet.NodeID, st node.Stack) node.Stack

	// Progress, when non-nil, receives a live watermark while the run
	// executes: sim-time and events fired published by the kernel every
	// event batch, fresh deliveries counted by the metrics sink, and Done
	// flipped when RunTraffic returns. Any goroutine may
	// Progress.Snapshot() at any time. Each run must own its probe — see
	// ProgressBoard for multi-run jobs. The probe only ever reads watermark
	// state, so a watched run's Result is identical to an unwatched one.
	Progress *sim.Progress
}

// TEENConfig configures threshold-sensitive reporting.
type TEENConfig struct {
	// Field is the sensed environment.
	Field sensing.Field
	// Hard and Soft are the TEEN thresholds.
	Hard, Soft float64
}

// Defaults fills unset fields.
func Defaults(cfg Config) Config {
	if cfg.Protocol == "" {
		cfg.Protocol = SPR
	}
	if cfg.NumSensors == 0 {
		cfg.NumSensors = 100
	}
	if cfg.Side == 0 {
		cfg.Side = 200
	}
	if cfg.Deploy == nil {
		cfg.Deploy = geom.Uniform{}
	}
	if cfg.SensorRange == 0 {
		cfg.SensorRange = 35
	}
	if cfg.NumGateways == 0 {
		cfg.NumGateways = 3
	}
	if cfg.RoundLen == 0 {
		cfg.RoundLen = 100 * sim.Second
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 8
	}
	if cfg.ReportInterval == 0 {
		cfg.ReportInterval = 10 * sim.Second
	}
	if cfg.PayloadSize == 0 {
		cfg.PayloadSize = 16
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = sim.Second
	}
	if cfg.RunFor == 0 {
		cfg.RunFor = 120 * sim.Second
	}
	if cfg.EnergyModel == nil {
		cfg.EnergyModel = energy.DefaultFixed
	}
	if cfg.SensorBattery == 0 {
		cfg.SensorBattery = 2.0
	}
	if cfg.LEACHProb == 0 {
		cfg.LEACHProb = 0.05
	}
	return cfg
}

// Validate checks the configuration for contradictions that Build would
// otherwise turn into a panic or a silently meaningless run. Defaults are
// applied first, so a zero field is never an error — only an explicitly
// wrong value is. All problems are reported at once via errors.Join, each
// with the offending value and the constraint it violates.
func (cfg Config) Validate() error {
	c := Defaults(cfg)
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	b, known := protocol.Lookup(c.Protocol)
	if !known {
		fail("unknown protocol %q — register a builder or use one of the built-ins", c.Protocol)
	}
	if c.NumSensors < 0 {
		fail("NumSensors %d is negative — deploy at least one sensor", c.NumSensors)
	}
	if c.NumGateways < 0 {
		fail("NumGateways %d is negative — need at least one gateway or sink", c.NumGateways)
	}
	if c.Side < 0 {
		fail("Side %g is negative — the region is a Side x Side square", c.Side)
	}
	if c.SensorRange < 0 {
		fail("SensorRange %g is negative — radio range must be positive metres", c.SensorRange)
	}
	if c.ReportInterval < 0 {
		fail("ReportInterval %v is negative", c.ReportInterval)
	}
	if c.Warmup < 0 {
		fail("Warmup %v is negative", c.Warmup)
	}
	if c.RunFor < 0 {
		fail("RunFor %v is negative", c.RunFor)
	}
	if c.RoundLen < 0 {
		fail("RoundLen %v is negative", c.RoundLen)
	}
	if c.PayloadSize < 0 {
		fail("PayloadSize %d is negative", c.PayloadSize)
	}
	if c.SensorBattery < 0 {
		fail("SensorBattery %g J is negative", c.SensorBattery)
	}
	if c.LossRate < 0 || c.LossRate >= 1 || math.IsNaN(c.LossRate) {
		fail("LossRate %v outside [0,1) — 1 would lose every frame", c.LossRate)
	}
	if c.LEACHProb <= 0 || c.LEACHProb > 1 {
		fail("LEACHProb %v outside (0,1] — it is a cluster-head election probability", c.LEACHProb)
	}
	numPlaces := len(c.Places)
	if numPlaces == 0 {
		numPlaces = c.NumGateways
		if known && b.Caps.MobilityRounds {
			numPlaces = 2 * c.NumGateways
		}
	}
	for r, row := range c.Schedule {
		if len(row) != c.NumGateways {
			fail("Schedule row %d has %d entries, want one place per gateway (%d)", r, len(row), c.NumGateways)
			continue
		}
		for g, p := range row {
			if p < 0 || p >= numPlaces {
				fail("Schedule row %d gateway %d: place %d out of range [0,%d)", r, g, p, numPlaces)
			}
		}
	}
	if c.TEEN != nil && c.TEEN.Field == nil {
		fail("TEEN reporting configured with a nil Field — nothing to sense")
	}
	if p := c.Params; p != nil {
		if p.LinkRetries < 0 {
			fail("Params.LinkRetries %d is negative — 0 disables link ARQ", p.LinkRetries)
		}
		if p.LinkRetries > 0 && p.LinkAckWait <= 0 {
			fail("Params.LinkAckWait %v with LinkRetries %d — retransmissions need a positive ACK timeout", p.LinkAckWait, p.LinkRetries)
		}
		if p.ForwardQueueLimit < 0 {
			fail("Params.ForwardQueueLimit %d is negative — 0 selects the default bound", p.ForwardQueueLimit)
		}
	}
	if err := c.Faults.Validate(c.RunFor); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// Net is a built, running experiment network.
type Net struct {
	Cfg           Config
	World         *node.World
	Metrics       *core.Metrics
	Region        geom.Rect
	SensorIDs     []packet.NodeID
	GatewayIDs    []packet.NodeID
	Places        []geom.Point
	Originators   map[packet.NodeID]Originator
	Rounds        *core.Rounds
	LEACHRounds   *baseline.LEACHRounds
	PegasisRounds *baseline.PegasisRounds

	trafficStop []*sim.Repeater
	teens       []*sensing.TEEN
	injector    *fault.Injector
}

// GatewayID of the i-th gateway. The base sits far above any realistic
// sensor count so scenario IDs never collide.
func GatewayID(i int) packet.NodeID { return packet.NodeID(1_000_000 + i) }

// Build constructs the network for cfg without starting traffic. It is the
// panicking wrapper over BuildE for call sites that treat a bad
// configuration as a programming error.
func Build(cfg Config) *Net {
	n, err := BuildE(cfg)
	if err != nil {
		panic(err.Error())
	}
	return n
}

// BuildE constructs the network for cfg without starting traffic. The
// configuration is validated first (see Config.Validate); the protocol is
// then resolved through the protocol registry, and any Builder rejection
// (e.g. no feasible round schedule exists) comes back as an error rather
// than a panic.
func BuildE(cfg Config) (*Net, error) {
	return buildE(cfg, nil)
}

// buildE is BuildE with an optional run arena: when ar is non-nil the world
// adopts its recycled kernel/radio storage, and the caller is responsible
// for harvesting it back (World.ReleasePools) once the run is over.
func buildE(cfg Config, ar *runArena) (*Net, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: invalid config: %w", err)
	}
	cfg = Defaults(cfg)
	b, ok := protocol.Lookup(cfg.Protocol)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown protocol %q", cfg.Protocol)
	}
	region := geom.Square(cfg.Side)
	m := core.NewMetrics()
	m.SetObserver(cfg.Obs)
	wcfg := node.Config{
		Seed: cfg.Seed,
		SensorRadio: radio.Config{
			BitRate:    250_000,
			PropDelay:  50 * sim.Microsecond,
			LossRate:   cfg.LossRate,
			Collisions: cfg.Collisions,
			CSMA:       cfg.CSMA,
			Metrics:    m,
		},
		EnergyModel:   cfg.EnergyModel,
		SensorBattery: cfg.SensorBattery,
		Obs:           cfg.Obs,
	}
	if ar != nil {
		wcfg.EventPool = &ar.events
		wcfg.SensorPool = &ar.sensor
		wcfg.MeshPool = &ar.mesh
	}
	w := node.NewWorld(wcfg)
	if cfg.Progress != nil {
		w.Kernel().SetProgress(cfg.Progress)
		m.SetProgress(cfg.Progress)
	}
	n := &Net{
		Cfg:     cfg,
		World:   w,
		Metrics: m,
		Region:  region,
	}
	sensors := cfg.Deploy.Deploy(cfg.NumSensors, region, w.Kernel().Rand())

	// Feasible places / gateway positions. Mobility protocols default to
	// twice as many feasible places as gateways so rotation has somewhere
	// to go (§5.3); everyone else gets one place per gateway.
	n.Places = cfg.Places
	if len(n.Places) == 0 {
		numPlaces := cfg.NumGateways
		if b.Caps.MobilityRounds {
			numPlaces = 2 * cfg.NumGateways
		}
		n.Places = geom.PlaceGrid(numPlaces, region)
	}
	for i := 0; i < cfg.NumGateways; i++ {
		n.GatewayIDs = append(n.GatewayIDs, GatewayID(i))
	}
	for i := range sensors {
		n.SensorIDs = append(n.SensorIDs, packet.NodeID(i+1))
	}

	params := core.DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	} else if cfg.Faults != nil {
		// A fault plan without explicit params turns on gateway liveness
		// advertisements so SPR/MLR can detect dead gateways and fail over.
		params.AdvertInterval = sim.Second
	}
	params.NoShortcutAnswers = cfg.NoShortcutAnswers
	wrap := func(id packet.NodeID, st node.Stack) node.Stack {
		if cfg.StackWrapper != nil {
			return cfg.StackWrapper(id, st)
		}
		return st
	}
	inst, err := b.Build(&protocol.Env{
		World:          w,
		Metrics:        n.Metrics,
		Params:         params,
		SensorIDs:      n.SensorIDs,
		SensorPos:      sensors,
		GatewayIDs:     n.GatewayIDs,
		Places:         n.Places,
		Schedule:       cfg.Schedule,
		Rounds:         cfg.Rounds,
		RoundLen:       cfg.RoundLen,
		ReportInterval: cfg.ReportInterval,
		LEACHProb:      cfg.LEACHProb,
		SensorRange:    cfg.SensorRange,
		Side:           cfg.Side,
		Wrap:           wrap,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	n.Originators = inst.Originators
	n.Rounds = inst.Rounds
	n.LEACHRounds = inst.LEACHRounds
	n.PegasisRounds = inst.PegasisRounds

	if cfg.Faults != nil {
		n.injector = fault.Attach(cfg.Faults, fault.Env{
			World:    w,
			Metrics:  n.Metrics,
			Gateways: n.GatewayIDs,
			Sensors:  n.SensorIDs,
			Horizon:  cfg.RunFor,
			Seed:     cfg.Seed,
		})
	}

	if b := cfg.Obs; b != nil && b.Sample > 0 {
		b := b
		w.Kernel().Every(b.Sample, func() {
			if !b.Active() {
				return
			}
			now := w.Kernel().Now()
			b.Emit(obs.Event{At: now, Kind: obs.Sample, Detail: "in_flight", Value: int64(m.PendingCount())})
			b.Emit(obs.Event{At: now, Kind: obs.Sample, Detail: "queue_depth", Value: int64(w.LinkQueueDepth())})
			b.Emit(obs.Event{At: now, Kind: obs.Sample, Detail: "sensors_alive", Value: int64(w.SensorsAlive())})
			b.Emit(obs.Event{At: now, Kind: obs.Sample, Detail: "energy_uj", Value: int64(w.SensorEnergyStats().Mean * 1e6)})
		})
	}

	if cfg.Mutate != nil {
		cfg.Mutate(n)
	}
	return n, nil
}

// StartTraffic schedules the reporting workload: unconditional periodic
// reports by default, or TEEN threshold-sensitive reports when configured.
func (n *Net) StartTraffic() {
	cfg := n.Cfg
	payload := make([]byte, cfg.PayloadSize)
	k := n.World.Kernel()
	for _, id := range n.SensorIDs {
		id := id
		var filter *sensing.TEEN
		if cfg.TEEN != nil {
			filter = sensing.NewTEEN(cfg.TEEN.Hard, cfg.TEEN.Soft)
			n.teens = append(n.teens, filter)
		}
		report := func() {
			o, ok := n.Originators[id]
			if !ok {
				return
			}
			if filter == nil {
				o.OriginateData(payload)
				return
			}
			d := n.World.Device(id)
			if d == nil || !d.Alive() {
				return
			}
			v := cfg.TEEN.Field.ValueAt(d.Pos(), d.Now())
			if filter.Sample(v) {
				o.OriginateData(fmt.Appendf(nil, "v=%.2f", v))
			}
		}
		phase := cfg.Warmup + sim.Duration(k.Rand().Int63n(int64(cfg.ReportInterval)))
		k.After(phase, func() {
			report()
			n.trafficStop = append(n.trafficStop, k.Every(cfg.ReportInterval, report))
		})
	}
}

// TEENStats aggregates the threshold filters' activity (zero when TEEN
// reporting is not configured).
func (n *Net) TEENStats() (samples, reports uint64) {
	for _, f := range n.teens {
		samples += f.Samples
		reports += f.Reports
	}
	return samples, reports
}

// StopTraffic cancels the reporting workload.
func (n *Net) StopTraffic() {
	for _, r := range n.trafficStop {
		r.Stop()
	}
	n.trafficStop = nil
}

// Result summarizes a completed run.
type Result struct {
	Cfg          Config
	Metrics      *core.Metrics
	Energy       energy.Stats
	Radio        radio.Stats
	FirstDeath   sim.Time // -1 if no sensor died
	SensorsAlive int
	SensorsTotal int
	Elapsed      sim.Time
	// LinkInFlight is the number of frames still occupying link-ARQ
	// forwarding queues when the run ended (always 0 with ARQ disabled).
	// A horizon-bounded run can legitimately end mid-flight; this is the
	// in-flight term for metrics.CheckLinkConservation.
	LinkInFlight uint64
	// Reliability summarizes fault recovery; nil unless Config.Faults was
	// set.
	Reliability *fault.Reliability
}

// Run builds the network, drives traffic for cfg.RunFor, and summarizes.
// It is the legacy panicking wrapper over RunE, kept for existing callers
// and terse test code; new code should prefer RunE (validation errors) or
// RunContext (validation errors plus cancellation and deadlines).
func Run(cfg Config) Result {
	res, err := RunE(cfg)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// RunE builds the network, drives traffic for cfg.RunFor, and summarizes,
// returning an error instead of panicking on an invalid configuration. It is
// RunContext with a background context: no cancellation, identical code
// path, identical results.
//
// Runs launched here draw their kernel/radio storage from a shared arena
// pool: the world is private to this call and fully torn down before
// returning, so its event structs and delivery buffers are recycled into
// the next run instead of being garbage. Callers composing Build/BuildE +
// RunTraffic themselves keep plain GC-managed worlds.
func RunE(cfg Config) (Result, error) {
	return runContext(context.Background(), cfg)
}

// RunMany executes every config on a bounded worker pool and returns the
// results in cfgs order. Each run owns its kernel, RNG and world, and
// results are merged by submission index, so the output is bit-identical to
// calling Run in a loop regardless of workers (workers<=0 selects one per
// CPU, 1 forces sequential execution). Configs with Mutate/StackWrapper
// hooks are safe as long as the hooks touch only their own run's state.
//
// RunMany is the legacy buffering form: it panics on the first invalid
// config and holds every Result until the whole sweep finishes. Callers that
// need cancellation, per-run errors, or incremental delivery should use
// RunManyContext or RunEach, which RunMany wraps.
func RunMany(workers int, cfgs []Config) []Result {
	out, err := RunManyContext(context.Background(), workers, cfgs)
	if err != nil {
		panic(err.Error())
	}
	return out
}

// RunTraffic starts traffic on an already-built network and runs to the
// horizon (or first sensor death when configured).
func (n *Net) RunTraffic() Result {
	cfg := n.Cfg
	if cfg.StopAtFirstDeath {
		n.World.OnDeath(func(r node.DeathRecord) {
			if n.World.FirstSensorDeath() >= 0 {
				n.World.Kernel().Stop()
			}
		})
	}
	n.StartTraffic()
	n.World.Run(cfg.RunFor)
	res := n.Summarize()
	cfg.Progress.MarkDone()
	return res
}

// Summarize captures the current state as a Result.
func (n *Net) Summarize() Result {
	var rel *fault.Reliability
	if n.injector != nil {
		rel = n.injector.Finish()
	}
	return Result{
		Reliability:  rel,
		Cfg:          n.Cfg,
		Metrics:      n.Metrics,
		Energy:       n.World.SensorEnergyStats(),
		Radio:        n.World.SensorMedium().Stats(),
		FirstDeath:   n.World.FirstSensorDeath(),
		SensorsAlive: n.World.SensorsAlive(),
		SensorsTotal: n.World.SensorsTotal(),
		Elapsed:      n.World.Kernel().Now(),
		LinkInFlight: n.World.LinkQueueDepth(),
	}
}
