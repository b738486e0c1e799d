package protocol

import (
	"fmt"

	"wmsn/internal/baseline"
	"wmsn/internal/core"
	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/placement"
)

// The built-in protocols. Registration order is irrelevant — IDs() sorts —
// but each Build preserves the exact stack-creation and event-scheduling
// order of the original scenario dispatch, so experiment output stays
// byte-identical.
func init() {
	Register(Builder{ID: SPR, Caps: Capabilities{MultiGateway: true, ShortcutAnswers: true}, Build: buildSPR})
	Register(Builder{ID: MLR, Caps: Capabilities{MultiGateway: true, MobilityRounds: true, ShortcutAnswers: true}, Build: buildMLR})
	Register(Builder{ID: SecMLR, Caps: Capabilities{MultiGateway: true, MobilityRounds: true, Security: true}, Build: buildSecMLR})
	Register(Builder{ID: Flooding, Caps: Capabilities{MultiGateway: true}, Build: buildFlooding})
	Register(Builder{ID: Direct, Caps: Capabilities{MultiGateway: true}, Build: buildDirect})
	Register(Builder{ID: MCFA, Caps: Capabilities{}, Build: buildMCFA})
	Register(Builder{ID: LEACH, Caps: Capabilities{}, Build: buildLEACH})
	Register(Builder{ID: PEGASIS, Caps: Capabilities{}, Build: buildPEGASIS})
}

func newInstance(n int) *Instance {
	return &Instance{Originators: make(map[packet.NodeID]Originator, n)}
}

// addFlatSinks installs plain absorbing sinks at the first len(GatewayIDs)
// places (flat baselines normally run with a single sink).
func addFlatSinks(env *Env) {
	for i, id := range env.GatewayIDs {
		env.World.AddGateway(id, env.Places[i%len(env.Places)], env.SensorRange, 500,
			baseline.NewSink(env.Metrics))
	}
}

func buildSPR(env *Env) (*Instance, error) {
	inst := newInstance(len(env.SensorIDs))
	for i, pos := range env.SensorPos {
		id := env.SensorIDs[i]
		st := core.NewSPRSensor(env.Params, env.Metrics)
		inst.Originators[id] = st
		env.World.AddSensor(id, pos, env.SensorRange, 0, env.Wrap(id, st))
	}
	for i, id := range env.GatewayIDs {
		env.World.AddGateway(id, env.Places[i%len(env.Places)], env.SensorRange, 500,
			core.NewSPRGateway(env.Params, env.Metrics))
	}
	return inst, nil
}

// buildRotating is the shared MLR/SecMLR shape: derive (or adopt) a round
// schedule, install sensors and gateways, start the mobility rounds.
func buildRotating(env *Env, secure bool) (*Instance, error) {
	schedule := env.Schedule
	if schedule == nil {
		schedule = placement.RotationSchedule(len(env.Places), len(env.GatewayIDs), env.Rounds)
	}
	if schedule == nil {
		return nil, fmt.Errorf("cannot build schedule for %d gateways over %d places",
			len(env.GatewayIDs), len(env.Places))
	}
	var sKeys map[packet.NodeID]*core.SensorKeys
	var gKeys map[packet.NodeID]*core.GatewayKeys
	if secure {
		sKeys, gKeys = core.ProvisionKeys([]byte("scenario-master"), env.SensorIDs, env.GatewayIDs, env.Rounds+8)
	}
	inst := newInstance(len(env.SensorIDs))
	for i, pos := range env.SensorPos {
		id := env.SensorIDs[i]
		var st node.Stack
		if secure {
			sec := core.NewSecMLRSensor(env.Params, env.Metrics, sKeys[id])
			inst.Originators[id] = sec
			st = sec
		} else {
			mlr := core.NewMLRSensor(env.Params, env.Metrics)
			inst.Originators[id] = mlr
			st = mlr
		}
		env.World.AddSensor(id, pos, env.SensorRange, 0, env.Wrap(id, st))
	}
	for i, id := range env.GatewayIDs {
		var st node.Stack
		if secure {
			st = core.NewSecMLRGateway(env.Params, env.Metrics, gKeys[id])
		} else {
			st = core.NewMLRGateway(env.Params, env.Metrics)
		}
		env.World.AddGateway(id, env.Places[schedule[0][i]], env.SensorRange, 500, st)
	}
	inst.Rounds = &core.Rounds{World: env.World, Places: env.Places, Gateways: env.GatewayIDs,
		RoundLen: env.RoundLen, Schedule: schedule}
	inst.Rounds.Start()
	return inst, nil
}

func buildMLR(env *Env) (*Instance, error)    { return buildRotating(env, false) }
func buildSecMLR(env *Env) (*Instance, error) { return buildRotating(env, true) }

func buildFlooding(env *Env) (*Instance, error) {
	inst := newInstance(len(env.SensorIDs))
	for i, pos := range env.SensorPos {
		id := env.SensorIDs[i]
		st := baseline.NewFlooding(env.Metrics, core.TTL)
		inst.Originators[id] = st
		env.World.AddSensor(id, pos, env.SensorRange, 0, env.Wrap(id, st))
	}
	addFlatSinks(env)
	return inst, nil
}

func buildDirect(env *Env) (*Instance, error) {
	inst := newInstance(len(env.SensorIDs))
	sinkPos := env.Places[0]
	for i, pos := range env.SensorPos {
		id := env.SensorIDs[i]
		st := baseline.NewDirect(env.Metrics, env.GatewayIDs[0], pos.Dist(sinkPos))
		inst.Originators[id] = st
		env.World.AddSensor(id, pos, env.SensorRange, 0, env.Wrap(id, st))
	}
	addFlatSinks(env)
	return inst, nil
}

func buildMCFA(env *Env) (*Instance, error) {
	inst := newInstance(len(env.SensorIDs))
	for i, pos := range env.SensorPos {
		id := env.SensorIDs[i]
		st := baseline.NewMCFA(env.Metrics, core.TTL)
		inst.Originators[id] = st
		env.World.AddSensor(id, pos, env.SensorRange, 0, env.Wrap(id, st))
	}
	env.World.AddGateway(env.GatewayIDs[0], env.Places[0], env.SensorRange, 500,
		baseline.NewMCFASink(env.Metrics, core.TTL))
	return inst, nil
}

func buildPEGASIS(env *Env) (*Instance, error) {
	inst := newInstance(len(env.SensorIDs))
	sinkPos := geom.Point{X: env.Side / 2, Y: env.Side + 50} // off-field sink, as in the PEGASIS paper
	pos := make(map[packet.NodeID]geom.Point, len(env.SensorPos))
	for i, p := range env.SensorPos {
		pos[env.SensorIDs[i]] = p
	}
	chain := baseline.NewPegasisChain(env.GatewayIDs[0], sinkPos, pos)
	for i, p := range env.SensorPos {
		id := env.SensorIDs[i]
		st := baseline.NewPEGASIS(env.Metrics, chain)
		inst.Originators[id] = st
		env.World.AddSensor(id, p, env.SensorRange, 0, env.Wrap(id, st))
	}
	env.World.AddGateway(env.GatewayIDs[0], sinkPos, 10*env.Side, 500, baseline.NewLEACHSink(env.Metrics))
	// Sweep once per reporting cycle: each token carries one reading per
	// node, as in the original protocol (sweeping slower would balloon
	// the token and stretch a single sweep past the round).
	inst.PegasisRounds = &baseline.PegasisRounds{World: env.World, Chain: chain, RoundLen: env.ReportInterval}
	inst.PegasisRounds.Start()
	return inst, nil
}

func buildLEACH(env *Env) (*Instance, error) {
	inst := newInstance(len(env.SensorIDs))
	sinkPos := geom.Point{X: env.Side / 2, Y: env.Side + 50} // off-field sink, per LEACH evaluations
	var stacks []*baseline.LEACH
	for i, pos := range env.SensorPos {
		id := env.SensorIDs[i]
		st := baseline.NewLEACH(env.Metrics, env.LEACHProb, env.GatewayIDs[0], sinkPos, env.SensorRange*2)
		inst.Originators[id] = st
		stacks = append(stacks, st)
		env.World.AddSensor(id, pos, env.SensorRange, 0, env.Wrap(id, st))
	}
	env.World.AddGateway(env.GatewayIDs[0], sinkPos, 10*env.Side, 500, baseline.NewLEACHSink(env.Metrics))
	inst.LEACHRounds = &baseline.LEACHRounds{World: env.World, Stacks: stacks, RoundLen: env.RoundLen}
	inst.LEACHRounds.Start()
	return inst, nil
}
