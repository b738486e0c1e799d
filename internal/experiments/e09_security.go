package experiments

import (
	"fmt"

	"wmsn/internal/attack"
	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

// E9AttackMatrix runs the eight network-layer attacks of §2.3/§6 against
// plain MLR and against SecMLR on the same field and reports, per cell, the
// delivery ratio of legitimate traffic, duplicate deliveries (replay
// damage), accepted forged readings (Sybil damage), and the victim's
// rejection/failover counters. The paper's claim is qualitative ("SecMLR can
// resist most of attacks"); this table is its quantitative shape.
func E9AttackMatrix(o Opts) ([]*trace.Table, error) {
	attacks := []string{"none", "replay", "spoofed-routing (sinkhole)", "selective-forwarding",
		"hello-flood", "sybil", "wormhole", "ack-spoofing"}
	protos := []scenario.Protocol{scenario.MLR, scenario.SecMLR}
	tbl := trace.NewTable("E9: attack resistance, MLR vs SecMLR",
		"attack", "protocol", "delivery", "duplicates", "forged accepted", "rejected", "failovers")
	// Each (attack, protocol) cell is an independent run; fan the whole
	// matrix out and render in matrix order.
	var cfgs []scenario.Config
	for _, atk := range attacks {
		for _, proto := range protos {
			cfgs = append(cfgs, attackCfg(o, atk, proto))
		}
	}
	results, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		m := res.Metrics
		var forged uint64
		for id := 0; id < 5; id++ {
			forged += m.DeliveredFrom(packet.NodeID(sybilIdentityBase + id))
		}
		tbl.AddRow(attacks[i/len(protos)], string(protos[i%len(protos)]), m.DeliveryRatio(),
			m.Duplicates, forged, m.RejectedMAC+m.RejectedReplay, m.Failovers)
	}
	tbl.AddNote("ack-spoofing degenerates to a blackhole under MLR (no ACKs exist to forge)")
	return []*trace.Table{tbl}, nil
}

// sybilIdentityBase is the forged-identity range used by the Sybil cell;
// E9 counts the readings gateways accept from its five identities as
// forged.
const sybilIdentityBase = 7000

// attackCfg is the config of one (attack, protocol) cell.
func attackCfg(o Opts, atk string, proto scenario.Protocol) scenario.Config {
	n := pick(o, 80, 40)
	side := pick(o, 180.0, 140.0)
	horizon := pick(o, 150*sim.Second, 80*sim.Second)
	cfg := scenario.Config{
		Seed: 900, Protocol: proto, NumSensors: n, Side: side,
		SensorRange: 40, NumGateways: 2,
		// Static two-gateway deployment: attack effects are cleaner without
		// rotation, and every attack below works against a static round.
		Places:         geom.PlaceGrid(2, geom.Square(side)),
		Schedule:       [][]int{{0, 1}},
		RoundLen:       horizon,
		ReportInterval: 10 * sim.Second,
		RunFor:         horizon,
		SensorBattery:  1e6,
	}
	switch atk {
	case "none":
	case "replay":
		cfg.Mutate = func(net *scenario.Net) {
			for i := 0; i < 3; i++ {
				id := packet.NodeID(6000 + i)
				pos := net.Region.RandomPoint(net.World.Kernel().Rand())
				net.World.AddSensor(id, pos, 40, 0, attack.NewReplayer(3*sim.Second))
			}
		}
	case "spoofed-routing (sinkhole)":
		cfg.Mutate = func(net *scenario.Net) {
			for i := 0; i < 3; i++ {
				id := packet.NodeID(6000 + i)
				pos := net.Region.RandomPoint(net.World.Kernel().Rand())
				net.World.AddSensor(id, pos, 40, 0,
					&attack.Sinkhole{FakeGateway: scenario.GatewayID(i % 2), Place: i % 2, TTL: 16})
			}
		}
	case "selective-forwarding":
		// Compromise every 8th legitimate sensor into a grayhole.
		cfg.StackWrapper = func(id packet.NodeID, st node.Stack) node.Stack {
			if id%8 == 0 {
				return &attack.SelectiveForwarder{Inner: st, DropProb: 1}
			}
			return st
		}
	case "hello-flood":
		cfg.Mutate = func(net *scenario.Net) {
			net.World.AddSensor(6000, net.Region.Center(), 40, 0,
				&attack.HelloFlood{Gateway: scenario.GatewayID(1), Place: 0, PrevPlace: 1,
					Range: side * 2, Interval: 5 * sim.Second, TTL: 16})
		}
	case "sybil":
		cfg.Mutate = func(net *scenario.Net) {
			ids := make([]packet.NodeID, 5)
			for i := range ids {
				ids[i] = packet.NodeID(sybilIdentityBase + i)
			}
			net.World.AddSensor(6000, net.Region.RandomPoint(net.World.Kernel().Rand()), 40, 0,
				&attack.Sybil{Identities: ids, Gateway: scenario.GatewayID(0), Place: 0,
					NextHop: packet.Broadcast, Interval: 5 * sim.Second, TTL: 16})
		}
	case "wormhole":
		cfg.Mutate = func(net *scenario.Net) {
			_, endA, endB := attack.NewWormhole()
			net.World.AddSensor(6000, geom.Point{X: side * 0.1, Y: side * 0.1}, 40, 0, endA)
			net.World.AddSensor(6001, geom.Point{X: side * 0.9, Y: side * 0.9}, 40, 0, endB)
		}
	case "ack-spoofing":
		cfg.StackWrapper = func(id packet.NodeID, st node.Stack) node.Stack {
			if id%8 == 0 {
				return &attack.AckSpoofer{Inner: st}
			}
			return st
		}
	default:
		panic(fmt.Sprintf("unknown attack %q", atk))
	}
	return cfg
}

// E10SecurityOverhead quantifies what SecMLR's protection costs relative to
// plain MLR on an identical rotating-gateway workload: control traffic,
// bytes on the air, per-sensor energy and end-to-end latency. §6.2's claim
// is that the scheme works "in an energy-efficient way" by pushing the heavy
// work to gateways; the sensors' overhead is the MAC/counters bytes and the
// loss of the intermediate-answer shortcut.
func E10SecurityOverhead(o Opts) ([]*trace.Table, error) {
	n := pick(o, 100, 50)
	side := pick(o, 200.0, 140.0)
	horizon := pick(o, 300*sim.Second, 120*sim.Second)
	seeds := o.seeds(3)
	tbl := trace.NewTable("E10: SecMLR overhead vs plain MLR (3 gateways over 6 places, rotating)",
		"protocol", "delivery", "control pkts", "data pkts", "bytes on air", "sensor energy mJ", "latency ms")
	protos := []scenario.Protocol{scenario.MLR, scenario.SecMLR}
	var cfgs []scenario.Config
	for _, proto := range protos {
		for s := 0; s < seeds; s++ {
			cfgs = append(cfgs, scenario.Config{
				Seed: int64(1000 + s), Protocol: proto, NumSensors: n, Side: side,
				SensorRange: 40, NumGateways: 3,
				RoundLen: horizon / 5, Rounds: 8,
				ReportInterval: 10 * sim.Second, RunFor: horizon,
				SensorBattery: 1e6,
			})
		}
	}
	results, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	for pi, proto := range protos {
		var ratio, ctrl, data, bytes, eng, lat float64
		for s := 0; s < seeds; s++ {
			res := results[pi*seeds+s]
			ratio += res.Metrics.DeliveryRatio()
			ctrl += float64(res.Metrics.ControlPackets())
			data += float64(res.Metrics.DataSent)
			bytes += float64(res.Radio.BytesOnAir)
			eng += res.Energy.Mean * 1000
			lat += res.Metrics.MeanLatency().Millis()
		}
		f := float64(seeds)
		tbl.AddRow(string(proto), ratio/f, ctrl/f, data/f, bytes/f, eng/f, lat/f)
	}
	tbl.AddNote("%d sensors, %d seeds; SecMLR adds per-gateway MAC blocks, TESLA disclosures and end-to-end ACKs", n, seeds)
	return []*trace.Table{tbl}, nil
}
