package experiments

import (
	"fmt"

	"wmsn/internal/attack"
	"wmsn/internal/fault"
	"wmsn/internal/geom"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

// E15Adversarial sweeps deterministic compromise campaigns — the fault
// injector swapping a fraction of legitimate sensors for adversary stacks at
// mid-run — across attack family × attacker fraction × protocol. Where E9
// plants dedicated attacker nodes at build time, E15 models the paper's §2.3
// threat directly: previously honest insiders turning hostile mid-run, with
// the routing layer forced to recover around them. The claim under test is
// the same as §6's — SecMLR's end-to-end ACK failover holds delivery at or
// above plain MLR/SPR at every nonzero attacker fraction, while flooding
// survives on redundancy and pays for it in radio cost.
func E15Adversarial(o Opts) ([]*trace.Table, error) {
	n := pick(o, 80, 40)
	side := pick(o, 180.0, 140.0)
	horizon := pick(o, 150*sim.Second, 80*sim.Second)
	seeds := o.seeds(2)

	attacks := []attack.Spec{
		{Kind: attack.KindSelectiveForward, DropProb: 0.5},
		{Kind: attack.KindBlackhole},
		{Kind: attack.KindReplay, Delay: 2 * sim.Second},
		{Kind: attack.KindSinkhole, FakeGateway: scenario.GatewayID(0), Place: 0},
		{Kind: attack.KindSpoofedRouting, FakeGateway: scenario.GatewayID(1), Place: 0},
	}
	fracs := pick(o, []float64{0.05, 0.1, 0.2}, []float64{0.1})
	protos := []scenario.Protocol{scenario.SecMLR, scenario.MLR, scenario.SPR, scenario.Flooding}

	type cell struct {
		attack string
		frac   float64
		proto  scenario.Protocol
	}
	var cells []cell
	for _, p := range protos {
		cells = append(cells, cell{"none", 0, p})
	}
	for _, sp := range attacks {
		for _, frac := range fracs {
			for _, p := range protos {
				cells = append(cells, cell{sp.String(), frac, p})
			}
		}
	}
	base := func(seed int64, proto scenario.Protocol) scenario.Config {
		return scenario.Config{
			Seed: seed, Protocol: proto, NumSensors: n, Side: side,
			SensorRange: 40, NumGateways: 2,
			// Static two-gateway round, zero ambient loss: every delivery
			// deficit below the ~1.0 baseline is attacker damage, not noise.
			Places:         geom.PlaceGrid(2, geom.Square(side)),
			Schedule:       [][]int{{0, 1}},
			RoundLen:       horizon,
			ReportInterval: 10 * sim.Second,
			RunFor:         horizon,
			SensorBattery:  1e6,
		}
	}
	specFor := func(name string) attack.Spec {
		for _, sp := range attacks {
			if sp.String() == name {
				return sp
			}
		}
		panic(fmt.Sprintf("unknown attack %q", name))
	}
	var cfgs []scenario.Config
	for ci, c := range cells {
		for s := 0; s < seeds; s++ {
			cfg := base(int64(1500+s), c.proto)
			if c.frac > 0 {
				// The victim shuffle is seeded per (attack, fraction, seed)
				// cell — NOT per protocol — so every protocol defends the
				// exact same compromised node set.
				aseed := int64(151000 + (ci/len(protos))*100 + s)
				cfg.Faults = fault.NewPlan().
					CompromiseFractionAt(sim.Time(horizon/4), c.frac, specFor(c.attack), aseed).
					Settle(pick(o, 15*sim.Second, 10*sim.Second))
			}
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}

	// Per-campaign distributional export: one labeled cell per (attack ×
	// fraction × protocol), merging the cell's seeds. The cell snapshots
	// carry the failover-latency histogram (p50/p95/p99 per campaign) that
	// the mean-only text table cannot show.
	for ci, c := range cells {
		o.Cells.add("E15", map[string]string{
			"attack":   c.attack,
			"fraction": fmt.Sprintf("%.2f", c.frac),
			"protocol": string(c.proto),
		}, results[ci*seeds:(ci+1)*seeds]...)
	}

	tbl := trace.NewTable("E15: adversarial campaigns — delivery under compromised insiders",
		"attack", "frac", "protocol", "delivery", "dups", "reroutes", "failover",
		"compromised", "atk dropped", "atk injected")
	for ci, c := range cells {
		var delivery, dups, reroutes float64
		var compromised, atkDrop, atkInj, failovers uint64
		for s := 0; s < seeds; s++ {
			res := results[ci*seeds+s]
			m := res.Metrics
			delivery += m.DeliveryRatio()
			dups += float64(m.Duplicates)
			failovers += m.Failovers
			if rel := res.Reliability; rel != nil {
				reroutes += float64(rel.Reroutes)
				compromised += rel.Compromised
				atkDrop += rel.AttackerDropped
				atkInj += rel.AttackerInjected
			}
		}
		f := float64(seeds)
		tbl.AddRow(c.attack, fmt.Sprintf("%.0f%%", c.frac*100), string(c.proto),
			delivery/f, dups/f, reroutes/f, float64(failovers)/f, compromised, atkDrop, atkInj)
	}
	tbl.AddNote("%d sensors, %d seeds; compromise hits at t=%.0fs; victims are identical across protocols per "+
		"(attack, frac) cell; failover counts SecMLR end-to-end ACK reroutes", n, seeds, sim.Time(horizon/4).Seconds())
	return []*trace.Table{tbl}, nil
}
