package experiments

import (
	"fmt"

	"wmsn/internal/core"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

// E14LinkARQ measures hop-by-hop reliable delivery (the link-layer ARQ) on
// lossy media: delivery ratio versus per-link loss for SPR and MLR, with
// the ARQ on and off. Fire-and-forget delivery collapses geometrically with
// hop count — at 20% per-link loss a 3-hop path succeeds ~half the time —
// while per-hop acknowledgment with 4 retries drives residual per-hop loss
// to 0.2^5 ≈ 0.03%, keeping end-to-end delivery near 100%. The retry and
// queue-drop columns price that reliability in extra transmissions.
func E14LinkARQ(o Opts) ([]*trace.Table, error) {
	n := pick(o, 100, 40)
	side := pick(o, 200.0, 130.0)
	horizon := pick(o, 120*sim.Second, 60*sim.Second)
	seeds := o.seeds(3)
	losses := pick(o,
		[]float64{0, 0.05, 0.10, 0.20, 0.30},
		[]float64{0, 0.20})

	arqParams := core.DefaultParams()
	arqParams.LinkRetries = 4
	arqParams.ForwardQueueLimit = 32

	type variant struct {
		name   string
		proto  scenario.Protocol
		params *core.Params // nil = fire-and-forget defaults
	}
	variants := []variant{
		{"SPR fire-and-forget", scenario.SPR, nil},
		{"SPR + link ARQ", scenario.SPR, &arqParams},
		{"MLR fire-and-forget", scenario.MLR, nil},
		{"MLR + link ARQ", scenario.MLR, &arqParams},
	}

	tbl := trace.NewTable("E14: delivery ratio vs per-link loss (hop-by-hop ARQ)",
		"variant", "loss", "delivery", "retries", "link-failures", "queue-drops")
	var cfgs []scenario.Config
	for _, v := range variants {
		for _, loss := range losses {
			for s := 0; s < seeds; s++ {
				cfgs = append(cfgs, scenario.Config{
					Seed: int64(1400 + s), Protocol: v.proto, NumSensors: n, Side: side,
					SensorRange: 40, NumGateways: 3,
					ReportInterval: 10 * sim.Second, RunFor: horizon,
					SensorBattery: 1e6,
					LossRate:      loss,
					Params:        v.params,
				})
			}
		}
	}
	results, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	ci := 0
	for _, v := range variants {
		for _, loss := range losses {
			o.Cells.add("E14", map[string]string{
				"variant":  v.name,
				"protocol": string(v.proto),
				"loss":     fmt.Sprintf("%.2f", loss),
			}, results[ci*seeds:(ci+1)*seeds]...)
			ci++
		}
	}
	i := 0
	for _, v := range variants {
		for _, loss := range losses {
			var ratio, retries, failures, drops float64
			for s := 0; s < seeds; s++ {
				m := results[i].Metrics
				ratio += m.DeliveryRatio()
				retries += float64(m.LinkRetries)
				failures += float64(m.LinkFailures)
				drops += float64(m.QueueDrops)
				i++
			}
			f := float64(seeds)
			tbl.AddRow(v.name, loss, ratio/f, retries/f, failures/f, drops/f)
		}
	}
	tbl.AddNote("%d sensors, 3 gateways, %d seeds; ARQ = 4 retries, 10 ms base ACK wait, "+
		"exponential backoff, 32-frame forwarding queue; loss is applied per link per frame",
		n, seeds)
	return []*trace.Table{tbl}, nil
}
