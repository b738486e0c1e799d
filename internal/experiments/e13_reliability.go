package experiments

import (
	"fmt"

	"wmsn/internal/fault"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

// E13Reliability measures recovery under injected faults (§3 self-healing,
// §5.2 multi-gateway routing): a gateway crash at mid-run and background
// sensor churn, driven by the fault subsystem. WMSN protocols detect the
// dead gateway through liveness advertisements (SPR/MLR) or missing ACKs
// (SecMLR) and fail over to survivors; a flat cost-field baseline keeps
// pushing data toward the dead sink and never recovers.
func E13Reliability(o Opts) ([]*trace.Table, error) {
	n := pick(o, 120, 50)
	side := pick(o, 200.0, 140.0)
	horizon := pick(o, 160*sim.Second, 80*sim.Second)
	seeds := o.seeds(3)

	// --- Gateway loss at mid-run ------------------------------------------
	killTbl := trace.NewTable("E13a: gateway crash at mid-run (3 gateways, kill 1)",
		"protocol", "reroutes", "time-to-reroute", "before", "during", "after")
	type variant struct {
		name  string
		proto scenario.Protocol
	}
	variants := []variant{
		{"SPR (advert failover)", scenario.SPR},
		{"MLR (advert failover)", scenario.MLR},
		{"SecMLR (ACK failover)", scenario.SecMLR},
		{"MCFA baseline (flat cost field)", scenario.MCFA},
	}
	var cfgs []scenario.Config
	for _, v := range variants {
		for s := 0; s < seeds; s++ {
			cfgs = append(cfgs, scenario.Config{
				Seed: int64(1300 + s), Protocol: v.proto, NumSensors: n, Side: side,
				SensorRange: 40, NumGateways: 3,
				ReportInterval: 10 * sim.Second, RunFor: horizon,
				SensorBattery: 1e6,
				Faults: fault.NewPlan().
					KillGateway(horizon/2, 0).
					Settle(pick(o, 15*sim.Second, 10*sim.Second)),
			})
		}
	}
	results, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		o.Cells.add("E13", map[string]string{
			"scenario": "gateway_kill",
			"protocol": string(v.proto),
		}, results[vi*seeds:(vi+1)*seeds]...)
	}
	for vi, v := range variants {
		var reroutes, ttrMs, before, during, after float64
		for s := 0; s < seeds; s++ {
			rel := results[vi*seeds+s].Reliability
			reroutes += float64(rel.Reroutes)
			ttrMs += rel.TimeToReroute.Millis()
			w := rel.Windows[0]
			before += w.Before
			during += w.During
			after += w.After
		}
		f := float64(seeds)
		ttr := "-"
		if reroutes > 0 {
			ttr = fmt.Sprintf("%.1f ms", ttrMs/f)
		}
		killTbl.AddRow(v.name, reroutes/f, ttr, before/f, during/f, after/f)
	}
	killTbl.AddNote("%d sensors, %d seeds; before/during/after are delivery ratios around the crash; "+
		"time-to-reroute is measured from the liveness deadline to the replacement route", n, seeds)

	// --- Background churn --------------------------------------------------
	churnTbl := trace.NewTable("E13b: background sensor churn (crash/recover cycles)",
		"protocol", "faults injected", "delivery ratio", "tx per delivery", "alive at end")
	churnVariants := []variant{
		{"SPR, 3 gateways", scenario.SPR},
		{"Flooding baseline", scenario.Flooding},
	}
	rate := pick(o, 200.0, 400.0)
	cfgs = cfgs[:0]
	for _, v := range churnVariants {
		for s := 0; s < seeds; s++ {
			cfgs = append(cfgs, scenario.Config{
				Seed: int64(1350 + s), Protocol: v.proto, NumSensors: n, Side: side,
				SensorRange: 40, NumGateways: 3,
				ReportInterval: 10 * sim.Second, RunFor: horizon,
				SensorBattery: 1e6,
				Faults: fault.NewPlan().WithChurn(fault.Churn{
					Rate: rate, MTTR: 5 * sim.Second, Stop: horizon - horizon/8,
				}),
			})
		}
	}
	results, err = runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	for vi, v := range churnVariants {
		o.Cells.add("E13", map[string]string{
			"scenario": "churn",
			"protocol": string(v.proto),
		}, results[vi*seeds:(vi+1)*seeds]...)
	}
	for vi, v := range churnVariants {
		var faults, ratio, cost, alive float64
		for s := 0; s < seeds; s++ {
			res := results[vi*seeds+s]
			faults += float64(res.Reliability.FaultsInjected)
			ratio += res.Metrics.DeliveryRatio()
			if res.Metrics.Delivered > 0 {
				cost += float64(res.Metrics.RadioTransmissions) / float64(res.Metrics.Delivered)
			}
			alive += float64(res.SensorsAlive) / float64(res.SensorsTotal)
		}
		f := float64(seeds)
		churnTbl.AddRow(v.name, faults/f, ratio/f, cost/f, alive/f)
	}
	churnTbl.AddNote("churn rate %.0f crashes/sensor-hour, MTTR 5 s; flooding rides out churn on sheer "+
		"redundancy — note its per-delivery radio cost — while SPR pays only for reroutes", rate)
	return []*trace.Table{killTbl, churnTbl}, nil
}
