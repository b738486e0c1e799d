package experiments

import (
	"fmt"
	"math"

	"wmsn/internal/core"
	"wmsn/internal/geom"
	"wmsn/internal/network"
	"wmsn/internal/packet"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

// E11TopologyControl exercises the §4.4 mechanisms: receiver sleep
// scheduling (duty cycling) trades delivery and latency for reception
// energy, and k-neighbor power control shrinks transmission ranges (and so
// transmission energy) while keeping the field connected.
func E11TopologyControl(o Opts) ([]*trace.Table, error) {
	n := pick(o, 120, 60)
	side := pick(o, 200.0, 150.0)
	horizon := pick(o, 200*sim.Second, 100*sim.Second)
	seeds := o.seeds(3)

	tbl := trace.NewTable("E11: topology control (SPR, 3 gateways)",
		"configuration", "delivery", "sensor energy mJ", "rx share", "latency ms")
	type variant struct {
		name string
		duty float64 // 1.0 = always listening
		k    int     // power-control neighbor target; 0 = off
	}
	variants := []variant{
		{"baseline (always on, full power)", 1.0, 0},
		{"sleep 70% duty", 0.7, 0},
		{"sleep 40% duty", 0.4, 0},
		{"power control k=8", 1.0, 8},
		{"sleep 70% + power control k=8", 0.7, 8},
	}
	var cfgs []scenario.Config
	for _, v := range variants {
		v := v // each config's Mutate hook captures its own variant
		for s := 0; s < seeds; s++ {
			cfgs = append(cfgs, scenario.Config{
				Seed: int64(1100 + s), Protocol: scenario.SPR, NumSensors: n, Side: side,
				SensorRange: 40, NumGateways: 3,
				ReportInterval: 10 * sim.Second, RunFor: horizon,
				SensorBattery: 1e6, // energy is measured, not survival
				Mutate: func(net *scenario.Net) {
					if v.k > 0 {
						pos := map[packet.NodeID]geom.Point{}
						for _, id := range net.SensorIDs {
							pos[id] = net.World.Device(id).Pos()
						}
						network.ApplyRanges(net.World, network.PowerControlK(pos, v.k, 40))
					}
					if v.duty < 1 {
						sched := network.NewSleepScheduler(net.World, 200*sim.Millisecond, v.duty, nil)
						sched.Start()
					}
				},
			})
		}
	}
	results, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		var ratio, eng, rxShare, lat float64
		for s := 0; s < seeds; s++ {
			res := results[vi*seeds+s]
			ratio += res.Metrics.DeliveryRatio()
			eng += res.Energy.Mean * 1000
			if res.Energy.Total > 0 {
				rxShare += res.Energy.RxTotal / res.Energy.Total
			}
			lat += res.Metrics.MeanLatency().Millis()
		}
		f := float64(seeds)
		tbl.AddRow(v.name, ratio/f, eng/f, rxShare/f, lat/f)
	}
	tbl.AddNote("%d sensors, %d seeds; rx share = fraction of sensor energy spent receiving", n, seeds)
	return []*trace.Table{tbl}, nil
}

// E12SPRConvergence verifies the E12/Property-1 claims at scale: SPR's
// discovered routes are BFS-optimal on loss-free media, and its control
// overhead (RREQ floods plus RRES responses, amortized by route caching)
// grows manageably with network size.
func E12SPRConvergence(o Opts) ([]*trace.Table, error) {
	sizes := pick(o, []int{50, 100, 200, 400}, []int{40, 80})
	seeds := o.seeds(3)
	tbl := trace.NewTable("E12: SPR route optimality and control overhead vs size",
		"sensors n", "optimal routes", "control pkts", "ctrl per delivered", "delivery")
	type sample struct{ optFrac, ctrl, perDel, ratio float64 }
	samples, err := forEach(o, len(sizes)*seeds, func(i int) (sample, error) {
		n, s := sizes[i/seeds], i%seeds
		side := 200 * math.Sqrt(float64(n)/100)
		net, err := scenario.BuildE(scenario.Config{
			Seed: int64(1200 + s), Protocol: scenario.SPR, NumSensors: n, Side: side,
			SensorRange: 40, NumGateways: 3,
			ReportInterval: 15 * sim.Second, RunFor: 90 * sim.Second,
			SensorBattery: 1e6,
		})
		if err != nil {
			return sample{}, err
		}
		res := net.RunTraffic()
		// Compare every sensor's discovered hop count with the BFS
		// optimum over the final topology.
		g := network.FromWorld(net.World)
		optimal, routed := 0, 0
		for _, id := range net.SensorIDs {
			st, ok := net.Originators[id].(*core.SPRSensor)
			if !ok {
				continue
			}
			r := st.BestRoute()
			if r == nil {
				continue
			}
			routed++
			if _, want := g.NearestOf(id, net.GatewayIDs); want == r.Hops {
				optimal++
			}
		}
		var out sample
		if routed > 0 {
			out.optFrac = float64(optimal) / float64(routed)
		}
		out.ctrl = float64(res.Metrics.ControlPackets())
		if res.Metrics.Delivered > 0 {
			out.perDel = out.ctrl / float64(res.Metrics.Delivered)
		}
		out.ratio = res.Metrics.DeliveryRatio()
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for ni, n := range sizes {
		var optFrac, ctrl, perDel, ratio float64
		for s := 0; s < seeds; s++ {
			sm := samples[ni*seeds+s]
			optFrac += sm.optFrac
			ctrl += sm.ctrl
			perDel += sm.perDel
			ratio += sm.ratio
		}
		f := float64(seeds)
		tbl.AddRow(n, fmt.Sprintf("%.1f%%", 100*optFrac/f), ctrl/f, perDel/f, ratio/f)
	}
	tbl.AddNote("loss-free medium, %d seeds; optimality = discovered hops == BFS optimum", seeds)
	return []*trace.Table{tbl}, nil
}
