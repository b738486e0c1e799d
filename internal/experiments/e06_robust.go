package experiments

import (
	"fmt"

	"wmsn/internal/core"
	"wmsn/internal/geom"
	"wmsn/internal/packet"
	"wmsn/internal/placement"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

// E6Robustness reproduces the §1 robustness claim: under random sensor
// failures, a single-sink network loses far more data than a multi-gateway
// one, because every extra gateway is an independent escape route. Failures
// hit at mid-run; the reported ratio covers traffic generated afterwards.
func E6Robustness(o Opts) ([]*trace.Table, error) {
	n := pick(o, 150, 60)
	side := pick(o, 220.0, 150.0)
	horizon := pick(o, 160*sim.Second, 80*sim.Second)
	seeds := o.seeds(3)
	fracs := pick(o, []float64{0, 0.1, 0.2, 0.3, 0.4}, []float64{0, 0.2, 0.4})

	tbl := trace.NewTable("E6: delivery ratio after failing a fraction of sensors mid-run (SPR)",
		"failed %", "single sink", "3 gateways")
	type job struct {
		frac float64
		gws  int
		s    int
	}
	var jobs []job
	for _, frac := range fracs {
		for _, gws := range []int{1, 3} {
			for s := 0; s < seeds; s++ {
				jobs = append(jobs, job{frac, gws, s})
			}
		}
	}
	ratios, err := forEach(o, len(jobs), func(i int) (float64, error) {
		j := jobs[i]
		return failureRun(int64(300+j.s), n, side, j.gws, j.frac, horizon)
	})
	if err != nil {
		return nil, err
	}
	i := 0
	for _, frac := range fracs {
		row := []any{fmt.Sprintf("%.0f%%", frac*100)}
		for range 2 { // single sink, 3 gateways
			var ratio float64
			for s := 0; s < seeds; s++ {
				ratio += ratios[i]
				i++
			}
			row = append(row, ratio/float64(seeds))
		}
		tbl.AddRow(row...)
	}
	tbl.AddNote("%d sensors, %d seeds; ratio counts only packets generated after the failures", n, seeds)
	return []*trace.Table{tbl}, nil
}

// failureRun runs SPR, fails frac of the sensors at half-horizon, and
// returns the delivery ratio of post-failure traffic.
func failureRun(seed int64, n int, side float64, gws int, frac float64, horizon sim.Time) (float64, error) {
	net, err := scenario.BuildE(scenario.Config{
		Seed: seed, Protocol: scenario.SPR, NumSensors: n, Side: side,
		SensorRange: 40, NumGateways: gws,
		ReportInterval: 10 * sim.Second, RunFor: horizon,
		SensorBattery: 1e6, // robustness study: failures are injected, not battery-driven
	})
	if err != nil {
		return 0, err
	}
	net.StartTraffic()
	net.World.Run(horizon / 2)
	genBefore := net.Metrics.Generated
	delBefore := net.Metrics.Delivered
	// Fail a random subset of still-living sensors.
	alive := aliveSensors(net)
	rng := net.World.Kernel().Rand()
	rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	for _, id := range alive[:int(frac*float64(len(alive)))] {
		net.World.Device(id).Fail()
	}
	net.World.Run(horizon)
	genAfter := net.Metrics.Generated - genBefore
	delAfter := net.Metrics.Delivered - delBefore
	if genAfter == 0 {
		return 0, nil
	}
	return float64(delAfter) / float64(genAfter), nil
}

func aliveSensors(net *scenario.Net) []packet.NodeID {
	var out []packet.NodeID
	for _, id := range net.SensorIDs {
		if d := net.World.Device(id); d != nil && d.Alive() {
			out = append(out, id)
		}
	}
	return out
}

// E7SinkFailure reproduces the single-point-of-failure claim (§1): killing
// the only sink silences a flat WSN entirely, while killing one of m
// gateways only degrades a WMSN — surviving gateways keep absorbing data
// (rediscovery steers traffic to them).
func E7SinkFailure(o Opts) ([]*trace.Table, error) {
	n := pick(o, 120, 50)
	side := pick(o, 200.0, 140.0)
	horizon := pick(o, 160*sim.Second, 80*sim.Second)
	seeds := o.seeds(3)

	tbl := trace.NewTable("E7: gateway failure at mid-run",
		"configuration", "delivery before", "delivery after", "retained")
	type variant struct {
		name  string
		proto scenario.Protocol
		gws   int
	}
	variants := []variant{
		{"MLR, 1 gateway, kill 1 (flat)", scenario.MLR, 1},
		{"MLR, 3 gateways, kill 1", scenario.MLR, 3},
		{"SecMLR, 3 gateways, kill 1 (ACK failover)", scenario.SecMLR, 3},
	}
	type sample struct{ before, after float64 }
	samples, err := forEach(o, len(variants)*seeds, func(i int) (sample, error) {
		v, s := variants[i/seeds], i%seeds
		b, a, err := sinkFailureRun(int64(400+s), v.proto, n, side, v.gws, horizon)
		return sample{b, a}, err
	})
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		var before, after float64
		for s := 0; s < seeds; s++ {
			before += samples[vi*seeds+s].before
			after += samples[vi*seeds+s].after
		}
		f := float64(seeds)
		retained := "-"
		if before > 0 {
			retained = fmt.Sprintf("%.0f%%", 100*(after/f)/(before/f))
		}
		tbl.AddRow(v.name, before/f, after/f, retained)
	}
	tbl.AddNote("%d sensors, %d seeds; plain MLR keeps sending to the dead gateway's place (it never "+
		"announces its departure), while SecMLR's missing ACKs trigger failover to survivors", n, seeds)
	return []*trace.Table{tbl}, nil
}

func sinkFailureRun(seed int64, proto scenario.Protocol, n int, side float64, gws int, horizon sim.Time) (before, after float64, err error) {
	net, err := scenario.BuildE(scenario.Config{
		Seed: seed, Protocol: proto, NumSensors: n, Side: side,
		SensorRange: 40, NumGateways: gws,
		// Static deployment: every gateway sits at its own place all run.
		Places:         geom.PlaceGrid(gws, geom.Square(side)),
		Schedule:       [][]int{identity(gws)},
		RoundLen:       horizon,
		ReportInterval: 10 * sim.Second, RunFor: horizon,
		SensorBattery: 1e6,
	})
	if err != nil {
		return 0, 0, err
	}
	net.StartTraffic()
	net.World.Run(horizon / 2)
	genBefore, delBefore := net.Metrics.Generated, net.Metrics.Delivered
	net.World.Device(scenario.GatewayID(0)).Fail()
	net.World.Run(horizon)
	genAfter := net.Metrics.Generated - genBefore
	delAfter := net.Metrics.Delivered - delBefore
	if genBefore > 0 {
		before = float64(delBefore) / float64(genBefore)
	}
	if genAfter > 0 {
		after = float64(delAfter) / float64(genAfter)
	}
	return before, after, nil
}

func identity(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// E8LoadBalance reproduces the §4.3 load concern: hotspot traffic (a forest
// fire in one corner) overloads the nearest gateway under least-hop routing;
// MLR's rotation spreads the load across gateways over time.
func E8LoadBalance(o Opts) ([]*trace.Table, error) {
	n := pick(o, 150, 60)
	side := pick(o, 220.0, 150.0)
	horizon := pick(o, 240*sim.Second, 120*sim.Second)
	seeds := o.seeds(3)
	spot := geom.Rect{X0: 0, Y0: 0, X1: side / 4, Y1: side / 4}
	deploy := geom.Hotspot{Spot: spot, Fraction: 0.6}

	tbl := trace.NewTable("E8: hotspot load across 3 gateways (60% of sensors in one corner)",
		"mechanism", "busiest gateway share", "imbalance (max/mean)", "delivery ratio")
	type variant struct {
		name     string
		protocol scenario.Protocol
		roundLen sim.Duration
		sliding  bool // sliding rotation: every gateway visits every place
		shed     bool
	}
	variants := []variant{
		{"SPR (static gateways)", scenario.SPR, 0, false, false},
		{"MLR, sliding rotation (all gateways visit the hotspot)", scenario.MLR, horizon / 6, true, false},
		{"MLR, partitioned rotation + overload shedding (§4.3 ext.)", scenario.MLR, horizon / 6, false, true},
	}
	var cfgs []scenario.Config
	for _, v := range variants {
		for s := 0; s < seeds; s++ {
			cfg := scenario.Config{
				Seed: int64(500 + s), Protocol: v.protocol, NumSensors: n, Side: side,
				SensorRange: 40, NumGateways: 3, Deploy: deploy,
				ReportInterval: 10 * sim.Second, RunFor: horizon,
				SensorBattery: 1e6,
			}
			if v.sliding {
				// Tenant-churning rotation spreads the hotspot across all
				// gateways over time (at a control-traffic cost — see
				// BenchmarkAblationSchedule).
				cfg.Schedule = placement.SlidingSchedule(6, 3, 64)
			}
			if v.shed {
				// Shed when a gateway absorbs over ~1.5x its fair share of
				// one round's traffic.
				params := core.DefaultParams()
				fair := uint64(n) * uint64(v.roundLen/(10*sim.Second)) / 3
				params.OverloadThreshold = fair + fair/2
				params.OverloadClear = v.roundLen
				cfg.Params = &params
			}
			if v.roundLen > 0 {
				cfg.RoundLen = v.roundLen
			}
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		var share, imb, ratio float64
		for s := 0; s < seeds; s++ {
			res := results[vi*seeds+s]
			per := res.Metrics.PerGateway()
			var max, total uint64
			for _, c := range per {
				total += c
				if c > max {
					max = c
				}
			}
			if total > 0 {
				share += float64(max) / float64(total)
			}
			imb += res.Metrics.GatewayLoadImbalance()
			ratio += res.Metrics.DeliveryRatio()
		}
		f := float64(seeds)
		tbl.AddRow(v.name, share/f, imb/f, ratio/f)
	}
	tbl.AddNote("%d sensors, %d seeds; imbalance 1.0 = perfectly even; two remedies shown: "+
		"spatial rotation vs load-shedding redirection", n, seeds)
	return []*trace.Table{tbl}, nil
}
