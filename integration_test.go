package wmsn_test

import (
	"testing"

	"wmsn"
)

// TestThreeLayerEndToEnd exercises the full Fig. 1 architecture in one
// test: sensor fields (802.15.4) -> WMG gateways -> mesh backbone (802.11)
// with a WMR relay -> base station, including mesh self-healing after the
// relay fails.
func TestThreeLayerEndToEnd(t *testing.T) {
	w := wmsn.NewWorld(99)
	metrics := wmsn.NewMetrics()
	params := wmsn.DefaultParams()

	// Two disjoint sensor clusters, one gateway each.
	type originator interface{ OriginateData([]byte) }
	var sensors []originator
	addCluster := func(base wmsn.NodeID, yOff float64) {
		for i := 0; i < 12; i++ {
			st := wmsn.NewSPRSensor(params, metrics)
			w.AddSensor(base+wmsn.NodeID(i),
				wmsn.Point{X: float64(i%4) * 20, Y: yOff + float64(i/4)*15}, 35, 0, st)
			sensors = append(sensors, st)
		}
	}
	addCluster(100, 0)
	addCluster(200, 200) // far outside sensor radio range of cluster 1

	gw1Stack := wmsn.NewSPRGateway(params, metrics)
	gw2Stack := wmsn.NewSPRGateway(params, metrics)
	gw1 := w.AddGateway(1001, wmsn.Point{X: 30, Y: 15}, 35, 130, gw1Stack)
	gw2 := w.AddGateway(1002, wmsn.Point{X: 30, Y: 215}, 35, 130, gw2Stack)
	relayA := w.AddMeshRouter(1500, wmsn.Point{X: 100, Y: 115}, 130)
	relayB := w.AddMeshRouter(1501, wmsn.Point{X: 105, Y: 110}, 130)
	bs := w.AddBaseStation(2000, wmsn.Point{X: 180, Y: 115}, 200)

	backbone := wmsn.NewMeshBackbone(wmsn.DefaultMeshConfig(), gw1, gw2, relayA, relayB, bs)
	atBMS := map[wmsn.NodeID]int{}
	backbone.Router(2000).OnDeliver = func(p *wmsn.Packet) { atBMS[p.Origin]++ }
	gw1Stack.Uplink = func(origin wmsn.NodeID, seq uint32, payload []byte) {
		backbone.Router(1001).SendTo(2000, origin, seq, payload)
	}
	gw2Stack.Uplink = func(origin wmsn.NodeID, seq uint32, payload []byte) {
		backbone.Router(1002).SendTo(2000, origin, seq, payload)
	}

	// Let the mesh converge, then report twice.
	w.Run(10 * wmsn.Second)
	for _, s := range sensors {
		s.OriginateData([]byte("r1"))
	}
	w.Run(20 * wmsn.Second)
	before := len(atBMS)
	if before != 24 {
		t.Fatalf("first wave reached BMS from %d sensors, want 24", before)
	}

	// Kill relay A; relay B must take over.
	relayA.Fail()
	w.Run(40 * wmsn.Second) // hello timeout + reconvergence
	for _, s := range sensors {
		s.OriginateData([]byte("r2"))
	}
	w.Run(60 * wmsn.Second)
	total := 0
	for _, c := range atBMS {
		total += c
	}
	if total < 48 {
		t.Fatalf("after self-healing, BMS got %d readings, want 48", total)
	}
	if metrics.DeliveryRatio() < 1 {
		t.Fatalf("sensor-layer delivery = %v", metrics.DeliveryRatio())
	}
}

// TestProtocolsUnderImperfectRadio runs every routing protocol over a lossy,
// collision-prone medium and checks graceful degradation rather than
// collapse: the retry/failover machinery must keep a usable fraction of the
// traffic flowing.
func TestProtocolsUnderImperfectRadio(t *testing.T) {
	for _, proto := range []wmsn.Protocol{wmsn.SPR, wmsn.MLR, wmsn.SecMLR} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			t.Parallel()
			params := wmsn.DefaultParams()
			params.FloodJitter = 20 * wmsn.Millisecond // de-synchronize broadcast storms
			res := mustRun(t, wmsn.Config{
				Seed: 5, Protocol: proto,
				NumSensors: 60, Side: 150, SensorRange: 40, NumGateways: 2,
				RoundLen: 30 * wmsn.Second, ReportInterval: 10 * wmsn.Second,
				RunFor: 120 * wmsn.Second, SensorBattery: 1e6,
				LossRate: 0.05, Collisions: true,
				Params: &params,
			})
			if res.Metrics.Generated == 0 {
				t.Fatal("no traffic")
			}
			if r := res.Metrics.DeliveryRatio(); r < 0.5 {
				t.Fatalf("%s collapsed under 5%% loss + collisions: delivery %v", proto, r)
			}
			if res.Radio.Lost == 0 {
				t.Fatal("loss model never fired; test misconfigured")
			}
		})
	}
}

// TestDeterministicFullStack pins determinism across the entire stack: two
// identical SecMLR runs with rotation, attacks and failures produce
// bit-identical metrics.
func TestDeterministicFullStack(t *testing.T) {
	run := func() (uint64, uint64, uint64, uint64) {
		net := mustBuild(t, wmsn.Config{
			Seed: 31, Protocol: wmsn.SecMLR,
			NumSensors: 50, Side: 150, SensorRange: 40, NumGateways: 2,
			RoundLen: 20 * wmsn.Second, ReportInterval: 10 * wmsn.Second,
			RunFor: 90 * wmsn.Second, SensorBattery: 1e6,
			// The crash schedule lives on the fault plan; Mutate keeps
			// only what a plan cannot express (the replayer stack).
			Faults: wmsn.NewFaultPlan().CrashAt(45*wmsn.Second, 4),
			Mutate: func(n *wmsn.Net) {
				n.World.AddSensor(9000, wmsn.Point{X: 75, Y: 75}, 40, 0,
					wmsn.NewReplayer(2*wmsn.Second))
			},
		})
		res := net.RunTraffic()
		return res.Metrics.Generated, res.Metrics.Delivered,
			res.Metrics.RejectedReplay, res.Metrics.Failovers
	}
	g1, d1, r1, f1 := run()
	g2, d2, r2, f2 := run()
	if g1 != g2 || d1 != d2 || r1 != r2 || f1 != f2 {
		t.Fatalf("non-deterministic full stack: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			g1, d1, r1, f1, g2, d2, r2, f2)
	}
}

// TestLifetimeOrderingHolds pins the headline E4 result at reduced scale:
// multi-gateway SPR outlives single-sink SPR, and MLR outlives both.
func TestLifetimeOrderingHolds(t *testing.T) {
	lifetime := func(proto wmsn.Protocol, gws int) float64 {
		res := mustRun(t, wmsn.Config{
			Seed: 3, Protocol: proto,
			NumSensors: 60, Side: 200, SensorRange: 45, NumGateways: gws,
			ReportInterval: 5 * wmsn.Second, RoundLen: 30 * wmsn.Second, Rounds: 64,
			EnergyModel: wmsn.DefaultFirstOrderEnergy, SensorBattery: 0.15,
			RunFor: wmsn.Hour, StopAtFirstDeath: true,
		})
		if res.FirstDeath >= 0 {
			return res.FirstDeath.Seconds()
		}
		return res.Elapsed.Seconds()
	}
	single := lifetime(wmsn.SPR, 1)
	multi := lifetime(wmsn.SPR, 3)
	mlr := lifetime(wmsn.MLR, 3)
	if !(single < multi) {
		t.Errorf("multi-gateway did not outlive single sink: %v vs %v", multi, single)
	}
	if !(multi < mlr) {
		t.Errorf("MLR rotation did not outlive static SPR: %v vs %v", mlr, multi)
	}
}
