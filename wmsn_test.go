package wmsn_test

import (
	"context"
	"testing"

	"wmsn"
	"wmsn/internal/network"
)

// The facade tests exercise the public API exactly as the README shows it,
// so the documented entry points cannot rot.

// mustRun runs cfg to completion and fails the test on error.
func mustRun(tb testing.TB, cfg wmsn.Config) wmsn.Result {
	tb.Helper()
	res, err := wmsn.RunContext(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// mustBuild builds cfg and fails the test on error.
func mustBuild(tb testing.TB, cfg wmsn.Config) *wmsn.Net {
	tb.Helper()
	net, err := wmsn.BuildE(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

func TestQuickstartFlow(t *testing.T) {
	res := mustRun(t, wmsn.Config{
		Seed: 1, Protocol: wmsn.SPR,
		NumSensors: 50, Side: 150, SensorRange: 35, NumGateways: 3,
		RunFor: 60 * wmsn.Second,
	})
	if res.Metrics.DeliveryRatio() < 0.9 {
		t.Fatalf("quickstart delivery = %v", res.Metrics.DeliveryRatio())
	}
	if res.Energy.N != 50 {
		t.Fatalf("energy stats over %d nodes", res.Energy.N)
	}
}

func TestBuildAndMutateFlow(t *testing.T) {
	net := mustBuild(t, wmsn.Config{
		Seed: 2, Protocol: wmsn.MLR,
		NumSensors: 40, Side: 140, SensorRange: 35, NumGateways: 2,
		RoundLen: 20 * wmsn.Second, RunFor: 60 * wmsn.Second,
	})
	if net.Rounds == nil {
		t.Fatal("MLR build has no round controller")
	}
	g := network.FromWorld(net.World)
	if g.Len() != 42 { // 40 sensors + 2 gateways
		t.Fatalf("graph has %d vertices", g.Len())
	}
	res := net.RunTraffic()
	if res.Metrics.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestManualAssemblyFlow(t *testing.T) {
	// Assemble a network by hand through the facade: 3 sensors in a line,
	// one gateway, SPR stacks.
	w := wmsn.NewWorld(7)
	m := wmsn.NewMetrics()
	p := wmsn.DefaultParams()
	var first interface{ OriginateData([]byte) }
	for i := 0; i < 3; i++ {
		st := wmsn.NewSPRSensor(p, m)
		if i == 0 {
			first = st
		}
		w.AddSensor(wmsn.NodeID(i+1), wmsn.Point{X: float64(i) * 10}, 12, 0, st)
	}
	w.AddGateway(1000, wmsn.Point{X: 30}, 12, 100, wmsn.NewSPRGateway(p, m))
	first.OriginateData([]byte("hello"))
	w.Run(5 * wmsn.Second)
	if m.Delivered != 1 {
		t.Fatalf("delivered %d", m.Delivered)
	}
}

func TestMeshFacade(t *testing.T) {
	w := wmsn.NewWorld(3)
	gw := w.AddGateway(1000, wmsn.Point{}, 30, 150, nil)
	bs := w.AddBaseStation(2000, wmsn.Point{X: 120}, 150)
	b := wmsn.NewMeshBackbone(wmsn.DefaultMeshConfig(), gw, bs)
	w.Run(20 * wmsn.Second)
	got := 0
	b.Router(2000).OnDeliver = func(*wmsn.Packet) { got++ }
	b.Router(1000).SendTo(2000, 5, 1, []byte("up"))
	w.Run(25 * wmsn.Second)
	if got != 1 {
		t.Fatalf("mesh delivered %d", got)
	}
}

func TestExperimentSuiteExposed(t *testing.T) {
	if got := len(wmsn.AllExperiments()); got != 15 {
		t.Fatalf("suite has %d experiments", got)
	}
}

func TestAttackFacade(t *testing.T) {
	r := wmsn.NewReplayer(wmsn.Second)
	if r == nil {
		t.Fatal("replayer nil")
	}
}
