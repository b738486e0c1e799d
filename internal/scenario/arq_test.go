package scenario

import (
	"reflect"
	"strings"
	"testing"

	"wmsn/internal/core"
	"wmsn/internal/fault"
	"wmsn/internal/sim"
)

func TestValidateRejectsBadARQKnobs(t *testing.T) {
	params := func(mut func(*core.Params)) *core.Params {
		p := core.DefaultParams()
		mut(&p)
		return &p
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative retries",
			Config{Params: params(func(p *core.Params) { p.LinkRetries = -1 })},
			"LinkRetries"},
		{"retries without ack wait",
			Config{Params: params(func(p *core.Params) { p.LinkRetries = 3; p.LinkAckWait = 0 })},
			"LinkAckWait"},
		{"negative queue limit",
			Config{Params: params(func(p *core.Params) { p.ForwardQueueLimit = -4 })},
			"ForwardQueueLimit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatal("config validated, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	good := core.DefaultParams()
	good.LinkRetries = 4
	if err := (Config{Params: &good}).Validate(); err != nil {
		t.Fatalf("valid ARQ params rejected: %v", err)
	}
}

// arqChaosConfig is the determinism workload: lossy medium, link ARQ, a
// gateway kill and background churn all active at once — every subsystem
// that could perturb the RNG stream is on.
func arqChaosConfig(seed int64, proto Protocol) Config {
	p := core.DefaultParams()
	p.LinkRetries = 4
	p.ForwardQueueLimit = 32
	p.AdvertInterval = sim.Second
	return Config{
		Seed: seed, Protocol: proto, NumSensors: 50, Side: 140, SensorRange: 40,
		NumGateways: 3, RunFor: 80 * sim.Second, LossRate: 0.15,
		SensorBattery: 1e6,
		Params:        &p,
		Faults: fault.NewPlan().
			KillGateway(40*sim.Second, 0).
			WithChurn(fault.Churn{Rate: 120, MTTR: 3 * sim.Second}).
			Settle(10 * sim.Second),
	}
}

// TestARQFaultedLossyRunDeterministicAcrossWorkers is the PR's determinism
// acceptance gate: the E14-style faulted, lossy, ARQ-enabled scenario must
// produce byte-identical results at every worker count, because ARQ timers
// draw no randomness and results merge by submission index.
func TestARQFaultedLossyRunDeterministicAcrossWorkers(t *testing.T) {
	cfgs := []Config{
		arqChaosConfig(41, SPR),
		arqChaosConfig(42, MLR),
		arqChaosConfig(43, SecMLR),
	}
	base := mustRunEach(t, 1, cfgs)
	for _, workers := range []int{4, 8} {
		got := mustRunEach(t, workers, cfgs)
		for i := range cfgs {
			if !reflect.DeepEqual(base[i].Metrics.Snapshot(), got[i].Metrics.Snapshot()) {
				t.Fatalf("cfg %d (%s): metrics differ between workers=1 and workers=%d:\n%v\nvs\n%v",
					i, cfgs[i].Protocol, workers, base[i].Metrics.Snapshot(), got[i].Metrics.Snapshot())
			}
			if !reflect.DeepEqual(base[i].Reliability, got[i].Reliability) {
				t.Fatalf("cfg %d (%s): reliability differs at workers=%d", i, cfgs[i].Protocol, workers)
			}
		}
	}
	// The runs must also have exercised the link layer, not just tolerated it.
	for i, res := range base {
		m := res.Metrics
		if m.LinkTxQueued == 0 || m.LinkAcked == 0 {
			t.Fatalf("cfg %d (%s): ARQ never engaged (queued=%d acked=%d)",
				i, cfgs[i].Protocol, m.LinkTxQueued, m.LinkAcked)
		}
		if err := m.CheckLinkConservation(res.LinkInFlight); err != nil {
			t.Fatalf("cfg %d (%s): %v", i, cfgs[i].Protocol, err)
		}
	}
}

// TestARQKeepsDeliveryOnLossyMedium pins the headline E14 claim at test
// scale: at 20% per-link loss, hop-by-hop ARQ holds delivery at >= 95%
// while fire-and-forget visibly degrades.
func TestARQKeepsDeliveryOnLossyMedium(t *testing.T) {
	p := core.DefaultParams()
	p.LinkRetries = 4
	for _, proto := range []Protocol{SPR, MLR} {
		base := Config{
			Seed: 77, Protocol: proto, NumSensors: 50, Side: 140, SensorRange: 40,
			NumGateways: 3, RunFor: 60 * sim.Second, LossRate: 0.20,
			SensorBattery: 1e6,
		}
		off := mustRun(t, base)
		withARQ := base
		withARQ.Params = &p
		on := mustRun(t, withARQ)
		if r := on.Metrics.DeliveryRatio(); r < 0.95 {
			t.Errorf("%s with ARQ: delivery %.3f at 20%% loss, want >= 0.95", proto, r)
		}
		if on.Metrics.DeliveryRatio() <= off.Metrics.DeliveryRatio() {
			t.Errorf("%s: ARQ delivery %.3f not above fire-and-forget %.3f",
				proto, on.Metrics.DeliveryRatio(), off.Metrics.DeliveryRatio())
		}
	}
}
