package scenario

import (
	"reflect"
	"testing"

	"wmsn/internal/attack"
	"wmsn/internal/fault"
	"wmsn/internal/sim"
)

// attackCfg is a mid-size compromised run used by the determinism tests.
func attackCfg(sp attack.Spec) Config {
	return Config{
		Seed: 41, Protocol: SecMLR, NumSensors: 100, RunFor: 60 * sim.Second,
		SensorBattery: 1e6,
		Faults:        fault.NewPlan().CompromiseFractionAt(20*sim.Second, 0.15, sp, 4141),
	}
}

// TestBlackholeCampaignEngages checks that attackCfg's blackhole campaign
// actually compromises sensors that sit on routes: victims are chosen and
// some of them drop forwarded data.
func TestBlackholeCampaignEngages(t *testing.T) {
	res := Run(attackCfg(attack.Spec{Kind: attack.KindBlackhole}))
	if res.Metrics.CompromisedNodes == 0 || res.Metrics.AttackerDropped == 0 {
		t.Fatalf("attacked run never engaged: compromised=%d dropped=%d",
			res.Metrics.CompromisedNodes, res.Metrics.AttackerDropped)
	}
}

// TestCompromisedRunReproducible replays an attacked run and demands
// byte-equal metrics: campaigns must be pure functions of the config.
func TestCompromisedRunReproducible(t *testing.T) {
	cfg := attackCfg(attack.Spec{Kind: attack.KindReplay, MaxCopies: 50})
	a, b := Run(cfg), Run(cfg)
	sa, sb := a.Metrics.Snapshot(), b.Metrics.Snapshot()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("attacked run diverged between identical invocations:\n%+v\nvs\n%+v", sa, sb)
	}
	if a.Metrics.AttackerInjected == 0 {
		t.Fatal("replay campaign injected nothing")
	}
}
