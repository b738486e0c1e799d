package scenario

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"wmsn/internal/fault"
	"wmsn/internal/sim"
)

func TestValidateRejectsMisconfigurations(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"unknown protocol", Config{Protocol: "carrier-pigeon"}, "unknown protocol"},
		{"negative sensors", Config{NumSensors: -5}, "NumSensors"},
		{"negative gateways", Config{NumGateways: -1}, "NumGateways"},
		{"negative side", Config{Side: -100}, "Side"},
		{"negative range", Config{SensorRange: -35}, "SensorRange"},
		{"negative interval", Config{ReportInterval: -sim.Second}, "ReportInterval"},
		{"negative battery", Config{SensorBattery: -2}, "SensorBattery"},
		{"loss rate one", Config{LossRate: 1.0}, "LossRate"},
		{"loss rate NaN", Config{LossRate: math.NaN()}, "LossRate"},
		{"leach prob high", Config{LEACHProb: 1.5}, "LEACHProb"},
		{"schedule row width", Config{NumGateways: 3, Schedule: [][]int{{0, 1}}}, "Schedule row 0"},
		{"schedule place range", Config{Protocol: SPR, NumGateways: 2, Schedule: [][]int{{0, 9}}}, "out of range"},
		{"fault past horizon", Config{RunFor: 10 * sim.Second,
			Faults: fault.NewPlan().CrashAt(60*sim.Second, 1)}, "never fire"},
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
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config (all defaults) rejected: %v", err)
	}
}

func TestRunContextReturnsErrorNotPanic(t *testing.T) {
	if _, err := RunContext(context.Background(), Config{Protocol: "carrier-pigeon"}); err == nil {
		t.Fatal("RunContext accepted an unknown protocol")
	}
	if _, err := BuildE(Config{NumSensors: -1}); err == nil {
		t.Fatal("BuildE accepted a negative sensor count")
	}
	res, err := RunContext(context.Background(), Config{Seed: 1, NumSensors: 30, RunFor: 20 * sim.Second})
	if err != nil {
		t.Fatalf("valid config: %v", err)
	}
	if res.Metrics.Generated == 0 {
		t.Fatal("valid RunContext produced no traffic")
	}
}

// gatewayFailoverConfig is the acceptance scenario: SPR, three gateways,
// the busiest one crashing mid-run.
func gatewayFailoverConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		Protocol:    SPR,
		NumSensors:  60,
		Side:        150,
		SensorRange: 40,
		NumGateways: 3,
		RunFor:      120 * sim.Second,
		Faults:      fault.NewPlan().KillGateway(60*sim.Second, 0).Settle(10 * sim.Second),
	}
}

func TestSPRFailsOverOnGatewayKill(t *testing.T) {
	res := mustRun(t, gatewayFailoverConfig(1))
	rel := res.Reliability
	if rel == nil {
		t.Fatal("no Reliability summary on a faulted run")
	}
	if rel.FaultsInjected != 1 {
		t.Fatalf("FaultsInjected = %d, want 1", rel.FaultsInjected)
	}
	if rel.Reroutes == 0 {
		t.Fatal("no reroutes after killing the gateway — failover never happened")
	}
	// Reroute must land within one advertisement period of the liveness
	// deadline (the sweep period equals the advert interval, 1s default).
	if rel.TimeToReroute > sim.Second {
		t.Fatalf("TimeToReroute %v exceeds one advert interval (1s)", rel.TimeToReroute)
	}
	if len(rel.Windows) != 1 {
		t.Fatalf("windows %+v, want exactly one", rel.Windows)
	}
	w := rel.Windows[0]
	if w.Before < 0.9 {
		t.Fatalf("pre-fault delivery %.3f, want healthy (>0.9)", w.Before)
	}
	// Post-settle delivery recovers to within 5%% of pre-fault.
	if w.After < w.Before-0.05 {
		t.Fatalf("post-fault delivery %.3f not within 5%% of pre-fault %.3f", w.After, w.Before)
	}
}

func TestFaultedRunDeterministicAcrossWorkers(t *testing.T) {
	cfgs := []Config{gatewayFailoverConfig(1), gatewayFailoverConfig(2), {
		Seed: 3, Protocol: MLR, NumSensors: 50, Side: 150, SensorRange: 40,
		NumGateways: 2, RunFor: 90 * sim.Second,
		Faults: fault.NewPlan().
			KillGateway(30*sim.Second, 1).
			WithChurn(fault.Churn{Rate: 120, MTTR: 2 * sim.Second}),
	}}
	seq := mustRunEach(t, 1, cfgs)
	par := mustRunEach(t, 8, cfgs)
	for i := range cfgs {
		a, b := seq[i], par[i]
		if !reflect.DeepEqual(a.Metrics.Snapshot(), b.Metrics.Snapshot()) {
			t.Fatalf("cfg %d: metrics differ between workers=1 and workers=8:\n%v\nvs\n%v",
				i, a.Metrics.Snapshot(), b.Metrics.Snapshot())
		}
		if !reflect.DeepEqual(a.Reliability, b.Reliability) {
			t.Fatalf("cfg %d: reliability differs:\n%+v\nvs\n%+v", i, a.Reliability, b.Reliability)
		}
	}
}

func TestChurnedScenarioHeals(t *testing.T) {
	res := mustRun(t, Config{
		Seed: 5, Protocol: SPR, NumSensors: 40, Side: 120, SensorRange: 40,
		NumGateways: 2, RunFor: 2 * sim.Minute,
		Faults: fault.NewPlan().WithChurn(fault.Churn{
			Rate: 300, MTTR: 3 * sim.Second, Stop: 90 * sim.Second,
		}),
	})
	if res.Reliability == nil || res.Reliability.FaultsInjected == 0 {
		t.Fatalf("churn injected nothing: %+v", res.Reliability)
	}
	if res.SensorsAlive != res.SensorsTotal {
		t.Fatalf("%d/%d sensors alive at the end — churn recoveries should heal the field",
			res.SensorsAlive, res.SensorsTotal)
	}
	if res.Metrics.DeliveryRatio() < 0.7 {
		t.Fatalf("delivery ratio %.3f under moderate churn, want > 0.7", res.Metrics.DeliveryRatio())
	}
}
