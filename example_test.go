package wmsn_test

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wmsn"
)

// ExampleRunContext shows the primary entry point: deploy, route, report,
// measure, with validation errors reported and context cancellation honored.
func ExampleRunContext() {
	res, err := wmsn.RunContext(context.Background(), wmsn.Config{
		Seed:        1,
		Protocol:    wmsn.SPR,
		NumSensors:  50,
		Side:        150,
		SensorRange: 35,
		NumGateways: 3,
		RunFor:      60 * wmsn.Second,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("delivery %.0f%%\n", 100*res.Metrics.DeliveryRatio())
	// Output: delivery 100%
}

// ExampleRunContext_deadline bounds a run's wall-clock budget: when the
// deadline fires, the kernel stops within one event batch and the error
// matches both ErrCanceled and the context's cause.
func ExampleRunContext_deadline() {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := wmsn.RunContext(ctx, wmsn.Config{
		Seed:        1,
		Protocol:    wmsn.SPR,
		NumSensors:  300,
		Side:        300,
		SensorRange: 40,
		NumGateways: 3,
		RunFor:      10 * wmsn.Hour, // far more virtual time than the budget allows
	})
	fmt.Println(errors.Is(err, wmsn.ErrCanceled), errors.Is(err, context.DeadlineExceeded))
	// Output: true true
}

// ExampleRunEach streams a sweep: results arrive in submission order as
// they complete, without waiting for the whole sweep.
func ExampleRunEach() {
	cfgs := make([]wmsn.Config, 3)
	for i := range cfgs {
		cfgs[i] = wmsn.Config{
			Seed: int64(i), Protocol: wmsn.SPR,
			NumSensors: 40, RunFor: 30 * wmsn.Second,
		}
	}
	err := wmsn.RunEach(context.Background(), 2, cfgs, func(i int, r wmsn.Result, err error) {
		fmt.Printf("run %d: delivery %.0f%%\n", i, 100*r.Metrics.DeliveryRatio())
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output:
	// run 0: delivery 100%
	// run 1: delivery 100%
	// run 2: delivery 100%
}

// ExampleRunContext_invalid shows an invalid configuration reported as one
// joined error instead of a panic.
func ExampleRunContext_invalid() {
	_, err := wmsn.RunContext(context.Background(), wmsn.Config{NumSensors: -5, LossRate: 1.0})
	fmt.Println(err)
	// Output:
	// scenario: invalid config: NumSensors -5 is negative — deploy at least one sensor
	// LossRate 1 outside [0,1) — 1 would lose every frame
}

// ExampleConfig_faults declares failures on a fault plan: a sensor crash
// with later recovery, and a gateway kill the protocol must route around.
// The Result carries a Reliability summary of the recovery.
func ExampleConfig_faults() {
	res, err := wmsn.RunContext(context.Background(), wmsn.Config{
		Seed:        1,
		Protocol:    wmsn.SPR,
		NumSensors:  50,
		Side:        150,
		SensorRange: 40,
		NumGateways: 3,
		RunFor:      120 * wmsn.Second,
		Faults: wmsn.NewFaultPlan().
			CrashAt(30*wmsn.Second, 1).
			RecoverAt(50*wmsn.Second, 1).
			KillGateway(60*wmsn.Second, 0),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	rel := res.Reliability
	gwLoss := rel.Windows[1]
	fmt.Printf("faults %d, reroutes > 0: %v, delivery after %s recovered: %v\n",
		rel.FaultsInjected, rel.Reroutes > 0, gwLoss.Label, gwLoss.After >= gwLoss.Before-0.05)
	// Output: faults 2, reroutes > 0: true, delivery after kill-gw 0 recovered: true
}

// ExampleBuildE shows the two-phase form with the imperative hooks that a
// declarative fault plan cannot express: Obs taps the event stream (here
// counting deliveries at one gateway), and StackWrapper compromises chosen
// stacks in place (here a grayhole insider dropping most forwarded data).
func ExampleBuildE() {
	delivered := 0
	net, err := wmsn.BuildE(wmsn.Config{
		Seed:        1,
		Protocol:    wmsn.SPR,
		NumSensors:  50,
		Side:        150,
		SensorRange: 35,
		NumGateways: 3,
		RunFor:      60 * wmsn.Second,
		StackWrapper: func(id wmsn.NodeID, st wmsn.Stack) wmsn.Stack {
			if id == 7 {
				return &wmsn.SelectiveForwarder{Inner: st, DropProb: 0.9}
			}
			return st
		},
		Obs: wmsn.NewTraceBus(wmsn.TraceSinkFunc(func(ev wmsn.TraceEventRecord) {
			if ev.Kind == wmsn.TracePacketDelivered && ev.Node == wmsn.GatewayID(0) {
				delivered++
			}
		})),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	res := net.RunTraffic()
	fmt.Println("run completed:", res.Elapsed > 0 && delivered >= 0)
	// Output: run completed: true
}

// ExampleNewWorld assembles a two-node network by hand: one sensor running
// SPR, one gateway, one reading delivered.
func ExampleNewWorld() {
	w := wmsn.NewWorld(7)
	m := wmsn.NewMetrics()
	p := wmsn.DefaultParams()

	sensor := wmsn.NewSPRSensor(p, m)
	w.AddSensor(1, wmsn.Point{X: 0}, 30, 0, sensor)
	w.AddGateway(1000, wmsn.Point{X: 20}, 30, 100, wmsn.NewSPRGateway(p, m))

	sensor.OriginateData([]byte("temp=20C"))
	w.Run(5 * wmsn.Second)
	fmt.Printf("delivered %d in %d hop(s)\n", m.Delivered, int(m.MeanHops()))
	// Output: delivered 1 in 1 hop(s)
}

// ExampleProvisionKeys shows SecMLR key pre-distribution: the sensor's and
// gateway's pairwise keys agree without the master secret ever being
// deployed.
func ExampleProvisionKeys() {
	sensorKeys, gatewayKeys := wmsn.ProvisionKeys(
		[]byte("deployment-master-secret"),
		[]wmsn.NodeID{1, 2, 3},    // sensors
		[]wmsn.NodeID{1000, 1001}, // gateways
		16,                        // µTESLA intervals (MLR rounds)
	)
	agree := sensorKeys[2].Gateway[1001].Key == gatewayKeys[1001].Sensor[2].Key
	fmt.Println("pairwise keys agree:", agree)
	// Output: pairwise keys agree: true
}
