// Quickstart: deploy 100 sensors and 3 gateways on a 200 m field, run the
// paper's SPR routing for two simulated minutes of periodic reporting, and
// print the headline metrics.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"
	"slices"

	"wmsn"
)

func main() {
	res, err := wmsn.RunContext(context.Background(), wmsn.Config{
		Seed:        42,
		Protocol:    wmsn.SPR,
		NumSensors:  100,
		Side:        200, // meters
		SensorRange: 35,  // meters
		NumGateways: 3,
		RunFor:      120 * wmsn.Second,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}

	m := res.Metrics
	fmt.Printf("generated readings : %d\n", m.Generated)
	fmt.Printf("delivered          : %d (%.1f%%)\n", m.Delivered, 100*m.DeliveryRatio())
	fmt.Printf("mean hops          : %.2f\n", m.MeanHops())
	fmt.Printf("mean latency       : %.1f ms\n", m.MeanLatency().Millis())
	fmt.Printf("control packets    : %d\n", m.ControlPackets())
	fmt.Printf("mean sensor energy : %.2f mJ\n", res.Energy.Mean*1000)

	// Which gateway absorbed how much — the multi-gateway architecture at
	// work (a flat WSN would funnel everything into one sink). Printed in
	// gateway ID order, so a seed prints the same lines every run.
	perGW := m.PerGateway()
	gws := make([]wmsn.NodeID, 0, len(perGW))
	for gw := range perGW {
		gws = append(gws, gw)
	}
	slices.Sort(gws)
	for _, gw := range gws {
		fmt.Printf("  via %v: %d readings\n", gw, perGW[gw])
	}
}
