// Command wmsnsim runs one configurable WMSN simulation and prints its
// metrics: protocol, field geometry, traffic, energy model and radio
// imperfections are all flag-selectable.
//
// Examples:
//
//	wmsnsim -protocol spr -n 200 -side 300 -gateways 4
//	wmsnsim -protocol secmlr -n 100 -rounds 8 -roundlen 30 -runfor 300
//	wmsnsim -protocol leach -n 100 -gateways 1 -energy firstorder
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"wmsn"
	"wmsn/internal/obs"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

func main() {
	var ids []string
	for _, id := range wmsn.RegisteredProtocols() {
		ids = append(ids, string(id))
	}
	var (
		seed      = flag.Int64("seed", 1, "simulation seed")
		protocol  = flag.String("protocol", "spr", strings.Join(ids, "|"))
		n         = flag.Int("n", 100, "number of sensor nodes")
		side      = flag.Float64("side", 200, "field side length, meters")
		rangeM    = flag.Float64("range", 35, "sensor radio range, meters")
		gateways  = flag.Int("gateways", 3, "number of gateways (sinks)")
		interval  = flag.Float64("interval", 10, "reporting interval, seconds")
		runFor    = flag.Float64("runfor", 120, "simulated horizon, seconds")
		roundLen  = flag.Float64("roundlen", 100, "MLR round length, seconds")
		rounds    = flag.Int("rounds", 8, "MLR rotation schedule length")
		battery   = flag.Float64("battery", 2.0, "sensor battery, joules")
		energyStr = flag.String("energy", "fixed", "energy model: fixed|firstorder")
		loss      = flag.Float64("loss", 0, "per-link packet loss probability [0,1)")
		collide   = flag.Bool("collisions", false, "enable the collision model")
		untilDead = flag.Bool("until-death", false, "stop at the first sensor battery death")
		hotspot   = flag.Float64("hotspot", 0, "fraction of sensors packed in one corner (0 = uniform)")
		traceFile = flag.String("trace", "", "write a JSONL event trace to this file (see cmd/wmsntrace)")
		series    = flag.Float64("series", 0, "print a time-series table with this bucket width in seconds (enables tracing)")
	)
	flag.Parse()

	cfg := wmsn.Config{
		Seed:             *seed,
		Protocol:         wmsn.Protocol(*protocol),
		NumSensors:       *n,
		Side:             *side,
		SensorRange:      *rangeM,
		NumGateways:      *gateways,
		ReportInterval:   sim.Duration(*interval * float64(sim.Second)),
		RunFor:           sim.Time(*runFor * float64(sim.Second)),
		RoundLen:         sim.Duration(*roundLen * float64(sim.Second)),
		Rounds:           *rounds,
		SensorBattery:    *battery,
		LossRate:         *loss,
		Collisions:       *collide,
		StopAtFirstDeath: *untilDead,
	}
	switch *energyStr {
	case "fixed":
		cfg.EnergyModel = wmsn.DefaultFixedEnergy
	case "firstorder":
		cfg.EnergyModel = wmsn.DefaultFirstOrderEnergy
	default:
		fmt.Fprintf(os.Stderr, "unknown energy model %q\n", *energyStr)
		os.Exit(2)
	}
	if *hotspot > 0 {
		cfg.Deploy = wmsn.HotspotDeploy{
			Spot:     wmsn.Rect{X0: 0, Y0: 0, X1: *side / 4, Y1: *side / 4},
			Fraction: *hotspot,
		}
	}

	var (
		jsonl    *obs.JSONL
		bucketed *obs.Series
	)
	if *traceFile != "" || *series > 0 {
		bus := obs.NewBus()
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wmsnsim: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			jsonl = obs.NewJSONL(f)
			bus.Attach(jsonl)
		}
		if *series > 0 {
			bucket := sim.Duration(*series * float64(sim.Second))
			bucketed = obs.NewSeries(bucket)
			bus.Attach(bucketed)
			bus.Sample = bucket
		}
		cfg.Obs = bus
	}

	res, err := wmsn.RunContext(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wmsnsim: %v\n", err)
		os.Exit(2)
	}
	if jsonl != nil {
		if err := jsonl.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "wmsnsim: writing trace: %v\n", err)
			os.Exit(1)
		}
	}
	printResult(res)
	if bucketed != nil {
		fmt.Println()
		bucketed.Table(fmt.Sprintf("time series (%s, seed %d)", cfg.Protocol, cfg.Seed)).Render(os.Stdout)
	}
}

func printResult(res scenario.Result) {
	m := res.Metrics
	tbl := trace.NewTable(fmt.Sprintf("wmsnsim: %s, %d sensors, %d gateway(s), %.0fm field",
		res.Cfg.Protocol, res.Cfg.NumSensors, res.Cfg.NumGateways, res.Cfg.Side),
		"metric", "value")
	tbl.AddRow("simulated time", res.Elapsed.String())
	tbl.AddRow("data generated", m.Generated)
	tbl.AddRow("data delivered", m.Delivered)
	tbl.AddRow("delivery ratio", m.DeliveryRatio())
	tbl.AddRow("duplicates", m.Duplicates)
	tbl.AddRow("mean hops", m.MeanHops())
	tbl.AddRow("mean latency ms", m.MeanLatency().Millis())
	tbl.AddRow("p99 latency ms", m.LatencyPercentile(99).Millis())
	tbl.AddRow("control packets", m.ControlPackets())
	tbl.AddRow("data transmissions", m.DataSent)
	tbl.AddRow("dropped (no route)", m.DroppedNoRoute)
	tbl.AddRow("radio transmissions", res.Radio.Transmissions)
	tbl.AddRow("bytes on air", res.Radio.BytesOnAir)
	tbl.AddRow("lost to radio", res.Radio.Lost)
	tbl.AddRow("collisions", res.Radio.Collided)
	tbl.AddRow("sensor energy mean mJ", res.Energy.Mean*1000)
	tbl.AddRow("sensor energy stddev mJ", res.Energy.StdDev()*1000)
	tbl.AddRow("sensors alive", fmt.Sprintf("%d/%d", res.SensorsAlive, res.SensorsTotal))
	if res.FirstDeath >= 0 {
		tbl.AddRow("first sensor death", res.FirstDeath.String())
	}
	per := m.PerGateway()
	for gw, count := range per {
		tbl.AddRow(fmt.Sprintf("delivered via %v", gw), count)
	}
	tbl.Render(os.Stdout)
}
