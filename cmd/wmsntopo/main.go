// Command wmsntopo generates and inspects WMSN deployments without running
// traffic: connectivity, degree distribution, hop statistics to the nearest
// gateway, and a comparison of gateway placement strategies. It answers the
// two §4.1 deployment questions — how many gateways, and where — for a
// concrete field before any simulation is run.
//
// Examples:
//
//	wmsntopo -n 300 -side 300 -range 40 -gateways 3
//	wmsntopo -n 200 -deploy clusters -strategy kmeans -gateways 4
//	wmsntopo -n 300 -sweep 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"wmsn/internal/analytic"
	"wmsn/internal/geom"
	"wmsn/internal/placement"
	"wmsn/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its exit status: 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wmsntopo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "deployment seed")
		n        = fs.Int("n", 200, "number of sensors")
		side     = fs.Float64("side", 250, "field side, meters")
		rangeM   = fs.Float64("range", 40, "radio range, meters")
		gateways = fs.Int("gateways", 3, "gateways to place")
		deploy   = fs.String("deploy", "uniform", "uniform|grid|clusters|hotspot")
		strategy = fs.String("strategy", "grid", "placement: grid|random|kmeans|greedy")
		sweep    = fs.Int("sweep", 0, "if > 0, sweep gateway counts 1..sweep instead of one placement")
		model    = fs.Bool("model", false, "print the §7.2 analytical model's predictions next to measurements")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// The lengths scenario.Config.Validate accepts: finite, not negative.
	if !(*side >= 0 && *side <= math.MaxFloat64 && *rangeM >= 0 && *rangeM <= math.MaxFloat64) {
		fmt.Fprintf(stderr, "-side %g and -range %g must be finite and not negative\n", *side, *rangeM)
		fs.Usage()
		return 2
	}

	rng := rand.New(rand.NewSource(*seed))
	region := geom.Square(*side)
	var deployer geom.Deployer
	switch *deploy {
	case "uniform":
		deployer = geom.Uniform{}
	case "grid":
		deployer = geom.Grid{Jitter: 0.3}
	case "clusters":
		deployer = geom.Clusters{K: 4}
	case "hotspot":
		deployer = geom.Hotspot{Spot: geom.Rect{X0: 0, Y0: 0, X1: *side / 4, Y1: *side / 4}, Fraction: 0.5}
	default:
		fmt.Fprintf(stderr, "unknown deployment %q\n", *deploy)
		return 2
	}
	sensors := deployer.Deploy(*n, region, rng)

	// Sensor-only connectivity: the one graph every gateway set below is
	// evaluated on.
	sensorField := placement.NewField(sensors, *rangeM)
	g := sensorField.Graph()
	comps := g.Components()
	largest := 0
	for _, c := range comps {
		if len(c) > largest {
			largest = len(c)
		}
	}
	degHist := map[int]int{}
	for _, id := range g.IDs() {
		degHist[g.Degree(id)]++
	}
	minDeg, maxDeg := 1<<30, 0
	for d := range degHist {
		if d < minDeg {
			minDeg = d
		}
		if d > maxDeg {
			maxDeg = d
		}
	}

	field := trace.NewTable(fmt.Sprintf("field: %d sensors (%s) on %.0fm, range %.0fm", *n, *deploy, *side, *rangeM),
		"metric", "value")
	field.AddRow("connected", g.Connected())
	field.AddRow("components", len(comps))
	field.AddRow("largest component", largest)
	field.AddRow("avg degree", g.AvgDegree())
	field.AddRow("degree min/max", fmt.Sprintf("%d / %d", minDeg, maxDeg))
	field.Render(stdout)
	fmt.Fprintln(stdout)

	if *model {
		am := analytic.Model{N: *n, Side: *side, Range: *rangeM, K: *gateways}
		ev := sensorField.Evaluate(geom.PlaceGrid(*gateways, region))
		tbl := trace.NewTable("analytical model (§7.2) vs this deployment",
			"quantity", "model", "measured")
		tbl.AddRow("avg degree", am.AvgDegree(), g.AvgDegree())
		tbl.AddRow("connected", am.Connected(), g.Connected())
		tbl.AddRow("avg hops to nearest gateway", am.AvgHops(), ev.AvgHops)
		tbl.AddRow("total forwarding load / interval", am.TotalForwardingLoad(), float64(ev.TotalHops))
		tbl.Render(stdout)
		fmt.Fprintln(stdout)
	}

	strategies := map[string]placement.Strategy{
		"grid":   placement.Grid{},
		"random": placement.Random{},
		"kmeans": placement.KMeans{},
		"greedy": placement.GreedyCoverage{CoverRadius: *rangeM * 2},
	}
	if *sweep > 0 {
		st, ok := strategies[*strategy]
		if !ok {
			fmt.Fprintf(stderr, "unknown strategy %q\n", *strategy)
			return 2
		}
		tbl := trace.NewTable(fmt.Sprintf("gateway-count sweep (%s placement)", *strategy),
			"k", "avg hops", "max hops", "unreachable")
		for k := 1; k <= *sweep; k++ {
			ev := sensorField.Evaluate(st.Place(sensors, k, region, rng))
			tbl.AddRow(k, ev.AvgHops, ev.MaxHops, ev.Unreachable)
		}
		tbl.Render(stdout)
		return 0
	}

	tbl := trace.NewTable(fmt.Sprintf("placement comparison, %d gateway(s)", *gateways),
		"strategy", "avg hops", "max hops", "total hops", "unreachable")
	for _, name := range []string{"grid", "random", "kmeans", "greedy"} {
		ev := sensorField.Evaluate(strategies[name].Place(sensors, *gateways, region, rng))
		tbl.AddRow(name, ev.AvgHops, ev.MaxHops, ev.TotalHops, ev.Unreachable)
	}
	tbl.Render(stdout)
	return 0
}
