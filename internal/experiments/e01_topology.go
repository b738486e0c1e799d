package experiments

import (
	"fmt"
	"math"

	"wmsn/internal/core"
	"wmsn/internal/geom"
	"wmsn/internal/network"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/placement"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

// fig2Topology reconstructs the worked example of Fig. 2: a sink-centred
// field in which S1, S2, S3 and S4 reach the single sink in 2, 7, 6 and 9
// hops, and reach the best of three gateways in 1, 1, 1 and 2 hops.
//
// Layout (range 12 m, spacing 10 m):
//
//	branch A (north): sink - a1 - S1,                 G1 north of S1
//	branch B (east):  sink - b1..b6 - S2 - b7 - S4,   G2 between S2 and b7
//	branch C (west):  sink - c1..c5 - S3,             G3 west of S3
func fig2Topology() (pos map[packet.NodeID]geom.Point, named map[string]packet.NodeID, gateways []packet.NodeID) {
	pos = map[packet.NodeID]geom.Point{}
	named = map[string]packet.NodeID{}
	id := packet.NodeID(1)
	add := func(name string, p geom.Point) packet.NodeID {
		pos[id] = p
		if name != "" {
			named[name] = id
		}
		id++
		return id - 1
	}
	named["sink"] = add("sink", geom.Point{})
	// Branch A.
	add("", geom.Point{Y: 10})
	add("S1", geom.Point{Y: 20})
	// Branch B.
	for i := 1; i <= 6; i++ {
		add(fmt.Sprintf("b%d", i), geom.Point{X: float64(i) * 10})
	}
	add("S2", geom.Point{X: 70})
	add("b7", geom.Point{X: 80})
	add("S4", geom.Point{X: 90})
	// Branch C.
	for i := 1; i <= 5; i++ {
		add("", geom.Point{X: float64(i) * -10})
	}
	add("S3", geom.Point{X: -60})
	// Gateways.
	g1 := add("G1", geom.Point{Y: 30})
	g2 := add("G2", geom.Point{X: 75, Y: 8})
	g3 := add("G3", geom.Point{X: -70})
	return pos, named, []packet.NodeID{g1, g2, g3}
}

// E1HopReduction reproduces Fig. 2 exactly and generalizes it: average hop
// count to the nearest gateway as the number of gateways grows on a random
// field (§4.1's motivation for multiple-gateway deployment).
func E1HopReduction(o Opts) ([]*trace.Table, error) {
	// Part A: the exact worked example.
	pos, named, gws := fig2Topology()
	ranges := map[packet.NodeID]float64{}
	for id := range pos {
		ranges[id] = 12
	}
	g := network.Build(pos, ranges)
	sink := named["sink"]

	exact := trace.NewTable("E1a: Fig. 2 worked example (hops per source node)",
		"node", "to single sink (paper)", "to single sink (ours)",
		"to nearest of 3 gateways (paper)", "to nearest of 3 gateways (ours)")
	paperSink := map[string]int{"S1": 2, "S2": 7, "S3": 6, "S4": 9}
	paperGW := map[string]int{"S1": 1, "S2": 1, "S3": 1, "S4": 2}
	for _, name := range []string{"S1", "S2", "S3", "S4"} {
		id := named[name]
		_, hGW := g.NearestOf(id, gws)
		exact.AddRow(name, paperSink[name], g.Hops(id, sink), paperGW[name], hGW)
	}

	// Part B: sweep the number of gateways on a uniform random field. Every
	// (m, seed) cell is an independent deterministic job: fan them all out
	// and fold the averages in submission order.
	n := pick(o, 300, 80)
	side := pick(o, 300.0, 160.0)
	rangeM := 40.0
	seeds := o.seeds(5)
	maxM := pick(o, 8, 4)
	sweep := trace.NewTable(
		fmt.Sprintf("E1b: avg hops to nearest gateway, %d sensors uniform on %.0fm field", n, side),
		"gateways m", "avg hops", "max hops", "total hops (∝ energy)", "unreachable")
	evals, err := forEach(o, maxM*seeds, func(i int) (placement.Eval, error) {
		m, s := i/seeds+1, i%seeds
		w := node.NewWorld(node.Config{Seed: int64(1000*m + s)})
		sensors := (geom.Uniform{}).Deploy(n, geom.Square(side), w.Kernel().Rand())
		gpos := (placement.Grid{}).Place(sensors, m, geom.Square(side), w.Kernel().Rand())
		return placement.Evaluate(sensors, gpos, rangeM), nil
	})
	if err != nil {
		return nil, err
	}
	for m := 1; m <= maxM; m++ {
		var avg, maxH, tot, unre float64
		for s := 0; s < seeds; s++ {
			ev := evals[(m-1)*seeds+s]
			avg += ev.AvgHops
			maxH += float64(ev.MaxHops)
			tot += float64(ev.TotalHops)
			unre += float64(ev.Unreachable)
		}
		f := float64(seeds)
		sweep.AddRow(m, avg/f, maxH/f, tot/f, unre/f)
	}
	sweep.AddNote("grid placement, range %.0f m, %d seeds", rangeM, seeds)
	return []*trace.Table{exact, sweep}, nil
}

// E2Table1 replays the paper's Table 1: |P|=5 feasible places A..E, m=3
// gateways, three rounds ({A,B,C} -> {A,D,C} -> {E,D,C}); it prints node
// Si's incremental routing table after each round, with the selected route
// starred.
func E2Table1(o Opts) ([]*trace.Table, error) {
	sensors := make([]geom.Point, 12)
	for i := range sensors {
		sensors[i] = geom.Point{X: float64(i) * 10}
	}
	places := []geom.Point{
		{X: 120},       // A
		{X: -10},       // B
		{X: 45, Y: 10}, // C
		{X: 75, Y: 10}, // D
		{X: 5, Y: 10},  // E
	}
	names := []string{"A", "B", "C", "D", "E"}
	schedule := [][]int{{0, 1, 2}, {0, 3, 2}, {4, 3, 2}}
	roundLen := 20 * sim.Second

	// E2 is one multi-round simulation whose rounds share routing state, so
	// there is nothing to fan out.
	return e2Rounds(sensors, places, names, schedule, roundLen), nil
}

func e2Rounds(sensors []geom.Point, places []geom.Point, names []string, schedule [][]int, roundLen sim.Duration) []*trace.Table {
	w := node.NewWorld(node.Config{Seed: 3})
	m := core.NewMetrics()
	params := core.DefaultParams()
	stacks := map[packet.NodeID]*core.MLRSensor{}
	for i, pos := range sensors {
		id := packet.NodeID(i + 1)
		st := core.NewMLRSensor(params, m)
		stacks[id] = st
		w.AddSensor(id, pos, 12, 0, st)
	}
	gwIDs := []packet.NodeID{1000, 1001, 1002}
	for i, id := range gwIDs {
		w.AddGateway(id, places[schedule[0][i]], 12, 500, core.NewMLRGateway(params, m))
	}
	rounds := &core.Rounds{World: w, Places: places, Gateways: gwIDs, RoundLen: roundLen, Schedule: schedule}
	rounds.Start()

	si := stacks[8] // "Si" at x=70
	var out []*trace.Table
	for r := 0; r < 3; r++ {
		// Originate a few seconds into the round, after the movement
		// notifications have flooded.
		w.Kernel().After(3*sim.Second, func() { si.OriginateData([]byte("reading")) })
		w.Run(sim.Time(r+1)*roundLen - sim.Second)
		tbl := trace.NewTable(
			fmt.Sprintf("E2: Si routing table during round %d (deployed: %s)", r+1, deployedNames(rounds, names)),
			"Pi", "hops", "route", "selected")
		best := si.BestRoute()
		snapshot := si.Table()
		for p := 0; p < len(places); p++ {
			entry, ok := snapshot[p]
			if !ok {
				continue
			}
			sel := ""
			if best != nil && best.Place == p {
				sel = "*"
			}
			tbl.AddRow(names[p], entry.Hops, packet.PathString(entry.Path), sel)
		}
		tbl.AddNote("table size %d of |P|=%d; entries accumulate and are never rebuilt", len(snapshot), len(places))
		out = append(out, tbl)
	}
	return out
}

func deployedNames(r *core.Rounds, names []string) string {
	s := ""
	for _, p := range r.CurrentPlaces() {
		if s != "" {
			s += ","
		}
		s += names[p]
	}
	return s
}

// E3Scalability reproduces the flat-architecture scalability complaint (§1):
// with a single sink, hop counts and delivery latency grow with field size;
// multiple gateways flatten the curve. Density is held constant while the
// field grows.
func E3Scalability(o Opts) ([]*trace.Table, error) {
	sizes := pick(o, []int{100, 200, 400, 800}, []int{60, 120})
	seeds := o.seeds(2)
	tbl := trace.NewTable("E3: scalability at constant density (SPR, uniform field)",
		"sensors n", "field side m", "gateways", "avg hops", "mean latency ms", "delivery")
	var cfgs []scenario.Config
	for _, n := range sizes {
		side := 200 * math.Sqrt(float64(n)/100)
		for _, gws := range []int{1, 4} {
			for s := 0; s < seeds; s++ {
				cfgs = append(cfgs, scenario.Config{
					Seed: int64(10*n + gws + s), Protocol: scenario.SPR,
					NumSensors: n, Side: side, SensorRange: 40, NumGateways: gws,
					ReportInterval: 20 * sim.Second, RunFor: 80 * sim.Second,
					SensorBattery: 1e6, // hops/latency study; keep the storm from killing relays
				})
			}
		}
	}
	results, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, n := range sizes {
		side := 200 * math.Sqrt(float64(n)/100)
		for _, gws := range []int{1, 4} {
			var hops, lat, ratio float64
			for s := 0; s < seeds; s++ {
				res := results[i]
				i++
				hops += res.Metrics.MeanHops()
				lat += res.Metrics.MeanLatency().Millis()
				ratio += res.Metrics.DeliveryRatio()
			}
			f := float64(seeds)
			tbl.AddRow(n, fmt.Sprintf("%.0f", side), gws, hops/f, lat/f, ratio/f)
		}
	}
	tbl.AddNote("%d seeds per row; gateways grid-placed", seeds)
	return []*trace.Table{tbl}, nil
}
