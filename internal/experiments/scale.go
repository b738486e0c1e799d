package experiments

import (
	"fmt"
	"math"
	"time"

	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/placement"
	"wmsn/internal/runner"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

// scaleSide returns the side of an n-sensor field at E1b's density
// (300 sensors on a 300 m side).
func scaleSide(n int) float64 {
	return 300 * math.Sqrt(float64(n)/300)
}

// ScaleSweep measures the E1b hop metric on an n-sensor constant-density
// field for each gateway count — the scalability demonstration behind
// `wmsnbench -scale`. The field's sensor graph is built once
// (placement.Field, grid-indexed), and each gateway count is one
// multi-source BFS on it; the counts evaluate concurrently on o.Workers
// workers (0 = one per CPU), sharing the read-only Field. The note gives
// the build's wall time and each row its evaluation's.
//
// It is not part of the golden experiment suite: the timing column and
// note are machine-dependent by design. The rows themselves are
// deterministic in (n, seed) and independent of workers: grid placement
// ignores the RNG and every evaluation only reads the Field.
func ScaleSweep(o Opts, n int, gateways []int, seed int64) *trace.Table {
	side := scaleSide(n)
	w := node.NewWorld(node.Config{Seed: seed})
	sensors := (geom.Uniform{}).Deploy(n, geom.Square(side), w.Kernel().Rand())
	tbl := trace.NewTable(
		fmt.Sprintf("Scale: avg hops to nearest gateway, %d sensors uniform on %.0fm field", n, side),
		"gateways m", "avg hops", "max hops", "unreachable", "eval ms")
	start := time.Now()
	field := placement.NewField(sensors, 40)
	buildMS := float64(time.Since(start).Microseconds()) / 1000
	type row struct {
		ev placement.Eval
		ms float64
	}
	// The jobs return no error, so neither does forEach.
	rows, _ := forEach(o, len(gateways), func(i int) (row, error) {
		start := time.Now()
		// Grid placement draws no randomness, so it gets no RNG.
		gpos := (placement.Grid{}).Place(sensors, gateways[i], geom.Square(side), nil)
		return row{
			ev: field.Evaluate(gpos),
			ms: float64(time.Since(start).Microseconds()) / 1000,
		}, nil
	})
	for i, m := range gateways {
		tbl.AddRow(m, rows[i].ev.AvgHops, rows[i].ev.MaxHops, rows[i].ev.Unreachable,
			fmt.Sprintf("%.1f", rows[i].ms))
	}
	tbl.AddNote(fmt.Sprintf("grid placement, range 40 m, constant density vs E1b, %d workers; sensor graph built once in %.1f ms",
		runner.Resolve(o.Workers), buildMS))
	return tbl
}

// countStack is the do-nothing sensor stack of the traffic smoke: receptions
// are counted by the radio layer's stats, so the stack itself has nothing
// to do.
type countStack struct{}

func (countStack) Start(*node.Device)           {}
func (countStack) HandleMessage(*packet.Packet) {}

// ScaleTraffic pushes one hello broadcast from every one of n sensors
// through the event kernel — the ~30·n-delivery wave that exercises
// attachment, the radio fan-out and the event queue end to end at 100k-node
// field sizes. Broadcasts are staggered across a fixed 1024 µs span (index
// mod 1024). No field of o is read.
//
// The table's first cell is always 1, the number of kernels that ran the
// wave: perfbench's scale workload checks the row's first four cells (1,
// events, radio tx, deliveries) against its own layer-by-layer run of the
// same wave, which writes that 1.
func ScaleTraffic(o Opts, n int, seed int64) *trace.Table {
	side := scaleSide(n)
	w := node.NewWorld(node.Config{Seed: seed})
	sensors := (geom.Uniform{}).Deploy(n, geom.Square(side), w.Kernel().Rand())
	for i, p := range sensors {
		w.AddSensor(packet.NodeID(i+1), p, 40, 0, countStack{})
	}
	for i := range sensors {
		d := w.Device(packet.NodeID(i + 1))
		d.After(sim.Duration(i%1024)*sim.Microsecond, func() {
			id := d.ID()
			d.Send(&packet.Packet{Kind: packet.KindHello, From: id, Origin: id,
				To: packet.Broadcast, Target: packet.Broadcast, TTL: 1})
		})
	}
	start := time.Now()
	events := w.RunUntilIdle()
	elapsed := time.Since(start)
	stats := w.SensorMedium().Stats()
	tbl := trace.NewTable(
		fmt.Sprintf("Scale: broadcast wave through the event engine, %d sensors on %.0fm field", n, side),
		"kernels", "events", "radio tx", "deliveries", "wall ms", "ev/ms")
	ms := float64(elapsed.Microseconds()) / 1000
	perMS := 0.0
	if ms > 0 {
		perMS = float64(events) / ms
	}
	tbl.AddRow(1, events, stats.Transmissions, stats.Deliveries,
		fmt.Sprintf("%.1f", ms), fmt.Sprintf("%.0f", perMS))
	tbl.AddNote("one hello per sensor, range 40 m; deliveries ≈ degree · n")
	return tbl
}
