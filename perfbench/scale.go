package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"wmsn/internal/experiments"
	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/placement"
	"wmsn/internal/runner"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

// scale is the 100k-node regime. Each op makes the two calls
// `wmsnbench -scale -n 100000` makes, on its field (seed 901):
// experiments.ScaleSweep over the gateway counts with nproc workers, then
// experiments.ScaleTraffic on the sequential engine. The rows must match
// across ops. The field is the same in every run, whatever the run's seed:
// that fixes the work, and it is a field every sensor of which can reach a
// gateway, so unreachable is 0 in every row.
type scale struct {
	n       int
	gws     []int
	seed    int64
	workers int
}

// scaleSeed and scaleGateways are wmsnbench's -scale field seed and hop-sweep
// gateway counts.
const scaleSeed = 901

var scaleGateways = []int{1, 4, 16}

func newScale(c config) *scale {
	return &scale{n: c.size.scaleSensors, gws: scaleGateways, seed: scaleSeed,
		workers: runner.DefaultWorkers()}
}

func (w *scale) round(r int, tr *tracer) round {
	start := time.Now()
	var sweep, wave trace.TableData
	if tr == nil {
		sweep = experiments.ScaleSweep(experiments.Opts{Workers: w.workers}, w.n, w.gws, w.seed).Data()
		wave = experiments.ScaleTraffic(experiments.Opts{}, w.n, w.seed).Data()
	} else {
		sweep, wave = w.traced(tr)
	}
	o := op{dur: time.Since(start)}
	o.sig, o.gen, o.del, o.err = w.check(sweep, wave)
	return round{ops: []op{o}, wall: time.Since(start)}
}

func (w *scale) close() {}

// check verifies one op's tables: a hop row per gateway count with every
// sensor reachable, and a wave in which every sensor transmitted once and
// was heard. The signature keeps every column but the wall-clock ones. The
// readings are the field's sensors once per row, delivered when reachable.
func (w *scale) check(sweep, wave trace.TableData) (sig string, gen, del uint64, err error) {
	if len(sweep.Rows) != len(w.gws) || len(wave.Rows) != 1 {
		return "", 0, 0, fmt.Errorf("scale: %d hop rows and %d wave rows", len(sweep.Rows), len(wave.Rows))
	}
	for _, row := range sweep.Rows {
		unreachable, err := strconv.Atoi(row[3])
		if err != nil || unreachable != 0 {
			return "", 0, 0, fmt.Errorf("scale: m=%s has %s unreachable sensors", row[0], row[3])
		}
		sig += fmt.Sprint(row[:4])
		gen += uint64(w.n)
		del += uint64(w.n - unreachable)
	}
	wr := wave.Rows[0]
	if wr[2] != strconv.Itoa(w.n) || wr[3] == "0" {
		return "", 0, 0, fmt.Errorf("scale: wave sent %s frames and delivered %s for %d sensors", wr[2], wr[3], w.n)
	}
	return sig + fmt.Sprint(wr[:4]), gen, del, nil
}

// silentStack is the do-nothing sensor stack of the broadcast wave; the
// radio counts receptions itself.
type silentStack struct{}

func (silentStack) Start(*node.Device)           {}
func (silentStack) HandleMessage(*packet.Packet) {}

// traced recomposes the op from the layer calls the two experiments make,
// with a span around each: geom deployment, placement evaluation per gateway
// count, node attachment and the kernel's broadcast wave. check compares its
// rows with the untraced op's.
func (w *scale) traced(tr *tracer) (sweep, wave trace.TableData) {
	id := tr.newOp()
	side := 300 * math.Sqrt(float64(w.n)/300) // the experiments' E1b density
	region := geom.Square(side)
	deploy := func() (*node.World, []geom.Point) {
		t := time.Now()
		world := node.NewWorld(node.Config{Seed: w.seed})
		sensors := geom.Uniform{}.Deploy(w.n, region, world.Kernel().Rand())
		end := time.Now()
		tr.add(span{Op: id, Name: "geom"}, t, end)
		tr.count("geom.deploy_ms", ms(end.Sub(t)))
		return world, sensors
	}

	_, sensors := deploy()
	evals := make([]placement.Eval, len(w.gws))
	sem := make(chan struct{}, w.workers)
	var wg sync.WaitGroup
	for i, m := range w.gws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			t := time.Now()
			rng := rand.New(rand.NewSource(w.seed + int64(m)))
			gpos := placement.Grid{}.Place(sensors, m, region, rng)
			evals[i] = placement.Evaluate(sensors, gpos, 40)
			end := time.Now()
			tr.add(span{Op: id, Name: "placement"}, t, end)
			tr.count(fmt.Sprintf("placement.eval_ms.m%d", m), ms(end.Sub(t)))
		}()
	}
	wg.Wait()
	hops := trace.NewTable("", "gateways m", "avg hops", "max hops", "unreachable")
	for i, m := range w.gws {
		hops.AddRow(m, evals[i].AvgHops, evals[i].MaxHops, evals[i].Unreachable)
	}

	world, sensors := deploy()
	t := time.Now()
	for i, p := range sensors {
		world.AddSensor(packet.NodeID(i+1), p, 40, 0, silentStack{})
	}
	end := time.Now()
	tr.add(span{Op: id, Name: "node"}, t, end)
	tr.count("node.attach_ms", ms(end.Sub(t)))
	for i := range sensors {
		d := world.Device(packet.NodeID(i + 1))
		d.After(sim.Duration(i%1024)*sim.Microsecond, func() {
			me := d.ID()
			d.Send(&packet.Packet{Kind: packet.KindHello, From: me, Origin: me,
				To: packet.Broadcast, Target: packet.Broadcast, TTL: 1})
		})
	}
	pending := world.Kernel().Pending()
	t = time.Now()
	events := world.RunUntilIdle()
	end = time.Now()
	tr.add(span{Op: id, Name: "sim"}, t, end)
	stats := world.SensorMedium().Stats()
	tr.count("sim.wave_ms", ms(end.Sub(t)))
	tr.count("sim.run_ms", ms(end.Sub(t)))
	tr.count("sim.events", float64(events))
	tr.count("sim.queue_peak", float64(pending))
	tr.count("radio.tx", float64(stats.Transmissions))
	tr.count("radio.rx", float64(stats.Deliveries))
	waves := trace.NewTable("", "shards", "events", "radio tx", "deliveries")
	waves.AddRow(1, events, stats.Transmissions, stats.Deliveries)
	return hops.Data(), waves.Data()
}
