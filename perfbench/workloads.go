package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"wmsn/internal/attack"
	"wmsn/internal/core"
	"wmsn/internal/fault"
	"wmsn/internal/runner"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
)

// workloadNames lists the workloads in the order README.md describes them.
var workloadNames = []string{"paper-sweep", "e3-field", "scale-100k", "wmsnd-traced"}

// size fixes how big each workload's inputs are. The command line always
// uses fullSize; the tests use tinySize.
type size struct {
	// paper-sweep: E14's field.
	sweepSensors int
	sweepSide    float64
	sweepHorizon sim.Duration
	// e3-field: E3's 400-sensor point.
	e3Sensors int
	e3Side    float64
	e3Horizon sim.Duration
	// scale-100k: the field size.
	scaleSensors int
	// wmsnd-traced: the job spec.
	jobSensors int
	jobHorizon sim.Duration
}

var fullSize = size{
	sweepSensors: 100, sweepSide: 200, sweepHorizon: 120 * sim.Second,
	e3Sensors: 400, e3Side: 400, e3Horizon: 80 * sim.Second,
	scaleSensors: 100_000,
	jobSensors:   100, jobHorizon: 60 * sim.Second,
}

var tinySize = size{
	sweepSensors: 30, sweepSide: 110, sweepHorizon: 30 * sim.Second,
	e3Sensors: 40, e3Side: 130, e3Horizon: 30 * sim.Second,
	scaleSensors: 2000,
	jobSensors:   30, jobHorizon: 30 * sim.Second,
}

// Every run of a workload cycles through the same fixed pool of inputs, the
// seeds the matching experiments use, so each seed gets the same work: one
// simulation seed alone moves a 400-sensor run's event count by up to ±25%,
// which would otherwise swamp any change under test. The run's seed decides
// the order in which the measured rounds walk the pool. Round 0, the set-up
// round, always runs the pool's first input, so set-up times are comparable
// across seeds.

// cycle maps round r to a pool index: 0 for the set-up round, then a
// seed-shuffled walk over the pool that repeats, so every input recurs and
// is checked against its first run.
func cycle(seed int64, pool, r int) int {
	if r == 0 {
		return 0
	}
	return rand.New(rand.NewSource(seed)).Perm(pool)[(r-1)%pool]
}

// start generates a workload's inputs from the seed and prepares it.
func start(c config) (workload, error) {
	switch c.workload {
	case "paper-sweep":
		return newPaperSweep(c), nil
	case "e3-field":
		return newE3Field(c), nil
	case "scale-100k":
		return newScale(c), nil
	case "wmsnd-traced":
		return newJobs(c)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", c.workload, workloadNames)
}

// paperSweep is the batch the paper's tables come from: {SPR, MLR, SecMLR} ×
// {clean; 20% per-link loss with E14's link ARQ; gateway 0 killed at a third
// of the horizon (E13); 10% blackhole insiders at a quarter (E15)} on E14's
// field. A round is one 12-cell batch on one of E14's seeds, run on nproc
// workers through runner.MapEach around scenario.RunContext, as
// scenario.RunEach does, so that each run's latency can be timed.
type paperSweep struct {
	seed    int64
	workers int
	batches [][]scenario.Config
}

// sweepSeeds are E14's seeds.
var sweepSeeds = []int64{1400, 1401, 1402}

func newPaperSweep(c config) *paperSweep {
	sz := c.size
	arq := core.DefaultParams()
	arq.LinkRetries = 4
	arq.ForwardQueueLimit = 32
	w := &paperSweep{seed: c.seed, workers: runner.DefaultWorkers()}
	for _, seed := range sweepSeeds {
		var batch []scenario.Config
		for _, proto := range []scenario.Protocol{scenario.SPR, scenario.MLR, scenario.SecMLR} {
			for cell := 0; cell < 4; cell++ {
				cfg := scenario.Config{
					Seed: seed, Protocol: proto, NumSensors: sz.sweepSensors, Side: sz.sweepSide,
					SensorRange: 40, NumGateways: 3, ReportInterval: 10 * sim.Second,
					RunFor: sz.sweepHorizon, SensorBattery: 1e6,
				}
				switch cell {
				case 1:
					cfg.LossRate = 0.2
					cfg.Params = &arq
				case 2:
					cfg.Faults = fault.NewPlan().KillGateway(sz.sweepHorizon/3, 0).Settle(15 * sim.Second)
				case 3:
					// As in E15, the victims depend on the seed, not the protocol.
					cfg.Faults = fault.NewPlan().
						CompromiseFractionAt(sz.sweepHorizon/4, 0.1, attack.Spec{Kind: attack.KindBlackhole}, 150000+seed).
						Settle(15 * sim.Second)
				}
				batch = append(batch, cfg)
			}
		}
		w.batches = append(w.batches, batch)
	}
	return w
}

func (w *paperSweep) round(r int, tr *tracer) round {
	t := cycle(w.seed, len(w.batches), r)
	cfgs := w.batches[t]
	ops := make([]op, len(cfgs))
	type run struct {
		res scenario.Result
		dur time.Duration
		end time.Time
	}
	var roundID int
	var ends []time.Time
	var deliverWait time.Duration
	if tr != nil {
		roundID = tr.reserve()
	}
	start := time.Now()
	runner.MapEach(w.workers, len(cfgs), func(i int) (run, error) {
		id := -1
		if tr != nil {
			id = tr.newOp()
		}
		res, dur, err := simRun(cfgs[i], tr, id, roundID)
		return run{res: res, dur: dur, end: time.Now()}, err
	}, func(i int, v run, err error) {
		deliverWait += time.Since(v.end)
		ends = append(ends, v.end)
		ops[i] = simOp(t*len(cfgs)+i, v.dur, v.res, err)
	})
	end := time.Now()
	if tr != nil {
		var busy time.Duration
		for _, o := range ops {
			busy += o.dur
		}
		// Tail idle: once the last run has been handed out, each worker idles
		// from its final completion to the end of the batch. The workers'
		// final completions are the latest ends.
		sort.Slice(ends, func(i, j int) bool { return ends[i].After(ends[j]) })
		var idle time.Duration
		for _, e := range ends[:min(w.workers, len(ends))] {
			idle += end.Sub(e)
		}
		tr.add(span{ID: roundID, Op: -1, Name: "runner"}, start, end)
		tr.count("runner.rounds", 1)
		tr.count("runner.busy_ms", ms(busy))
		tr.count("runner.capacity_ms", ms(end.Sub(start))*float64(w.workers))
		tr.count("runner.tail_idle_ms", ms(idle)/float64(w.workers))
		tr.count("runner.deliver_wait_ms", ms(deliverWait))
	}
	return round{ops: ops, wall: end.Sub(start)}
}

func (w *paperSweep) close() {}

// e3Field is E3's 400-sensor SPR point, one run at a time from a single
// client. Its pool is E3's own four runs of that point, two seeds under each
// of the 1- and 4-gateway arms, and consecutive ops alternate the arms.
type e3Field struct {
	seed   int64
	inputs []scenario.Config
}

// e3Seeds are E3's seeds for the 400-sensor point (10·n + gateways + s),
// ordered so that walking them in pairs alternates the arms.
var e3Seeds = []struct {
	seed     int64
	gateways int
}{{4001, 1}, {4004, 4}, {4002, 1}, {4005, 4}}

func newE3Field(c config) *e3Field {
	sz := c.size
	w := &e3Field{seed: c.seed}
	for _, in := range e3Seeds {
		w.inputs = append(w.inputs, scenario.Config{
			Seed: in.seed, Protocol: scenario.SPR, NumSensors: sz.e3Sensors, Side: sz.e3Side,
			SensorRange: 40, NumGateways: in.gateways, ReportInterval: 20 * sim.Second,
			RunFor: sz.e3Horizon, SensorBattery: 1e6,
		})
	}
	return w
}

func (w *e3Field) round(r int, tr *tracer) round {
	in := w.order(r)
	id := -1
	if tr != nil {
		id = tr.newOp()
	}
	start := time.Now()
	res, dur, err := simRun(w.inputs[in], tr, id, 0)
	o := simOp(in, dur, res, err)
	return round{ops: []op{o}, wall: time.Since(start)}
}

// order walks the pool in seed-shuffled pairs of one 1-gateway and one
// 4-gateway run, so consecutive ops alternate the arms.
func (w *e3Field) order(r int) int {
	if r == 0 {
		return 0
	}
	pair := cycle(w.seed, len(w.inputs)/2, (r+1)/2)
	return 2*pair + (r+1)%2
}

func (w *e3Field) close() {}
