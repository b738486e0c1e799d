package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"wmsn/internal/fault"
	"wmsn/internal/metrics"
	"wmsn/internal/obs"
	"wmsn/internal/runner"
	"wmsn/internal/scenario"
	"wmsn/internal/service"
)

// jobs is the simulation service under load: service.New(Config{}) behind a
// loopback httptest server, driven by nproc clients in lockstep rounds of one
// job each. Every job is the CI smoke's request (SPR, gateway 0 killed at a
// third of the horizon, obs tracing and a 5 s series on) with one seed,
// streamed with ?stream=1 until its done line.
type jobs struct {
	seed    int64
	clients int
	svc     *service.Service
	ts      *httptest.Server
	client  *http.Client
	bodies  [][]byte
	cfgs    []scenario.Config // each body's spec as scenario.RunContext takes it
}

// jobSeeds are the job pool's seeds, from E13's seed base.
var jobSeeds = []int64{1300, 1301, 1302, 1303, 1304, 1305, 1306, 1307}

func newJobs(c config) (*jobs, error) {
	sz := c.size
	w := &jobs{seed: c.seed, clients: runner.DefaultWorkers()}
	kill := sz.jobHorizon / 3
	for _, seed := range jobSeeds {
		body, err := json.Marshal(service.RunRequest{
			Run: &service.RunSpec{
				Seed: seed, Protocol: "spr", NumSensors: sz.jobSensors, NumGateways: 3,
				RunForS: sz.jobHorizon.Seconds(),
				Faults:  []service.FaultSpec{{Kind: "kill_gateway", AtS: kill.Seconds(), Gateway: 0}},
			},
			Trace:   true,
			SeriesS: 5,
		})
		if err != nil {
			return nil, fmt.Errorf("encode job request: %w", err)
		}
		w.bodies = append(w.bodies, body)
		w.cfgs = append(w.cfgs, scenario.Config{
			Seed: seed, Protocol: scenario.SPR, NumSensors: sz.jobSensors, NumGateways: 3,
			RunFor: sz.jobHorizon, Faults: fault.NewPlan().KillGateway(kill, 0),
		})
	}
	w.svc = service.New(service.Config{})
	w.ts = httptest.NewServer(w.svc)
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients}}
	return w, nil
}

func (w *jobs) close() {
	w.client.CloseIdleConnections()
	w.ts.Close()
	w.svc.Close()
}

// jobTimes are the arrival times of a job's stream lines.
type jobTimes struct {
	post, accepted, firstResult, lastResult, done time.Time
}

func (w *jobs) round(r int, tr *tracer) round {
	var before service.Stats
	var statsErr error
	if tr != nil {
		before, statsErr = w.stats()
	}
	ops := make([]op, w.clients)
	times := make([]jobTimes, w.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops[c], times[c] = w.job(w.input(r, c))
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for i := range ops {
		switch {
		case ops[i].err != nil:
		case tr != nil:
			w.trace(&ops[i], times[i], tr)
		case r == 0:
			w.verify(&ops[i])
		}
	}
	if tr != nil {
		after, err := w.stats()
		if err = errors.Join(statsErr, err); err != nil && ops[0].err == nil {
			ops[0].err = err
		}
		tr.count("service.shed", float64(after.Shed-before.Shed))
		tr.count("service.rejected", float64(after.RejectedInvalid-before.RejectedInvalid))
	}
	return round{ops: ops, wall: wall}
}

// input is client c's job in round r: the pool's first jobs in the set-up
// round, then consecutive steps of the seed-shuffled cycle.
func (w *jobs) input(r, c int) int {
	if r == 0 {
		return c % len(w.bodies)
	}
	return cycle(w.seed, len(w.bodies), (r-1)*w.clients+c+1)
}

// traceLine prefixes every obs event line; the client skips those unparsed.
var traceLine = []byte(`{"type":"trace"`)

// job posts one request, streams it to its done line and checks the stream:
// exactly one result line, one done line in state done, and no error,
// truncation notice or other line.
func (w *jobs) job(in int) (op, jobTimes) {
	o := op{input: in}
	var jt jobTimes
	jt.post = time.Now()
	resp, err := w.client.Post(w.ts.URL+"/v1/runs?stream=1", "application/json", bytes.NewReader(w.bodies[in]))
	if err != nil {
		o.dur, o.err = time.Since(jt.post), fmt.Errorf("job %d: %w", in, err)
		return o, jt
	}
	defer resp.Body.Close()
	var results, dones int
	var others []string
	var snap *metrics.Snapshot
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		b := sc.Bytes()
		if bytes.HasPrefix(b, traceLine) {
			continue
		}
		var ln service.StreamLine
		if err := json.Unmarshal(b, &ln); err != nil {
			others = append(others, "unparsable line")
			continue
		}
		now := time.Now()
		switch ln.Type {
		case "job":
			jt.accepted = now
		case "series":
		case "result":
			results++
			if results == 1 {
				jt.firstResult = now
			}
			jt.lastResult, snap = now, ln.Metrics
		case "done":
			dones++
			jt.done = now
			if ln.State != service.StateDone {
				others = append(others, "done in state "+ln.State)
			}
		default:
			others = append(others, ln.Type+": "+ln.Error)
		}
	}
	o.dur = time.Since(jt.post)
	if dones > 0 {
		o.dur = jt.done.Sub(jt.post)
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("job %d: status %d", in, resp.StatusCode)
	case sc.Err() != nil:
		o.err = fmt.Errorf("job %d: read stream: %w", in, sc.Err())
	case results != 1 || dones != 1 || len(others) > 0:
		o.err = fmt.Errorf("job %d: %d result and %d done lines, unexpected %q", in, results, dones, others)
	case snap == nil || snap.Delivered == 0 || snap.Delivered > snap.Generated:
		o.err = fmt.Errorf("job %d: result without deliveries", in)
	default:
		o.gen, o.del = snap.Generated, snap.Delivered
		o.sig, o.err = snapSig(*snap)
	}
	return o, jt
}

// verify fails the job when its streamed counters differ from an in-process
// scenario.RunContext of the same spec.
func (w *jobs) verify(o *op) {
	res, err := scenario.RunContext(context.Background(), w.cfgs[o.input])
	w.same(o, res, err, "in-process run")
}

// same fails the job when res is not the run the service streamed.
func (w *jobs) same(o *op, res scenario.Result, err error, what string) {
	if err != nil {
		o.err = fmt.Errorf("job %d: %s: %w", o.input, what, err)
		return
	}
	sig, err := snapSig(res.Metrics.Snapshot())
	if err != nil || sig != o.sig {
		o.err = fmt.Errorf("job %d: %s differs from the streamed result", o.input, what)
	}
}

// countingWriter discards what is written to it, counting bytes and lines.
type countingWriter struct{ bytes, lines int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.bytes += len(p)
	c.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// trace records one traced job and times its spec in this process three
// ways: instrumented (the scenario, sim and core layers), with a JSONL event
// bus writing to a countingWriter, and plain. The bus run minus the plain run is
// obs's cost; the job's time beyond the bus run is the service's. All three
// must reproduce the streamed counters.
func (w *jobs) trace(o *op, jt jobTimes, tr *tracer) {
	id := tr.newOp()
	cfg := w.cfgs[o.input]
	res, _, err := simRun(cfg, tr, id, 0)
	w.same(o, res, err, "instrumented run")

	t := time.Now()
	res, err = scenario.RunContext(context.Background(), cfg)
	plain := time.Since(t)
	w.same(o, res, err, "plain run")

	var cw countingWriter
	jl := obs.NewJSONL(&cw)
	cfg.Obs = obs.NewBus(jl)
	t = time.Now()
	res, err = scenario.RunContext(context.Background(), cfg)
	if err == nil {
		err = jl.Flush()
	}
	busEnd := time.Now()
	bus := busEnd.Sub(t)
	w.same(o, res, err, "run with an event bus")
	tr.add(span{Op: id, Name: "obs", Excl: int64(plain)}, t, busEnd)
	tr.count("obs.trace_ms", ms(bus-plain))
	tr.count("obs.events", float64(cw.lines))
	tr.count("obs.bytes", float64(cw.bytes))

	if err == nil {
		t = time.Now()
		res.Metrics.Snapshot()
		end := time.Now()
		tr.add(span{Op: id, Name: "metrics"}, t, end)
		tr.count("metrics.snapshot_ms", ms(end.Sub(t)))
	}

	tr.add(span{Op: id, Name: "service", Excl: int64(bus)}, jt.post, jt.done)
	tr.count("service.accept_ms", ms(jt.accepted.Sub(jt.post)))
	tr.count("service.first_result_ms", ms(jt.firstResult.Sub(jt.post)))
	tr.count("service.done_ms", ms(jt.done.Sub(jt.lastResult)))
	tr.count("service.overhead_ms", ms(jt.done.Sub(jt.post)-bus))
}

// stats reads the service's counters through GET /stats.
func (w *jobs) stats() (service.Stats, error) {
	var s service.Stats
	resp, err := w.client.Get(w.ts.URL + "/stats")
	if err != nil {
		return s, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("GET /stats: %w", err)
	}
	return s, nil
}
