package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"wmsn/internal/metrics"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
)

// coreKinds are the packet kinds whose handler calls the traced mode counts.
var coreKinds = []struct {
	kind packet.Kind
	name string
}{
	{packet.KindRReq, "RREQ"},
	{packet.KindRRes, "RRES"},
	{packet.KindData, "DATA"},
	{packet.KindNotify, "NOTIFY"},
	{packet.KindAck, "ACK"},
}

// probe holds one traced simulation run's boundary times and handler sums.
// The run's own goroutine is its only writer.
type probe struct {
	start, built, end time.Time
	handleNS          [256]int64 // by packet kind
	calls             [256]uint64
	queuePeak         int
	progress          sim.Progress
}

// timedStack times a sensor stack's packet handlers. It forwards
// node.LinkFailureHandler: the link ARQ reaches that method through a type
// assertion, so a wrapper without it would silently turn off ARQ-driven
// rerouting.
type timedStack struct {
	node.Stack
	p *probe
}

func (s *timedStack) HandleMessage(pkt *packet.Packet) {
	k := pkt.Kind
	t := time.Now()
	s.Stack.HandleMessage(pkt)
	s.p.handleNS[k] += int64(time.Since(t))
	s.p.calls[k]++
}

func (s *timedStack) HandleLinkFailure(pkt *packet.Packet) {
	h, ok := s.Stack.(node.LinkFailureHandler)
	if !ok {
		return
	}
	k := pkt.Kind
	t := time.Now()
	h.HandleLinkFailure(pkt)
	s.p.handleNS[k] += int64(time.Since(t))
}

// instrument arms cfg's hooks to fill p: every sensor stack is wrapped in a
// timedStack, Mutate marks the end of the build and starts a read-only 1 s
// timer sampling the kernel's queue length, and Progress counts events. None
// of them changes the run's outcome; the traced mode checks that it does not.
func instrument(cfg scenario.Config, p *probe) scenario.Config {
	cfg.Progress = &p.progress
	cfg.StackWrapper = func(_ packet.NodeID, st node.Stack) node.Stack {
		return &timedStack{Stack: st, p: p}
	}
	cfg.Mutate = func(n *scenario.Net) {
		p.built = time.Now()
		k := n.World.Kernel()
		k.Every(sim.Second, func() {
			p.queuePeak = max(p.queuePeak, k.Pending())
		})
	}
	return cfg
}

// simRun runs one configuration and returns its result and latency. With a
// tracer it instruments the run and records its spans, under parent, and its
// layer sums for op.
func simRun(cfg scenario.Config, tr *tracer, op, parent int) (scenario.Result, time.Duration, error) {
	if tr == nil {
		t := time.Now()
		res, err := scenario.RunContext(context.Background(), cfg)
		return res, time.Since(t), err
	}
	p := new(probe)
	cfg = instrument(cfg, p)
	p.start = time.Now()
	res, err := scenario.RunContext(context.Background(), cfg)
	p.end = time.Now()
	if err == nil {
		recordSim(tr, p, &res, op, parent)
	}
	return res, p.end.Sub(p.start), err
}

// recordSim adds one traced run's spans and counts to tr.
func recordSim(tr *tracer, p *probe, res *scenario.Result, op, parent int) {
	var handler int64
	for _, h := range p.handleNS {
		handler += h
	}
	tr.add(span{Parent: parent, Op: op, Name: "scenario"}, p.start, p.built)
	tr.add(span{Parent: parent, Op: op, Name: "sim", Excl: handler, ExclTo: "core"}, p.built, p.end)
	m := res.Metrics
	tr.count("scenario.build_ms", ms(p.built.Sub(p.start)))
	tr.count("sim.run_ms", ms(p.end.Sub(p.built)))
	tr.count("sim.events", float64(p.progress.Snapshot().Events))
	tr.count("sim.queue_peak", float64(p.queuePeak))
	tr.count("radio.tx", float64(res.Radio.Transmissions))
	tr.count("radio.rx", float64(res.Radio.Deliveries))
	for _, k := range coreKinds {
		tr.count("core.calls."+k.name, float64(p.calls[k.kind]))
	}
	tr.count("core.handler_ms."+string(res.Cfg.Protocol), float64(handler)/1e6)
	tr.count("core.ctrl", float64(m.ControlPackets()))
	tr.count("delivered", float64(m.Delivered))
	tr.count("packet.dups", float64(m.Duplicates))
	tr.count("node.link_tx", float64(m.LinkTxQueued))
	tr.count("node.retries", float64(m.LinkRetries))
	tr.count("node.queue_drops", float64(m.QueueDrops))
	tr.count("fault.reroutes", float64(m.Reroutes))
	tr.count("fault.failovers", float64(m.Failovers))
	tr.count("attack.dropped", float64(m.AttackerDropped))
}

// checkSim is the per-run correctness check: the run completed, delivered
// something, never more than was generated, and, with link ARQ armed, its
// link ledger balances.
func checkSim(res scenario.Result, err error) error {
	if err != nil {
		return err
	}
	m := res.Metrics
	if m.Delivered == 0 || m.Delivered > m.Generated {
		return fmt.Errorf("seed %d: delivered %d of %d readings", res.Cfg.Seed, m.Delivered, m.Generated)
	}
	if p := res.Cfg.Params; p != nil && p.LinkRetries > 0 {
		if err := m.CheckLinkConservation(res.LinkInFlight); err != nil {
			return fmt.Errorf("seed %d: %w", res.Cfg.Seed, err)
		}
	}
	return nil
}

// snapSig is the canonical form of a run's metrics snapshot: every counter,
// histogram and derived statistic the run produced.
func snapSig(s metrics.Snapshot) (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("encode metrics snapshot: %w", err)
	}
	return string(b), nil
}

// simOp turns a checked simulation run into an op.
func simOp(input int, dur time.Duration, res scenario.Result, err error) op {
	o := op{input: input, dur: dur, err: checkSim(res, err)}
	if o.err != nil {
		return o
	}
	o.gen, o.del = res.Metrics.Generated, res.Metrics.Delivered
	o.sig, o.err = snapSig(res.Metrics.Snapshot())
	return o
}
