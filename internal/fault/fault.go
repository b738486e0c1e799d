// Package fault implements deterministic fault injection for scenario runs:
// a Plan declares what breaks and when — node crashes and recoveries,
// gateway loss, polite or crash-style mesh-router partition, per-link and
// region-wide loss degradation, and background sensor churn — and an
// Injector executes the plan on a run's own event kernel. Because every
// scheduled action and every churn draw comes from the run's kernel and RNG,
// faulted runs stay bit-identical under scenario.RunEach at any worker
// count; the Plan itself is read-only after Attach and safe to share.
//
// The paper's reliability claims (§3 self-healing backbone, §5.2
// multi-gateway routing) are exercised end to end through this package by
// experiment E13 and the fault-focused tests (`make faults`).
package fault

import (
	"errors"
	"fmt"
	"math"

	"wmsn/internal/attack"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// Churn describes background sensor churn: each sensor independently
// crashes at exponentially distributed intervals and recovers after an
// exponentially distributed repair time.
type Churn struct {
	// Rate is the expected number of crashes per sensor per hour of
	// virtual time. 0 disables churn.
	Rate float64
	// MTTR is the mean time to recovery; 0 selects 30 s.
	MTTR sim.Duration
	// Start and Stop bound the window in which new crashes are scheduled;
	// Stop 0 means the run horizon. Recoveries complete even past Stop, so
	// the network always heals.
	Start, Stop sim.Time
}

// Op is the kind of one scheduled fault action.
type Op uint8

// Fault operations.
const (
	OpCrash              Op = iota // crash one device (CauseInjected)
	OpRecover                      // revive a previously crashed device
	OpKillGateway                  // crash the i-th scenario gateway
	OpStopRouter                   // halt a mesh router's control plane politely
	OpResumeRouter                 // resume a politely stopped router
	OpDegradeLinks                 // set extra reception loss on chosen nodes
	OpDegradeAll                   // set the sensor medium's loss rate
	OpCompromise                   // swap one node's stack for an adversary
	OpCompromiseFraction           // compromise a deterministic fraction of sensors
)

var opNames = [...]string{
	"crash", "recover", "kill-gw", "stop-router", "resume-router",
	"degrade-links", "degrade-all", "compromise", "compromise-frac",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// disruptive reports whether the op opens a Reliability window (recoveries
// and resumes end outages rather than starting them).
func (o Op) disruptive() bool {
	switch o {
	case OpCrash, OpKillGateway, OpStopRouter, OpDegradeLinks, OpDegradeAll,
		OpCompromise, OpCompromiseFraction:
		return true
	}
	return false
}

// Event is one scheduled fault action. Times are virtual time since run
// start (runs begin at 0).
type Event struct {
	At    sim.Time
	Op    Op
	Node  packet.NodeID   // crash/recover/router/compromise target
	GW    int             // gateway index for OpKillGateway
	Rate  float64         // loss probability for degradation ops
	Nodes []packet.NodeID // OpDegradeLinks targets

	// Attack describes the adversary installed by the compromise ops.
	Attack *attack.Spec
	// Frac is the sensor fraction compromised by OpCompromiseFraction.
	Frac float64
	// ASeed seeds the private victim-selection shuffle of
	// OpCompromiseFraction, keeping the victim set independent of the
	// run's kernel RNG (and therefore of the protocol, the loss model and
	// anything else the run drew before the compromise).
	ASeed int64
}

// label renders the event for Reliability windows.
func (e Event) label() string {
	switch e.Op {
	case OpKillGateway:
		return fmt.Sprintf("kill-gw %d", e.GW)
	case OpDegradeLinks:
		return fmt.Sprintf("degrade-links %.2f", e.Rate)
	case OpDegradeAll:
		return fmt.Sprintf("degrade-all %.2f", e.Rate)
	case OpCompromise:
		return fmt.Sprintf("compromise %v %s", e.Node, e.Attack)
	case OpCompromiseFraction:
		return fmt.Sprintf("compromise %.0f%% %s", e.Frac*100, e.Attack)
	default:
		return fmt.Sprintf("%v %v", e.Op, e.Node)
	}
}

// Plan is a declarative fault schedule attached to a scenario via
// scenario.Config.Faults. Build one with NewPlan and the chaining builders;
// a nil Plan injects nothing.
type Plan struct {
	// Events holds the discrete schedule; builders keep it in insertion
	// order and the injector sorts a copy by time.
	Events []Event
	// Churn, when non-nil, adds background sensor churn.
	Churn *Churn
	// SettleFor is the post-fault settle window over which the "during"
	// delivery ratio of each Reliability window is measured; 0 selects 5 s.
	SettleFor sim.Duration
}

// NewPlan returns an empty fault plan.
func NewPlan() *Plan { return &Plan{} }

// CrashAt schedules a crash of device id at virtual time at.
func (p *Plan) CrashAt(at sim.Time, id packet.NodeID) *Plan {
	p.Events = append(p.Events, Event{At: at, Op: OpCrash, Node: id})
	return p
}

// RecoverAt schedules the recovery of a previously crashed device.
func (p *Plan) RecoverAt(at sim.Time, id packet.NodeID) *Plan {
	p.Events = append(p.Events, Event{At: at, Op: OpRecover, Node: id})
	return p
}

// KillGateway schedules a crash of the gw-th scenario gateway (by index
// into the run's gateway list, so plans stay topology-independent).
func (p *Plan) KillGateway(at sim.Time, gw int) *Plan {
	p.Events = append(p.Events, Event{At: at, Op: OpKillGateway, GW: gw})
	return p
}

// StopRouter schedules a polite control-plane stop of mesh router id —
// the router falls silent but the device survives. Without a mesh backbone
// hook (Env.StopRouter nil) this degrades to a crash.
func (p *Plan) StopRouter(at sim.Time, id packet.NodeID) *Plan {
	p.Events = append(p.Events, Event{At: at, Op: OpStopRouter, Node: id})
	return p
}

// ResumeRouter schedules the resume of a politely stopped router.
func (p *Plan) ResumeRouter(at sim.Time, id packet.NodeID) *Plan {
	p.Events = append(p.Events, Event{At: at, Op: OpResumeRouter, Node: id})
	return p
}

// DegradeLinks schedules extra reception loss probability rate on the given
// nodes' sensor radios (per-link degradation). rate 0 clears it.
func (p *Plan) DegradeLinks(at sim.Time, rate float64, ids ...packet.NodeID) *Plan {
	p.Events = append(p.Events, Event{At: at, Op: OpDegradeLinks, Rate: rate, Nodes: ids})
	return p
}

// DegradeAll schedules a region-wide change of the sensor medium's loss
// rate.
func (p *Plan) DegradeAll(at sim.Time, rate float64) *Plan {
	p.Events = append(p.Events, Event{At: at, Op: OpDegradeAll, Rate: rate})
	return p
}

// RampLoss schedules a region-wide loss ramp: the medium's loss rate steps
// linearly up to target across `steps` evenly spaced events in (from, to].
func (p *Plan) RampLoss(from, to sim.Time, target float64, steps int) *Plan {
	if steps < 1 {
		steps = 1
	}
	span := to - from
	for i := 1; i <= steps; i++ {
		at := from + span*sim.Time(i)/sim.Time(steps)
		p.DegradeAll(at, target*float64(i)/float64(steps))
	}
	return p
}

// CompromiseAt schedules the compromise of device id at virtual time at: the
// injector swaps the victim's protocol stack for the adversary sp describes,
// wrapping the legitimate stack so the node keeps routing while it
// misbehaves. Compromise is irreversible within a run.
func (p *Plan) CompromiseAt(at sim.Time, id packet.NodeID, sp attack.Spec) *Plan {
	p.Events = append(p.Events, Event{At: at, Op: OpCompromise, Node: id, Attack: &sp})
	return p
}

// CompromiseFractionAt schedules the compromise of a deterministic fraction
// of the run's sensors (rounded, at least one) at virtual time at. Victims
// are chosen by a private shuffle seeded from seed alone, so the same plan
// compromises the same nodes under every protocol and at any worker count.
func (p *Plan) CompromiseFractionAt(at sim.Time, frac float64, sp attack.Spec, seed int64) *Plan {
	p.Events = append(p.Events, Event{At: at, Op: OpCompromiseFraction, Frac: frac, Attack: &sp, ASeed: seed})
	return p
}

// WithChurn adds background sensor churn to the plan.
func (p *Plan) WithChurn(c Churn) *Plan {
	p.Churn = &c
	return p
}

// Settle sets the post-fault settle window for Reliability windows.
func (p *Plan) Settle(d sim.Duration) *Plan {
	p.SettleFor = d
	return p
}

// settle returns the effective settle window.
func (p *Plan) settle() sim.Duration {
	if p.SettleFor > 0 {
		return p.SettleFor
	}
	return 5 * sim.Second
}

// Validate checks the plan against the run horizon. A nil plan is valid.
func (p *Plan) Validate(runFor sim.Time) error {
	if p == nil {
		return nil
	}
	var errs []error
	for i, ev := range p.Events {
		if ev.At < 0 {
			errs = append(errs, fmt.Errorf("fault %d (%s): negative time %v", i, ev.label(), ev.At))
		}
		if runFor > 0 && ev.At > runFor {
			errs = append(errs, fmt.Errorf("fault %d (%s): time %v past RunFor %v — it would never fire", i, ev.label(), ev.At, runFor))
		}
		switch ev.Op {
		case OpKillGateway:
			if ev.GW < 0 {
				errs = append(errs, fmt.Errorf("fault %d: negative gateway index %d", i, ev.GW))
			}
		case OpDegradeLinks, OpDegradeAll:
			if ev.Rate < 0 || ev.Rate >= 1 || math.IsNaN(ev.Rate) {
				errs = append(errs, fmt.Errorf("fault %d (%s): loss rate %v outside [0,1)", i, ev.label(), ev.Rate))
			}
		case OpCompromise, OpCompromiseFraction:
			if ev.Attack == nil {
				errs = append(errs, fmt.Errorf("fault %d (%v): no attack spec", i, ev.Op))
				continue
			}
			if err := ev.Attack.Validate(); err != nil {
				errs = append(errs, fmt.Errorf("fault %d (%s): %w", i, ev.label(), err))
			}
			if ev.Op == OpCompromiseFraction && (ev.Frac <= 0 || ev.Frac > 1 || math.IsNaN(ev.Frac)) {
				errs = append(errs, fmt.Errorf("fault %d (%s): fraction %v outside (0,1]", i, ev.label(), ev.Frac))
			}
		}
	}
	if c := p.Churn; c != nil {
		if c.Rate < 0 || math.IsNaN(c.Rate) {
			errs = append(errs, fmt.Errorf("churn: negative rate %v (crashes per sensor-hour)", c.Rate))
		}
		if c.MTTR < 0 {
			errs = append(errs, fmt.Errorf("churn: negative MTTR %v", c.MTTR))
		}
		if c.Stop != 0 && c.Stop < c.Start {
			errs = append(errs, fmt.Errorf("churn: stop %v before start %v", c.Stop, c.Start))
		}
	}
	if p.SettleFor < 0 {
		errs = append(errs, fmt.Errorf("settle window %v is negative", p.SettleFor))
	}
	return errors.Join(errs...)
}
