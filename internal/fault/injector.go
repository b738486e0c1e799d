package fault

import (
	"math"
	"math/rand"
	"sort"

	"wmsn/internal/attack"
	"wmsn/internal/metrics"
	"wmsn/internal/node"
	"wmsn/internal/obs"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// Env gives the injector its handles into one run. Everything is per-run
// state: the injector never touches anything shared across runs.
type Env struct {
	World *node.World
	// Metrics is the run's sink; the injector increments FaultsInjected and
	// reads Generated/Delivered for the Reliability windows.
	Metrics *metrics.Memory
	// Gateways resolves OpKillGateway indices.
	Gateways []packet.NodeID
	// Sensors is the churn population.
	Sensors []packet.NodeID
	// Horizon bounds Reliability windows and default churn Stop.
	Horizon sim.Time
	// Seed is the scenario seed; compromise ops derive each attacker's
	// private RNG from it (attack.NodeRand) so adversary behavior never
	// draws from the kernel's shared RNG.
	Seed int64
	// StopRouter and ResumeRouter, when set, implement the polite
	// control-plane partition on a mesh backbone. Nil hooks degrade
	// OpStopRouter/OpResumeRouter to device crash/recovery.
	StopRouter   func(packet.NodeID)
	ResumeRouter func(packet.NodeID)
}

// snap is a point-in-time copy of the delivery counters.
type snap struct {
	gen, del uint64
	taken    bool
}

// window tracks one disruptive event's delivery snapshots as the run
// progresses.
type window struct {
	ev                Event
	at, settled, done snap
	settleEnd, end    sim.Time
}

// Window summarizes delivery around one disruptive fault event: the
// cumulative delivery ratio up to the fault (Before), the ratio over the
// settle window right after it (During), and the ratio from the settle end
// to the next fault or the horizon (After). A window with no traffic
// reports ratio 1, matching metrics.Memory.DeliveryRatio.
type Window struct {
	Label  string
	At     sim.Time
	Before float64
	During float64
	After  float64
}

// Reliability is the fault summary attached to scenario results.
type Reliability struct {
	// FaultsInjected counts executed disruptive actions (crashes, gateway
	// kills, router stops, degradations, churn crashes); recoveries are
	// not faults and are excluded.
	FaultsInjected uint64
	// Reroutes counts routes invalidated and replaced after faults.
	Reroutes uint64
	// TimeToReroute is the mean latency between a route's liveness
	// deadline expiring and its replacement being installed (0 when no
	// reroute happened).
	TimeToReroute sim.Duration
	// TimeToRerouteP50/P95/Max characterize the failover-latency
	// distribution (metrics.HistFailoverLatencyUs): a healthy-looking mean
	// can hide tail stalls where a few sensors sat routeless for seconds.
	// Max is exact; the percentiles carry the histogram's 12.5% bucket
	// width. All zero when no reroute happened.
	TimeToRerouteP50 sim.Duration
	TimeToRerouteP95 sim.Duration
	TimeToRerouteMax sim.Duration
	// Compromised counts nodes whose stack a compromise op swapped for an
	// adversary; AttackerDropped/AttackerInjected total what those
	// adversaries swallowed and forged.
	Compromised      uint64
	AttackerDropped  uint64
	AttackerInjected uint64
	// Windows holds one entry per disruptive plan event, in time order.
	Windows []Window
}

// Injector executes a Plan on one run's kernel.
type Injector struct {
	plan        *Plan
	env         Env
	windows     []*window
	compromised map[packet.NodeID]bool
}

// Attach schedules every event of the plan onto the run's kernel and starts
// churn. The plan is only read, never written, so a single plan value is
// safe to share across RunMany workers; all randomness (churn inter-arrival
// and repair times) comes from the run's own kernel RNG, keeping faulted
// runs bit-identical at any worker count. Call Finish after the run to
// collect the Reliability summary.
func Attach(plan *Plan, env Env) *Injector {
	in := &Injector{plan: plan, env: env}
	if plan == nil {
		return in
	}
	k := env.World.Kernel()
	events := append([]Event(nil), plan.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	settle := plan.settle()
	for _, ev := range events {
		if !ev.Op.disruptive() {
			continue
		}
		w := &window{ev: ev, settleEnd: minTime(ev.At+sim.Time(settle), env.Horizon), end: env.Horizon}
		in.windows = append(in.windows, w)
	}
	// Each window's "after" period ends where the next disruptive event
	// begins (when that is past its own settle end).
	for i, w := range in.windows {
		if i+1 < len(in.windows) {
			if next := in.windows[i+1].ev.At; next > w.settleEnd {
				w.end = next
			} else {
				w.end = w.settleEnd
			}
		}
	}
	for _, ev := range events {
		ev := ev
		k.ScheduleAt(ev.At, func() { in.exec(ev) })
	}
	for _, w := range in.windows {
		w := w
		k.ScheduleAt(w.ev.At, func() { in.take(&w.at) })
		k.ScheduleAt(w.settleEnd, func() { in.take(&w.settled) })
		k.ScheduleAt(w.end, func() { in.take(&w.done) })
	}
	if c := plan.Churn; c != nil && c.Rate > 0 && len(env.Sensors) > 0 {
		stop := c.Stop
		if stop == 0 {
			stop = env.Horizon
		}
		for _, id := range env.Sensors {
			in.scheduleChurnCrash(id, c, c.Start, stop)
		}
	}
	return in
}

func minTime(a, b sim.Time) sim.Time {
	if b > 0 && b < a {
		return b
	}
	return a
}

// take records the current delivery counters into s.
func (in *Injector) take(s *snap) {
	s.gen, s.del, s.taken = in.env.Metrics.Generated, in.env.Metrics.Delivered, true
}

// exec applies one plan event.
func (in *Injector) exec(ev Event) {
	w := in.env.World
	switch ev.Op {
	case OpCrash:
		if d := w.Device(ev.Node); d != nil && d.Alive() {
			d.FailCause(node.CauseInjected)
		}
	case OpRecover:
		if d := w.Device(ev.Node); d != nil {
			d.Recover()
		}
	case OpKillGateway:
		if ev.GW < len(in.env.Gateways) {
			if d := w.Device(in.env.Gateways[ev.GW]); d != nil && d.Alive() {
				d.FailCause(node.CauseInjected)
			}
		}
	case OpStopRouter:
		if in.env.StopRouter != nil {
			in.env.StopRouter(ev.Node)
		} else if d := w.Device(ev.Node); d != nil && d.Alive() {
			d.FailCause(node.CauseInjected)
		}
	case OpResumeRouter:
		if in.env.ResumeRouter != nil {
			in.env.ResumeRouter(ev.Node)
		} else if d := w.Device(ev.Node); d != nil {
			d.Recover()
		}
	case OpDegradeLinks:
		for _, id := range ev.Nodes {
			if d := w.Device(id); d != nil {
				if st := d.SensorStation(); st != nil {
					st.SetRxLoss(ev.Rate)
				}
			}
		}
	case OpDegradeAll:
		w.SensorMedium().SetLossRate(ev.Rate)
	case OpCompromise:
		in.compromise(ev, ev.Node)
	case OpCompromiseFraction:
		// Victim selection must not depend on what the run drew from its
		// kernel RNG before the compromise (protocol, loss draws), so the
		// shuffle uses a private RNG seeded from the plan, never the kernel's.
		pool := append([]packet.NodeID(nil), in.env.Sensors...)
		rng := rand.New(rand.NewSource(ev.ASeed))
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		k := int(math.Round(ev.Frac * float64(len(pool))))
		if k < 1 && ev.Frac > 0 && len(pool) > 0 {
			k = 1
		}
		if k > len(pool) {
			k = len(pool)
		}
		for _, id := range pool[:k] {
			in.compromise(ev, id)
		}
	}
	if ev.Op.disruptive() {
		in.env.Metrics.Inc(metrics.FaultsInjected)
		if ev.Op == OpCompromise || ev.Op == OpCompromiseFraction {
			return // per-victim AttackInjected events already emitted
		}
		if b := w.Obs(); b.Active() {
			target := ev.Node
			if ev.Op == OpKillGateway && ev.GW < len(in.env.Gateways) {
				target = in.env.Gateways[ev.GW]
			}
			b.Emit(obs.Event{
				At: w.Kernel().Now(), Kind: obs.FaultInjected, Node: target,
				Detail: ev.label(), Value: int64(len(ev.Nodes)),
			})
		}
	}
}

// compromise swaps one victim's stack for the adversary ev.Attack describes.
// Gateways, routers, dead devices and already-compromised nodes are skipped:
// the paper's threat model (§2.3) is captured sensor nodes, and compromise
// is idempotent per node within a run.
func (in *Injector) compromise(ev Event, id packet.NodeID) {
	w := in.env.World
	d := w.Device(id)
	if d == nil || d.Kind() != node.Sensor || !d.Alive() || in.compromised[id] {
		return
	}
	if in.compromised == nil {
		in.compromised = make(map[packet.NodeID]bool)
	}
	in.compromised[id] = true
	rng := attack.NodeRand(in.env.Seed, id)
	st := ev.Attack.Instantiate(d, d.Stack(), rng, in.env.Metrics)
	d.SwapStack(st)
	in.env.Metrics.Inc(metrics.CompromisedNodes)
	if b := w.Obs(); b.Active() {
		b.Emit(obs.Event{
			At: w.Kernel().Now(), Kind: obs.AttackInjected, Node: id,
			Detail: ev.Attack.String(),
		})
	}
}

// scheduleChurnCrash arms the next churn crash for one sensor. Interarrival
// and repair times are exponential draws from the run's kernel RNG, made
// inside kernel callbacks, so the whole churn process replays identically
// per seed.
func (in *Injector) scheduleChurnCrash(id packet.NodeID, c *Churn, from sim.Time, stop sim.Time) {
	k := in.env.World.Kernel()
	mean := float64(sim.Hour) / c.Rate
	at := from + sim.Time(k.Rand().ExpFloat64()*mean)
	if at >= stop {
		return
	}
	k.ScheduleAt(at, func() {
		d := in.env.World.Device(id)
		if d == nil || !d.Alive() {
			// Already down (e.g. battery death); try again later.
			in.scheduleChurnCrash(id, c, k.Now(), stop)
			return
		}
		d.FailCause(node.CauseInjected)
		in.env.Metrics.Inc(metrics.FaultsInjected)
		if b := in.env.World.Obs(); b.Active() {
			b.Emit(obs.Event{At: k.Now(), Kind: obs.FaultInjected, Node: id, Detail: "churn"})
		}
		mttr := c.MTTR
		if mttr <= 0 {
			mttr = 30 * sim.Second
		}
		repair := sim.Duration(k.Rand().ExpFloat64() * float64(mttr))
		k.After(repair, func() {
			d.Recover()
			in.scheduleChurnCrash(id, c, k.Now(), stop)
		})
	})
}

// ratio guards a windowed delivery ratio (1 when nothing was generated).
func ratio(from, to snap) float64 {
	gen := to.gen - from.gen
	if !from.taken || !to.taken || gen == 0 {
		return 1
	}
	return float64(to.del-from.del) / float64(gen)
}

// Finish assembles the Reliability summary after the run. Snapshots that
// never fired (horizon cut short, e.g. StopAtFirstDeath) fall back to the
// final counter values.
func (in *Injector) Finish() *Reliability {
	if in.plan == nil {
		return nil
	}
	m := in.env.Metrics
	rel := &Reliability{
		FaultsInjected:   m.FaultsInjected,
		Reroutes:         m.Reroutes,
		Compromised:      m.CompromisedNodes,
		AttackerDropped:  m.AttackerDropped,
		AttackerInjected: m.AttackerInjected,
	}
	if m.Reroutes > 0 {
		rel.TimeToReroute = sim.Duration(m.FailoverLatencyUs / m.Reroutes)
	}
	if h := m.Hist(metrics.HistFailoverLatencyUs); h.Count() > 0 {
		rel.TimeToRerouteP50 = h.PercentileDuration(50)
		rel.TimeToRerouteP95 = h.PercentileDuration(95)
		rel.TimeToRerouteMax = sim.Duration(h.Max())
	}
	final := snap{gen: m.Generated, del: m.Delivered, taken: true}
	fill := func(s *snap) snap {
		if s.taken {
			return *s
		}
		return final
	}
	for _, w := range in.windows {
		at, settled, done := fill(&w.at), fill(&w.settled), fill(&w.done)
		before := 1.0
		if at.gen > 0 {
			before = float64(at.del) / float64(at.gen)
		}
		rel.Windows = append(rel.Windows, Window{
			Label:  w.ev.label(),
			At:     w.ev.At,
			Before: before,
			During: ratio(at, settled),
			After:  ratio(settled, done),
		})
	}
	return rel
}
