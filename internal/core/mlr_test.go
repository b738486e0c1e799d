package core

import (
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// mlrWorld builds a sensor field with an MLR deployment over feasible
// places. Gateways get IDs 1000+i.
func mlrWorld(t testing.TB, seed int64, sensors []geom.Point, places []geom.Point,
	schedule [][]int, roundLen sim.Duration, rangeM float64) (*node.World, *Metrics, map[packet.NodeID]*MLRSensor, *Rounds) {
	t.Helper()
	w := node.NewWorld(node.Config{Seed: seed})
	m := NewMetrics()
	p := DefaultParams()
	stacks := make(map[packet.NodeID]*MLRSensor)
	for i, pos := range sensors {
		id := packet.NodeID(i + 1)
		st := NewMLRSensor(p, m)
		stacks[id] = st
		w.AddSensor(id, pos, rangeM, 0, st)
	}
	var gwIDs []packet.NodeID
	for i := range schedule[0] {
		id := packet.NodeID(1000 + i)
		gwIDs = append(gwIDs, id)
		// Initial position: the scheduled place; Rounds will Move it there
		// anyway, but Attach needs a position.
		w.AddGateway(id, places[schedule[0][i]], rangeM, 500, NewMLRGateway(p, m))
	}
	r := &Rounds{World: w, Places: places, Gateways: gwIDs, RoundLen: roundLen, Schedule: schedule}
	r.Start()
	return w, m, stacks, r
}

func TestMLRDeliversData(t *testing.T) {
	sensors := line(8, 0, 10)
	places := []geom.Point{{X: 80}, {X: -10}}
	w, m, stacks, _ := mlrWorld(t, 1, sensors, places, [][]int{{0, 1}}, sim.Hour, 12)
	stacks[4].OriginateData([]byte("r"))
	w.Run(5 * sim.Second)
	if m.Delivered != 1 {
		t.Fatalf("delivered %d (generated %d dropped %d)", m.Delivered, m.Generated, m.DroppedNoRoute)
	}
	// Node 4 at x=30: 4 hops to place1 (x=-15), 6 hops to place0 (x=85).
	r := stacks[4].BestRoute()
	if r == nil || r.Place != 1 {
		t.Fatalf("best route = %+v, want place 1", r)
	}
	if r.Hops != 4 {
		t.Fatalf("hops = %d, want 4", r.Hops)
	}
}

// TestMLRTable1Scenario replays the paper's Table 1: |P|=5 feasible places
// (A..E = 0..4), m=3 gateways, three rounds with schedule
// {A,B,C} -> {A,D,C} (B moved to D) -> {E,D,C} (A moved to E).
// The incremental table must grow 3 -> 4 -> 5 entries, never losing or
// rewriting previously learned entries, and the selected route must always
// be the least-hop entry among currently deployed places.
func TestMLRTable1Scenario(t *testing.T) {
	// Line of 12 sensors at x=0..110. Places spread so hop counts differ.
	sensors := line(12, 0, 10)
	// Hop counts from Si (node 8 at x=70), range 12, spacing 10:
	// A(120): 5 hops, B(-10): 8, C(45,10): 4, D(75,10): 1, E(5,10): 7.
	places := []geom.Point{
		{X: 120},       // A
		{X: -10},       // B
		{X: 45, Y: 10}, // C
		{X: 75, Y: 10}, // D
		{X: 5, Y: 10},  // E
	}
	schedule := [][]int{
		{0, 1, 2}, // round 0: A, B, C
		{0, 3, 2}, // round 1: gateway 1 moves B->D
		{4, 3, 2}, // round 2: gateway 0 moves A->E
	}
	roundLen := 20 * sim.Second
	w, m, stacks, rounds := mlrWorld(t, 3, sensors, places, schedule, roundLen, 12)
	si := stacks[8] // node at x=70 — the "Si" of Table 1

	// Round 0: discover and send.
	w.Kernel().After(sim.Second, func() { si.OriginateData([]byte("r0")) })
	w.Run(roundLen - sim.Second)
	tbl0 := si.Table()
	if len(tbl0) != 3 {
		t.Fatalf("round 0 table has %d entries, want 3: %v", len(tbl0), tbl0)
	}
	best0 := si.BestRoute()
	if best0 == nil || best0.Place != 2 {
		// C (4 hops) is the nearest of {A:5, B:8, C:4}.
		t.Fatalf("round 0 best = %+v, want place C(2)", best0)
	}

	// Round 1: B -> D. Table gains D; A and C entries unchanged.
	w.Kernel().After(roundLen/4, func() { si.OriginateData([]byte("r1")) })
	w.Run(2*roundLen - sim.Second)
	if rounds.Round() != 1 {
		t.Fatalf("round = %d, want 1", rounds.Round())
	}
	tbl1 := si.Table()
	if len(tbl1) != 4 {
		t.Fatalf("round 1 table has %d entries, want 4: %v", len(tbl1), tbl1)
	}
	for _, p := range []int{0, 2} {
		if tbl1[p].Hops != tbl0[p].Hops {
			t.Fatalf("place %d entry rewritten: %d -> %d hops", p, tbl0[p].Hops, tbl1[p].Hops)
		}
	}
	if _, hasB := tbl1[1]; !hasB {
		t.Fatal("entry for vacated place B was deleted; table must accumulate")
	}
	best1 := si.BestRoute()
	if best1 == nil || best1.Place != 3 {
		t.Fatalf("round 1 best = %+v, want place D(3)", best1)
	}

	// Round 2: A -> E. Table gains E; D stays best for node 8.
	w.Kernel().After(roundLen/4, func() { si.OriginateData([]byte("r2")) })
	w.Run(3*roundLen - sim.Second)
	tbl2 := si.Table()
	if len(tbl2) != 5 {
		t.Fatalf("round 2 table has %d entries, want 5 (=|P|): %v", len(tbl2), tbl2)
	}
	best2 := si.BestRoute()
	if best2 == nil || best2.Place != 3 {
		t.Fatalf("round 2 best = %+v, want still place D(3)", best2)
	}
	// Active set is the current deployment {E, D, C} = {4, 3, 2}.
	act := si.ActivePlaces()
	want := []int{2, 3, 4}
	if len(act) != 3 || act[0] != want[0] || act[1] != want[1] || act[2] != want[2] {
		t.Fatalf("active places = %v, want %v", act, want)
	}
	if m.Delivered != 3 {
		t.Fatalf("delivered %d of 3 readings", m.Delivered)
	}
	if m.NotifySent == 0 {
		t.Fatal("no NOTIFY traffic despite gateway moves")
	}
}

func TestMLRNotifySuppressedForUnmovedGateways(t *testing.T) {
	sensors := line(4, 0, 10)
	places := []geom.Point{{X: 40}, {X: -10}}
	// Same schedule every round: nobody moves after round 0.
	w, m, _, _ := mlrWorld(t, 1, sensors, places, [][]int{{0, 1}, {0, 1}, {0, 1}}, 2*sim.Second, 12)
	w.Run(7 * sim.Second)
	// Only the initial deployment announcements (2 gateways) plus sensor
	// rebroadcasts; a second wave would roughly double the count.
	first := m.NotifySent
	if first == 0 {
		t.Fatal("initial deployment sent no NOTIFYs")
	}
	w.Run(20 * sim.Second)
	if m.NotifySent != first {
		t.Fatalf("unmoved gateways kept notifying: %d -> %d", first, m.NotifySent)
	}
}

func TestMLRDataFollowsMovedGateway(t *testing.T) {
	sensors := line(8, 0, 10)
	places := []geom.Point{{X: 85}, {X: -15}, {X: 45, Y: 10}}
	schedule := [][]int{{0, 1}, {2, 1}}
	roundLen := 10 * sim.Second
	w, m, stacks, _ := mlrWorld(t, 2, sensors, places, schedule, roundLen, 15)
	// Round 0: node 8 (x=70) sends to place 0 (x=85).
	w.Kernel().After(sim.Second, func() { stacks[8].OriginateData([]byte("a")) })
	// Round 1: gateway 0 moved to place 2; node 8 re-evaluates on next send.
	w.Kernel().After(roundLen+2*sim.Second, func() { stacks[8].OriginateData([]byte("b")) })
	w.Run(2 * roundLen)
	if m.Delivered != 2 {
		t.Fatalf("delivered %d, want 2", m.Delivered)
	}
	best := stacks[8].BestRoute()
	if best == nil || best.Place != 2 {
		t.Fatalf("best after move = %+v, want place 2", best)
	}
}

func TestMLRSecondSendNoDiscovery(t *testing.T) {
	sensors := line(6, 0, 10)
	places := []geom.Point{{X: 60}}
	w, m, stacks, _ := mlrWorld(t, 1, sensors, places, [][]int{{0}}, sim.Hour, 12)
	stacks[1].OriginateData([]byte("a"))
	w.Run(5 * sim.Second)
	rreq := m.RReqSent
	stacks[1].OriginateData([]byte("b"))
	w.Run(10 * sim.Second)
	if m.RReqSent != rreq {
		t.Fatalf("second send re-flooded: %d -> %d", rreq, m.RReqSent)
	}
	if m.Delivered != 2 {
		t.Fatalf("delivered %d", m.Delivered)
	}
}

func TestMLRIntermediateAnswersFromTable(t *testing.T) {
	sensors := line(6, 0, 10)
	places := []geom.Point{{X: 60}}
	w, m, stacks, _ := mlrWorld(t, 1, sensors, places, [][]int{{0}}, sim.Hour, 12)
	stacks[1].OriginateData([]byte("a")) // installs entries on 2..6 via RRES path
	w.Run(5 * sim.Second)
	if _, ok := stacks[3].Table()[0]; !ok {
		t.Fatal("on-path node did not learn route during RRES forwarding")
	}
	// Now node 2 sends: it already has an entry (learned on path), so no
	// new flood at all.
	rreq := m.RReqSent
	stacks[2].OriginateData([]byte("b"))
	w.Run(10 * sim.Second)
	if m.RReqSent != rreq {
		t.Fatalf("node with learned route flooded: %d -> %d", rreq, m.RReqSent)
	}
	if m.Delivered != 2 {
		t.Fatalf("delivered %d", m.Delivered)
	}
}

func TestMLRUnreachableDrops(t *testing.T) {
	sensors := line(3, 0, 10)
	places := []geom.Point{{X: 900}}
	w, m, stacks, _ := mlrWorld(t, 1, sensors, places, [][]int{{0}}, sim.Hour, 12)
	stacks[1].OriginateData([]byte("a"))
	w.Run(30 * sim.Second)
	if m.Delivered != 0 || m.DroppedNoRoute != 1 {
		t.Fatalf("delivered=%d dropped=%d", m.Delivered, m.DroppedNoRoute)
	}
}

func TestRoundsPanics(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 1})
	for _, r := range []*Rounds{
		{World: w, Places: []geom.Point{{}}, Gateways: nil, RoundLen: sim.Second, Schedule: nil},
		{World: w, Places: []geom.Point{{}}, Gateways: []packet.NodeID{1}, RoundLen: sim.Second, Schedule: [][]int{{0, 1}}},
		{World: w, Places: []geom.Point{{}}, Gateways: []packet.NodeID{1}, RoundLen: sim.Second, Schedule: [][]int{{5}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			r.Start()
		}()
	}
}

func TestRoundsRepeatLastScheduleRow(t *testing.T) {
	sensors := line(3, 0, 10)
	places := []geom.Point{{X: 35}, {X: -15}}
	w, _, _, r := mlrWorld(t, 1, sensors, places, [][]int{{0}, {1}}, sim.Second, 12)
	w.Run(10 * sim.Second)
	if r.Round() < 5 {
		t.Fatalf("round = %d, want >= 5", r.Round())
	}
	if got := r.CurrentPlaces(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("current places = %v, want [1]", got)
	}
	r.Stop()
	cur := r.Round()
	w.Run(20 * sim.Second)
	if r.Round() != cur {
		t.Fatal("rounds advanced after Stop")
	}
}

func TestMLRNotifyParsing(t *testing.T) {
	n := mlrNotify{NewPlace: 3, PrevPlace: NoPlace, Round: 7}
	got, ok := parseMLRNotify(n.marshal())
	if !ok || got != n {
		t.Fatalf("round trip: %+v vs %+v", got, n)
	}
	framed := n.marshalMoveNotify()
	if framed[0] != mlrNotifyMove {
		t.Fatalf("move notify discriminator = %d", framed[0])
	}
	if got2, ok2 := parseMLRNotify(framed[1:]); !ok2 || got2 != n {
		t.Fatalf("framed round trip: %+v", got2)
	}
	if _, ok := parseMLRNotify([]byte{1, 2}); ok {
		t.Fatal("short notify parsed")
	}
	place, rest, ok := parsePlacePayload(placePayload(9, []byte("abc")))
	if !ok || place != 9 || string(rest) != "abc" {
		t.Fatalf("place payload round trip: %d %q %v", place, rest, ok)
	}
	if _, _, ok := parsePlacePayload([]byte{1}); ok {
		t.Fatal("short place payload parsed")
	}
}

// TestMLROverloadShedding exercises the §4.3 load-balance extension: when a
// gateway absorbs more than OverloadThreshold packets in a round it floods
// an overload notification, and sensors that have an alternative route
// redirect their subsequent traffic there.
func TestMLROverloadShedding(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 4})
	m := NewMetrics()
	p := DefaultParams()
	p.OverloadThreshold = 5
	p.OverloadClear = 30 * sim.Second

	// A line where node 4 is equidistant-ish from two gateways: place 0
	// (x=80, 4 hops) and place 1 (x=-10, 5 hops): it initially prefers 0.
	stacks := map[packet.NodeID]*MLRSensor{}
	for i, pos := range line(8, 0, 10) {
		id := packet.NodeID(i + 1)
		st := NewMLRSensor(p, m)
		stacks[id] = st
		w.AddSensor(id, pos, 12, 0, st)
	}
	places := []geom.Point{{X: 80}, {X: -10}}
	gwIDs := []packet.NodeID{1000, 1001}
	w.AddGateway(1000, places[0], 12, 500, NewMLRGateway(p, m))
	w.AddGateway(1001, places[1], 12, 500, NewMLRGateway(p, m))
	r := &Rounds{World: w, Places: places, Gateways: gwIDs, RoundLen: sim.Hour, Schedule: [][]int{{0, 1}}}
	r.Start()

	// Node 5 (x=40): 4 hops to place 0, 5 to place 1 -> prefers place 0.
	for i := 0; i < 8; i++ {
		w.Kernel().After(sim.Duration(i)*sim.Second, func() { stacks[5].OriginateData([]byte("x")) })
	}
	w.Run(12 * sim.Second)
	if got := m.PerGateway()[1000]; got < 5 {
		t.Fatalf("setup: gateway 1000 absorbed %d, want >= threshold", got)
	}
	if _, marked := stacks[5].shedding()[0]; !marked {
		t.Fatal("sensor did not mark place 0 overloaded")
	}
	// Subsequent traffic redirects to place 1 despite the extra hop.
	before := m.PerGateway()[1001]
	stacks[5].OriginateData([]byte("y"))
	w.Run(w.Kernel().Now() + 5*sim.Second)
	if got := m.PerGateway()[1001]; got != before+1 {
		t.Fatalf("redirected traffic did not reach gateway 1001: %d -> %d", before, got)
	}
	// The mark expires and traffic returns to the shorter route.
	w.Run(w.Kernel().Now() + 40*sim.Second)
	if _, marked := stacks[5].shedding()[0]; marked {
		t.Fatal("overload mark never expired")
	}
}

func TestMLROverloadDisabledByDefault(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 4})
	m := NewMetrics()
	p := DefaultParams() // OverloadThreshold zero
	st := NewMLRSensor(p, m)
	w.AddSensor(1, geom.Point{}, 12, 0, st)
	gw := NewMLRGateway(p, m)
	w.AddGateway(1000, geom.Point{X: 10}, 12, 500, gw)
	r := &Rounds{World: w, Places: []geom.Point{{X: 10}}, Gateways: []packet.NodeID{1000},
		RoundLen: sim.Hour, Schedule: [][]int{{0}}}
	r.Start()
	for i := 0; i < 50; i++ {
		st.OriginateData([]byte("x"))
	}
	w.Run(20 * sim.Second)
	notifies := m.NotifySent
	// Only the deployment announcement; no overload floods.
	if gw.overloadSent {
		t.Fatal("overload fired with threshold disabled")
	}
	_ = notifies
}

func TestOverloadNotifyRoundTrip(t *testing.T) {
	place, round, ok := parseOverloadNotify(marshalOverloadNotify(3, 9))
	if !ok || place != 3 || round != 9 {
		t.Fatalf("round trip: %d %d %v", place, round, ok)
	}
	if _, _, ok := parseOverloadNotify([]byte{mlrNotifyOverload, 1}); ok {
		t.Fatal("short overload parsed")
	}
	if _, _, ok := parseOverloadNotify(marshalOverloadNotify(1, 1)[1:]); ok {
		t.Fatal("missing discriminator parsed")
	}
}
