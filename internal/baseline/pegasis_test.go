package baseline

import (
	"testing"

	"wmsn/internal/core"
	"wmsn/internal/energy"
	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// pegasisWorld builds a PEGASIS chain over a line of sensors with the sink
// off-field, LEACH-style.
func pegasisWorld(t testing.TB, n int) (*node.World, *core.Metrics, *PegasisChain, []*PEGASIS) {
	t.Helper()
	w := node.NewWorld(node.Config{Seed: 5, EnergyModel: energy.DefaultFirstOrder})
	m := core.NewMetrics()
	sinkID := packet.NodeID(1000)
	sinkPos := geom.Point{X: float64(n) * 10, Y: 120}
	pos := map[packet.NodeID]geom.Point{}
	for i := 0; i < n; i++ {
		pos[packet.NodeID(i+1)] = geom.Point{X: float64(i) * 10}
	}
	chain := NewPegasisChain(sinkID, sinkPos, pos)
	var stacks []*PEGASIS
	for id, p := range pos {
		st := NewPEGASIS(m, chain)
		stacks = append(stacks, st)
		w.AddSensor(id, p, 30, 5.0, st)
	}
	w.AddGateway(sinkID, sinkPos, 500, 500, NewLEACHSink(m))
	return w, m, chain, stacks
}

func TestPegasisChainConstruction(t *testing.T) {
	// Line with the sink beyond the right end: the chain must start at the
	// farthest node (the left end, node 1) and follow the line greedily.
	_, _, chain, _ := pegasisWorld(t, 6)
	order := chain.Order()
	if len(order) != 6 {
		t.Fatalf("chain covers %d of 6 nodes", len(order))
	}
	// The farthest node from the sink at (60,120) is node 1 at (0,0).
	if order[0] != 1 {
		t.Fatalf("chain starts at %v, want the farthest node n1 (order %v)", order[0], order)
	}
	// Greedy from a line endpoint follows the line.
	for i, id := range order {
		if id != packet.NodeID(i+1) {
			t.Fatalf("chain order %v is not the line order", order)
		}
	}
}

func TestPegasisDeliversAllReadings(t *testing.T) {
	w, m, chain, stacks := pegasisWorld(t, 8)
	rounds := &PegasisRounds{World: w, Chain: chain, RoundLen: 5 * sim.Second}
	rounds.Start()
	rep := w.Kernel().Every(2*sim.Second, func() {
		for _, st := range stacks {
			st.OriginateData([]byte("r"))
		}
	})
	w.Run(30 * sim.Second)
	rep.Stop()
	rounds.Stop()
	w.Run(40 * sim.Second)
	if m.DeliveryRatio() < 0.8 {
		t.Fatalf("PEGASIS delivery = %v (%d of %d)", m.DeliveryRatio(), m.Delivered, m.Generated)
	}
	// Aggregation: the sink receives one long-hop packet per round, not one
	// per reading.
	if m.DataSent >= m.Generated*2 {
		t.Fatalf("DataSent %d vs Generated %d: chain fusion is not aggregating", m.DataSent, m.Generated)
	}
}

func TestPegasisLeaderRotates(t *testing.T) {
	_, _, chain, _ := pegasisWorld(t, 5)
	seen := map[packet.NodeID]bool{}
	for i := 0; i < 5; i++ {
		chain.BeginRound()
		seen[chain.Leader()] = true
	}
	if len(seen) < 4 {
		t.Fatalf("leadership rotated over only %d nodes in 5 rounds", len(seen))
	}
}

func TestPegasisSurvivesDeadChainMember(t *testing.T) {
	w, m, chain, stacks := pegasisWorld(t, 6)
	// Kill a mid-chain node; tokens must skip over it.
	w.Device(3).Fail()
	rounds := &PegasisRounds{World: w, Chain: chain, RoundLen: 5 * sim.Second}
	rounds.Start()
	for _, st := range stacks {
		st.OriginateData([]byte("r"))
	}
	w.Run(20 * sim.Second)
	rounds.Stop()
	// 5 living nodes generated 6 readings minus the dead node's; at least
	// the living nodes' readings arrive.
	if m.Delivered < 5 {
		t.Fatalf("delivered %d of %d with one dead chain member", m.Delivered, m.Generated)
	}
}

func TestPegasisEmptyChain(t *testing.T) {
	c := NewPegasisChain(1000, geom.Point{}, nil)
	if len(c.Order()) != 0 || c.Leader() != packet.None {
		t.Fatal("empty chain misbehaves")
	}
	c.BeginRound() // must not panic
}
