package network

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/packet"
)

// lineGraph builds n nodes on a line with given spacing and range.
func lineGraph(n int, spacing, rangeM float64) *Graph {
	pos := map[packet.NodeID]geom.Point{}
	ranges := map[packet.NodeID]float64{}
	for i := 0; i < n; i++ {
		id := packet.NodeID(i + 1)
		pos[id] = geom.Point{X: float64(i) * spacing}
		ranges[id] = rangeM
	}
	return Build(pos, ranges)
}

func TestBuildLineAdjacency(t *testing.T) {
	g := lineGraph(5, 10, 12)
	if g.Len() != 5 {
		t.Fatalf("Len = %d", g.Len())
	}
	// Each interior node connects to exactly its two lattice neighbors.
	if d := g.Degree(3); d != 2 {
		t.Fatalf("Degree(3) = %d, want 2", d)
	}
	if d := g.Degree(1); d != 1 {
		t.Fatalf("Degree(1) = %d, want 1", d)
	}
	nbrs := g.Neighbors(2)
	if len(nbrs) != 2 || nbrs[0] != 1 || nbrs[1] != 3 {
		t.Fatalf("Neighbors(2) = %v", nbrs)
	}
}

func TestAsymmetricRangesYieldNoEdge(t *testing.T) {
	// a can hear b but not vice versa: no bidirectional link.
	pos := map[packet.NodeID]geom.Point{1: {}, 2: {X: 20}}
	ranges := map[packet.NodeID]float64{1: 50, 2: 10}
	g := Build(pos, ranges)
	if g.Degree(1) != 0 || g.Degree(2) != 0 {
		t.Fatal("asymmetric link treated as bidirectional")
	}
}

func TestBFSAndHops(t *testing.T) {
	g := lineGraph(6, 10, 12)
	dist, parent := g.BFS(1)
	for i := 1; i <= 6; i++ {
		if dist[packet.NodeID(i)] != i-1 {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[packet.NodeID(i)], i-1)
		}
	}
	if parent[3] != 2 {
		t.Fatalf("parent[3] = %v", parent[3])
	}
	if h := g.Hops(1, 6); h != 5 {
		t.Fatalf("Hops(1,6) = %d", h)
	}
	if h := g.Hops(1, 99); h != Unreachable {
		t.Fatalf("Hops to missing node = %d, want Unreachable", h)
	}
}

func TestShortestPath(t *testing.T) {
	g := lineGraph(4, 10, 12)
	path := g.ShortestPath(1, 4)
	want := []packet.NodeID{1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if p := g.ShortestPath(1, 1); len(p) != 1 || p[0] != 1 {
		t.Fatalf("self path = %v", p)
	}
	// Disconnected pair.
	pos := map[packet.NodeID]geom.Point{1: {}, 2: {X: 1000}}
	ranges := map[packet.NodeID]float64{1: 10, 2: 10}
	if p := Build(pos, ranges).ShortestPath(1, 2); p != nil {
		t.Fatalf("path across partition = %v", p)
	}
}

func TestNearestOf(t *testing.T) {
	g := lineGraph(10, 10, 12)
	// Gateways at 1 and 10; node 4 is 3 hops from 1 and 6 from 10.
	id, h := g.NearestOf(4, []packet.NodeID{1, 10})
	if id != 1 || h != 3 {
		t.Fatalf("NearestOf = %v/%d, want n1/3", id, h)
	}
	// Equidistant: node 5 is 4 hops from 1, 5 hops from 10 -> 1.
	// Node 6 is 5 from 1 and 4 from 10.
	if id, _ := g.NearestOf(6, []packet.NodeID{1, 10}); id != 10 {
		t.Fatalf("NearestOf(6) = %v, want n10", id)
	}
	if id, h := g.NearestOf(4, []packet.NodeID{77}); id != packet.None || h != Unreachable {
		t.Fatalf("unreachable NearestOf = %v/%d", id, h)
	}
}

func TestNearestOfTieBreaksToSmallerID(t *testing.T) {
	// Symmetric line: node 3 is 2 hops from both 1 and 5.
	g := lineGraph(5, 10, 12)
	if id, h := g.NearestOf(3, []packet.NodeID{5, 1}); id != 1 || h != 2 {
		t.Fatalf("tie break = %v/%d, want n1/2", id, h)
	}
}

func TestComponentsAndConnected(t *testing.T) {
	pos := map[packet.NodeID]geom.Point{
		1: {}, 2: {X: 10}, // island A
		5: {X: 500}, 6: {X: 510}, 7: {X: 520}, // island B
	}
	ranges := map[packet.NodeID]float64{1: 15, 2: 15, 5: 15, 6: 15, 7: 15}
	g := Build(pos, ranges)
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 2 || comps[0][0] != 1 {
		t.Fatalf("first component = %v", comps[0])
	}
	if len(comps[1]) != 3 || comps[1][0] != 5 {
		t.Fatalf("second component = %v", comps[1])
	}
	if g.Connected() {
		t.Fatal("partitioned graph reported connected")
	}
	if !lineGraph(5, 10, 12).Connected() {
		t.Fatal("line graph reported disconnected")
	}
}

// meanHops is the mean over srcs of the hop count to the nearest of dsts,
// the paper's Fig. 2 / E1 metric, from one MultiSourceHops walk. Every
// source must reach some destination.
func meanHops(t *testing.T, g *Graph, srcs, dsts []packet.NodeID) float64 {
	t.Helper()
	hops := g.MultiSourceHops(dsts)
	total := 0
	for _, s := range srcs {
		i, ok := g.index(s)
		if !ok || hops[i] < 0 {
			t.Fatalf("%v reaches none of %v", s, dsts)
		}
		total += hops[i]
	}
	return float64(total) / float64(len(srcs))
}

func TestAvgDegreeAndAvgHops(t *testing.T) {
	g := lineGraph(4, 10, 12) // degrees 1,2,2,1
	if got := g.AvgDegree(); got != 1.5 {
		t.Fatalf("AvgDegree = %v", got)
	}
	if avg := meanHops(t, g, []packet.NodeID{2, 3, 4}, []packet.NodeID{1}); avg != 2.0 {
		t.Fatalf("avg hops = %v, want 2.0", avg)
	}
	empty := Build(nil, nil)
	if d := empty.AvgDegree(); d != 0 {
		t.Fatalf("empty AvgDegree = %v", d)
	}
	if h := empty.MultiSourceHops([]packet.NodeID{1}); len(h) != 0 {
		t.Fatalf("empty graph's hops = %v", h)
	}
}

// TestFig2HopContrast reproduces the hop-count contrast of Fig. 2
// structurally: the same topology, measured against one sink versus three
// gateways, must show a large average-hop reduction.
func TestFig2HopContrast(t *testing.T) {
	g := lineGraph(10, 10, 12)
	single := meanHops(t, g, []packet.NodeID{2, 5, 8}, []packet.NodeID{1})
	multi := meanHops(t, g, []packet.NodeID{2, 5, 8}, []packet.NodeID{1, 5, 10})
	if multi >= single {
		t.Fatalf("multi-gateway avg hops %v not below single-sink %v", multi, single)
	}
}

func TestVerifySubpathOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pos := map[packet.NodeID]geom.Point{}
	ranges := map[packet.NodeID]float64{}
	for i := 0; i < 80; i++ {
		id := packet.NodeID(i + 1)
		pos[id] = geom.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200}
		ranges[id] = 40
	}
	g := Build(pos, ranges)
	for i := 0; i < 40; i++ {
		src := packet.NodeID(rng.Intn(80) + 1)
		dst := packet.NodeID(rng.Intn(80) + 1)
		if err := g.VerifySubpathOptimality(src, dst); err != nil {
			t.Fatalf("Property 1 violated for %v->%v: %v", src, dst, err)
		}
	}
}

func TestFromWorldSkipsDeadAndMeshOnly(t *testing.T) {
	w := node.NewWorld(node.Config{Seed: 1})
	w.AddSensor(1, geom.Point{}, 30, 0, nil)
	w.AddSensor(2, geom.Point{X: 10}, 30, 0, nil)
	dead := w.AddSensor(3, geom.Point{X: 20}, 30, 0, nil)
	w.AddGateway(100, geom.Point{X: 15}, 30, 200, nil)
	w.AddMeshRouter(50, geom.Point{X: 5}, 200)
	dead.Fail()
	g := FromWorld(w)
	if g.Has(3) {
		t.Fatal("dead sensor present in graph")
	}
	if g.Has(50) {
		t.Fatal("mesh-only router present in sensor graph")
	}
	if !g.Has(100) || !g.Has(1) {
		t.Fatal("expected vertices missing")
	}
	if g.Hops(1, 100) == Unreachable {
		t.Fatal("sensor cannot reach gateway in graph")
	}
}

// Property: BFS distance respects the triangle inequality over edges and
// every suffix of every shortest path is itself shortest (Property 1).
func TestQuickBFSProperty1(t *testing.T) {
	f := func(seed int64, nRaw, rangeRaw uint8) bool {
		n := int(nRaw%40) + 5
		rng := rand.New(rand.NewSource(seed))
		pos := map[packet.NodeID]geom.Point{}
		ranges := map[packet.NodeID]float64{}
		r := float64(rangeRaw%40) + 15
		for i := 0; i < n; i++ {
			id := packet.NodeID(i + 1)
			pos[id] = geom.Point{X: rng.Float64() * 150, Y: rng.Float64() * 150}
			ranges[id] = r
		}
		g := Build(pos, ranges)
		src := packet.NodeID(rng.Intn(n) + 1)
		dist, _ := g.BFS(src)
		// Edge relaxation: adjacent nodes differ by at most 1 hop.
		for _, u := range g.IDs() {
			du, okU := dist[u]
			for _, v := range g.Neighbors(u) {
				dv, okV := dist[v]
				if okU != okV {
					return false // reachable node adjacent to unreachable one
				}
				if okU && okV && (du-dv > 1 || dv-du > 1) {
					return false
				}
			}
		}
		dst := packet.NodeID(rng.Intn(n) + 1)
		return g.VerifySubpathOptimality(src, dst) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBFS500(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pos := map[packet.NodeID]geom.Point{}
	ranges := map[packet.NodeID]float64{}
	for i := 0; i < 500; i++ {
		id := packet.NodeID(i + 1)
		pos[id] = geom.Point{X: rng.Float64() * 500, Y: rng.Float64() * 500}
		ranges[id] = 50
	}
	g := Build(pos, ranges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(1)
	}
}
