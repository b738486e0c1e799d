// Package network provides the connectivity-graph view of a deployed WMSN:
// unit-disk adjacency, reference shortest paths (the optimum SPR should
// find), connectivity analysis used by the deployment tools, and the
// topology-control mechanisms of §4.4 (power control and sleep scheduling).
package network

import (
	"fmt"
	"slices"

	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/packet"
)

// Graph is an undirected unit-disk connectivity graph. Vertices are node
// IDs; an edge joins two vertices whose distance is within both their
// ranges ("two nodes can immediately communicate with each other", §5.1).
//
// Vertices are stored densely by index, in ascending-ID order, so a binary
// search over ids maps an ID to its index. The adjacency is in compressed
// sparse row form: vertex i's neighbors are the indices nbr[off[i]:off[i+1]],
// ascending. A 100k-vertex graph is four flat arrays, with no map entry or
// slice per vertex.
type Graph struct {
	ids []packet.NodeID // ascending
	pts []geom.Point    // pts[i] is the position of ids[i]
	off []int32         // len(ids)+1 offsets into nbr
	nbr []int32
}

// Build constructs the graph for the given positions and per-node ranges.
// A link requires dist ≤ min(range[a], range[b]) so that every edge is
// bidirectional. An ID missing from ranges has range 0.
func Build(pos map[packet.NodeID]geom.Point, ranges map[packet.NodeID]float64) *Graph {
	ids := make([]packet.NodeID, 0, len(pos))
	for id := range pos {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	pts := make([]geom.Point, len(ids))
	rng := make([]float64, len(ids))
	for i, id := range ids {
		pts[i], rng[i] = pos[id], ranges[id]
	}
	return BuildSorted(ids, pts, rng)
}

// BuildSorted is Build over parallel slices: vertex i is ids[i], at pts[i]
// with range ranges[i]. The IDs must be strictly ascending. The graph keeps
// ids and pts, so the caller must not modify them afterwards.
//
// Candidate neighbors come from a uniform grid query of radius ranges[i]
// (min(ra, rb) ≤ ra, so no edge partner can be missed), making construction
// O(n·degree) on near-uniform fields instead of O(n²). Each vertex's list is
// filled from its own query, so the lists come out ascending, and the edge
// test is symmetric in the pair, so they come out symmetric.
func BuildSorted(ids []packet.NodeID, pts []geom.Point, ranges []float64) *Graph {
	checkSorted(ids, pts, ranges)
	g := &Graph{ids: ids, pts: pts, off: make([]int32, len(ids)+1)}
	if len(ids) < 2 {
		return g
	}
	g.link(newLinker(pts, ranges))
	return g
}

// checkSorted panics unless ids, pts and ranges are parallel and the IDs
// strictly ascending.
func checkSorted(ids []packet.NodeID, pts []geom.Point, ranges []float64) {
	if len(pts) != len(ids) || len(ranges) != len(ids) {
		panic(fmt.Sprintf("network: %d IDs, %d positions, %d ranges", len(ids), len(pts), len(ranges)))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			panic(fmt.Sprintf("network: IDs not strictly ascending at %v", ids[i]))
		}
	}
}

// link fills g's adjacency from each vertex's own query.
func (g *Graph) link(l *linker) {
	for i := range g.ids {
		g.nbr = l.appendLinked(g.nbr, g.pts[i], l.ranges[i], int32(i))
		g.off[i+1] = int32(len(g.nbr))
	}
}

// linker holds the edge rule: a vertex pair is linked when their distance
// is within both their ranges. Candidates come from a grid over the
// vertices, whose cell is the largest range.
type linker struct {
	grid   *geom.GridIndex[int32] // vertex i has value i
	pts    []geom.Point
	ranges []float64
	buf    []int32 // grid candidates of the current query
}

func newLinker(pts []geom.Point, ranges []float64) *linker {
	maxR := 0.0
	for _, r := range ranges {
		if r > maxR {
			maxR = r
		}
	}
	cell := maxR
	if !(cell > 0) { // all ranges non-positive: cell size is perf-only
		cell = 1
	}
	return &linker{grid: geom.IndexPoints(pts, cell), pts: pts, ranges: ranges}
}

// appendLinked appends to out, ascending, every vertex j other than except
// that a point p of range r links to. The grid prefilter compares squared
// distances, which is not exactly the old Dist ≤ r test when r is itself a
// rounded sqrt — and PowerControlK produces ranges sitting exactly on
// neighbor distances. So the query radius is padded a hair, to make the
// candidate set a strict superset, and membership is decided with the
// verbatim original predicate. A linker is not safe for concurrent use:
// the query writes its buf.
func (l *linker) appendLinked(out []int32, p geom.Point, r float64, except int32) []int32 {
	l.buf = l.grid.AppendWithin(l.buf[:0], p, r*(1+1e-12), except)
	slices.Sort(l.buf)
	for _, j := range l.buf {
		rj := r
		if l.ranges[j] < rj {
			rj = l.ranges[j]
		}
		if p.Dist(l.pts[j]) <= rj {
			out = append(out, j)
		}
	}
	return out
}

// UnitDisk is the graph of vertices that share one range, kept together
// with the grid it was built over, so that outside points at that range
// (gateways) can be joined to it under the same edge rule without
// rebuilding it. A UnitDisk is read-only once built: concurrent HopsFrom
// calls may share it.
type UnitDisk struct {
	g      *Graph
	grid   *geom.GridIndex[int32]
	ranges []float64 // rangeM for every vertex, as the edge rule reads it
	rangeM float64
}

// BuildUnitDisk is BuildSorted with every range rangeM, keeping its grid.
// It builds the grid for fewer than two vertices too, since HopsFrom
// queries it.
func BuildUnitDisk(ids []packet.NodeID, pts []geom.Point, rangeM float64) *UnitDisk {
	ranges := make([]float64, len(ids))
	for i := range ranges {
		ranges[i] = rangeM
	}
	checkSorted(ids, pts, ranges)
	l := newLinker(pts, ranges)
	g := &Graph{ids: ids, pts: pts, off: make([]int32, len(ids)+1)}
	g.link(l)
	return &UnitDisk{g: g, grid: l.grid, ranges: ranges, rangeM: rangeM}
}

// Graph returns the graph itself. It is shared, not copied, and must not
// be modified.
func (u *UnitDisk) Graph() *Graph { return u.g }

// HopsFrom returns every vertex's hop count to the nearest of points, in
// IDs() order, or -1 for a vertex that reaches none: the counts a BFS
// gives on the graph with the points added as vertices of range rangeM.
// A shortest path from the point set passes through no second point,
// since it could start there instead, so a vertex's count is one more than
// its BFS distance from the vertices linked to some point, found with the
// graph's own edge rule. Points need not be distinct from each other or
// from the vertices.
func (u *UnitDisk) HopsFrom(points []geom.Point) []int {
	l := linker{grid: u.grid, pts: u.g.pts, ranges: u.ranges}
	var srcs []int32
	for _, p := range points {
		srcs = l.appendLinked(srcs, p, u.rangeM, -1)
	}
	// walk ignores a repeated source, so a vertex next to two points needs
	// no dedupe here.
	h := u.g.walk(srcs, nil)
	for i := range h {
		if h[i] >= 0 {
			h[i]++
		}
	}
	return h
}

// FromWorld builds the sensor-layer connectivity graph of a world,
// considering only living devices that have a sensor-layer radio (sensors
// and gateways).
func FromWorld(w *node.World) *Graph {
	pos := make(map[packet.NodeID]geom.Point)
	ranges := make(map[packet.NodeID]float64)
	for _, d := range w.Devices() {
		if !d.Alive() || d.SensorStation() == nil {
			continue
		}
		pos[d.ID()] = d.SensorStation().Pos()
		ranges[d.ID()] = d.SensorStation().Range()
	}
	return Build(pos, ranges)
}

// index returns the index of vertex id.
func (g *Graph) index(id packet.NodeID) (int, bool) {
	return slices.BinarySearch(g.ids, id)
}

// adjacent returns the neighbor indices of vertex i.
func (g *Graph) adjacent(i int32) []int32 { return g.nbr[g.off[i]:g.off[i+1]] }

// IDs returns all vertices in ascending order.
func (g *Graph) IDs() []packet.NodeID { return g.ids }

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.ids) }

// Pos returns the position of id, or the zero point if id is no vertex.
func (g *Graph) Pos(id packet.NodeID) geom.Point {
	if i, ok := g.index(id); ok {
		return g.pts[i]
	}
	return geom.Point{}
}

// Has reports whether id is a vertex.
func (g *Graph) Has(id packet.NodeID) bool { _, ok := g.index(id); return ok }

// Neighbors returns id's neighbors in ascending order, in a new slice, or
// nil if id has none.
func (g *Graph) Neighbors(id packet.NodeID) []packet.NodeID {
	i, ok := g.index(id)
	if !ok {
		return nil
	}
	var out []packet.NodeID
	for _, j := range g.adjacent(int32(i)) {
		out = append(out, g.ids[j])
	}
	return out
}

// Degree returns the number of neighbors of id.
func (g *Graph) Degree(id packet.NodeID) int {
	if i, ok := g.index(id); ok {
		return len(g.adjacent(int32(i)))
	}
	return 0
}

// AvgDegree returns the mean vertex degree.
func (g *Graph) AvgDegree() float64 {
	if len(g.ids) == 0 {
		return 0
	}
	return float64(len(g.nbr)) / float64(len(g.ids))
}

// Unreachable marks an infinite BFS distance.
const Unreachable = int(^uint(0) >> 1)

// walk is a breadth-first search from the vertices srcs (indices; a repeat
// is ignored). It returns each vertex's hop distance to the nearest source,
// -1 where none is reached, and, with parent non-nil, sets parent[v] to the
// BFS parent of every reached vertex v that is no source. Vertices are
// dequeued in the order they are reached, and each one's neighbors are
// visited in ascending order, which fixes which parent a vertex gets.
func (g *Graph) walk(srcs []int32, parent []int32) []int {
	dist := make([]int, len(g.ids))
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, len(g.ids))
	for _, s := range srcs {
		if dist[s] < 0 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adjacent(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				if parent != nil {
					parent[v] = u
				}
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// BFS computes hop distances and BFS parents from src. Vertices not reached
// are absent from both maps.
func (g *Graph) BFS(src packet.NodeID) (dist map[packet.NodeID]int, parent map[packet.NodeID]packet.NodeID) {
	dist = make(map[packet.NodeID]int)
	parent = make(map[packet.NodeID]packet.NodeID)
	s, ok := g.index(src)
	if !ok {
		return dist, parent
	}
	par := make([]int32, len(g.ids))
	for i, h := range g.walk([]int32{int32(s)}, par) {
		if h < 0 {
			continue
		}
		dist[g.ids[i]] = h
		if i != s {
			parent[g.ids[i]] = g.ids[par[i]]
		}
	}
	return dist, parent
}

// MultiSourceHops returns every vertex's hop distance to the nearest of
// srcs, in IDs() order, or -1 for a vertex that reaches no source — one BFS
// from all sources at once. Evaluating "hops to the nearest gateway" for
// every sensor this way costs O(V+E) total, where a NearestOf call per
// sensor would repeat a full BFS each time. Unknown source IDs are ignored.
func (g *Graph) MultiSourceHops(srcs []packet.NodeID) []int {
	idx := make([]int32, 0, len(srcs))
	for _, s := range srcs {
		if i, ok := g.index(s); ok {
			idx = append(idx, int32(i))
		}
	}
	return g.walk(idx, nil)
}

// Hops returns the hop distance from src to dst, or Unreachable.
func (g *Graph) Hops(src, dst packet.NodeID) int {
	_, h := g.NearestOf(src, []packet.NodeID{dst})
	return h
}

// ShortestPath returns a minimum-hop path from src to dst inclusive, or nil
// when unreachable.
func (g *Graph) ShortestPath(src, dst packet.NodeID) []packet.NodeID {
	s, ok := g.index(src)
	t, okT := g.index(dst)
	if !ok || !okT {
		return nil
	}
	parent := make([]int32, len(g.ids))
	h := g.walk([]int32{int32(s)}, parent)[t]
	if h < 0 {
		return nil
	}
	path := make([]packet.NodeID, h+1)
	for at := int32(t); h >= 0; h-- {
		path[h] = g.ids[at]
		at = parent[at]
	}
	return path
}

// NearestOf returns the destination in dsts with the fewest hops from src
// and that hop count; ties break toward the smaller ID. Returns
// (packet.None, Unreachable) when none is reachable.
func (g *Graph) NearestOf(src packet.NodeID, dsts []packet.NodeID) (packet.NodeID, int) {
	best, bestHops := packet.None, Unreachable
	s, ok := g.index(src)
	if !ok {
		return best, bestHops
	}
	dist := g.walk([]int32{int32(s)}, nil)
	for _, d := range dsts {
		i, ok := g.index(d)
		if !ok || dist[i] < 0 {
			continue
		}
		if h := dist[i]; h < bestHops || (h == bestHops && d < best) {
			best, bestHops = d, h
		}
	}
	return best, bestHops
}

// Connected reports whether the graph is a single connected component (an
// empty graph counts as connected).
func (g *Graph) Connected() bool { return len(g.Components()) <= 1 }

// Components returns the connected components, each sorted ascending, in
// order of their smallest member.
func (g *Graph) Components() [][]packet.NodeID {
	seen := make([]bool, len(g.ids))
	queue := make([]int32, 0, len(g.ids))
	var comps [][]packet.NodeID
	for start := range g.ids {
		if seen[start] {
			continue
		}
		seen[start] = true
		queue = append(queue[:0], int32(start))
		for head := 0; head < len(queue); head++ {
			for _, v := range g.adjacent(queue[head]) {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		slices.Sort(queue) // ascending index is ascending ID
		comp := make([]packet.NodeID, len(queue))
		for k, v := range queue {
			comp[k] = g.ids[v]
		}
		comps = append(comps, comp)
	}
	return comps
}

// VerifySubpathOptimality checks Property 1 of §5.2 on the shortest path
// from src to dst: every suffix of a shortest path must itself be a
// shortest path. It returns an error describing the first violation (which,
// for a correct BFS, never happens — the test suite uses this as an oracle).
func (g *Graph) VerifySubpathOptimality(src, dst packet.NodeID) error {
	path := g.ShortestPath(src, dst)
	if path == nil {
		return nil
	}
	for i := 1; i < len(path); i++ {
		want := len(path) - 1 - i
		if got := g.Hops(path[i], dst); got != want {
			return fmt.Errorf("suffix from %v has %d hops, expected %d", path[i], got, want)
		}
	}
	return nil
}
