package network

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/packet"
)

// The grid-accelerated Build and PowerControlK must be observably identical
// to the O(n²) scans they replaced — not merely equivalent-up-to-rounding:
// golden experiment outputs pin the old behavior bit-for-bit. These tests
// keep verbatim copies of the original implementations as oracles and
// compare across randomized fields, shared and heterogeneous ranges.

// bruteGraph is the original map-keyed graph layout, which bruteBuild fills.
type bruteGraph struct {
	ids []packet.NodeID
	pos map[packet.NodeID]geom.Point
	adj map[packet.NodeID][]packet.NodeID
}

// bruteBuild is the original pairwise-scan Build, kept as the oracle.
func bruteBuild(pos map[packet.NodeID]geom.Point, ranges map[packet.NodeID]float64) *bruteGraph {
	g := &bruteGraph{
		pos: make(map[packet.NodeID]geom.Point, len(pos)),
		adj: make(map[packet.NodeID][]packet.NodeID, len(pos)),
	}
	for id, p := range pos {
		g.ids = append(g.ids, id)
		g.pos[id] = p
	}
	sort.Slice(g.ids, func(i, j int) bool { return g.ids[i] < g.ids[j] })
	for i, a := range g.ids {
		for _, b := range g.ids[i+1:] {
			r := ranges[a]
			if rb := ranges[b]; rb < r {
				r = rb
			}
			if g.pos[a].Dist(g.pos[b]) <= r {
				g.adj[a] = append(g.adj[a], b)
				g.adj[b] = append(g.adj[b], a)
			}
		}
	}
	return g
}

// brutePowerControlK is the original per-node full-sort PowerControlK.
func brutePowerControlK(pos map[packet.NodeID]geom.Point, k int, maxRange float64) map[packet.NodeID]float64 {
	out := make(map[packet.NodeID]float64, len(pos))
	ids := make([]packet.NodeID, 0, len(pos))
	for id := range pos {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	dists := make([]float64, 0, len(ids))
	for _, id := range ids {
		dists = dists[:0]
		for _, other := range ids {
			if other == id {
				continue
			}
			dists = append(dists, pos[id].Dist(pos[other]))
		}
		sort.Float64s(dists)
		idx := k - 1
		if idx >= len(dists) {
			idx = len(dists) - 1
		}
		r := maxRange
		if idx >= 0 && idx < len(dists) && dists[idx] < maxRange {
			r = dists[idx]
		}
		if len(dists) == 0 {
			r = 0
		}
		out[id] = r
	}
	return out
}

// requireSameGraph reads every vertex of got through the public API and
// compares it with the oracle's maps.
func requireSameGraph(t *testing.T, trial int, got *Graph, want *bruteGraph) {
	t.Helper()
	if !slices.Equal(got.IDs(), want.ids) || got.Len() != len(want.ids) {
		t.Fatalf("trial %d: ids differ: %v vs %v", trial, got.IDs(), want.ids)
	}
	for _, id := range want.ids {
		// Identical, ascending neighbor order, and nil (not an empty list)
		// for an isolated vertex, as the oracle has no list for it.
		if nb := got.Neighbors(id); !reflect.DeepEqual(nb, want.adj[id]) {
			t.Fatalf("trial %d: neighbors of %v differ:\ngrid:  %v\nbrute: %v", trial, id, nb, want.adj[id])
		}
		if !got.Has(id) || got.Degree(id) != len(want.adj[id]) || got.Pos(id) != want.pos[id] {
			t.Fatalf("trial %d: vertex %v: has %v, degree %d, pos %v; want degree %d, pos %v", trial, id,
				got.Has(id), got.Degree(id), got.Pos(id), len(want.adj[id]), want.pos[id])
		}
	}
}

func randField(rng *rand.Rand, n int, side float64) map[packet.NodeID]geom.Point {
	pos := make(map[packet.NodeID]geom.Point, n)
	for i := 0; i < n; i++ {
		// Non-contiguous IDs so the tests never depend on ID == index.
		pos[packet.NodeID(i*3+1)] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	return pos
}

func TestBuildMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(120) // includes empty and single-node fields
		side := 20 + rng.Float64()*400
		pos := randField(rng, n, side)
		ranges := make(map[packet.NodeID]float64, n)
		shared := rng.Float64() * side / 3
		for id := range pos {
			ranges[id] = shared
		}
		requireSameGraph(t, trial, Build(pos, ranges), bruteBuild(pos, ranges))
	}
}

// TestUnitDiskMatchesBruteForce holds BuildUnitDisk's graph to the oracle
// on fields like TestBuildMatchesBruteForce's, and HopsFrom to
// MultiSourceHops on the graph with the points added as vertices, some of
// them on a vertex. placement's Field tests add the degenerate ranges.
func TestUnitDiskMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(120)
		side := 20 + rng.Float64()*400
		pos := randField(rng, n, side)
		shared := rng.Float64() * side / 3
		ranges := make(map[packet.NodeID]float64, n)
		for id := range pos {
			ranges[id] = shared
		}
		ids := make([]packet.NodeID, 0, n)
		for id := range pos {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		pts := make([]geom.Point, n)
		for i, id := range ids {
			pts[i] = pos[id]
		}
		ud := BuildUnitDisk(ids, pts, shared)
		requireSameGraph(t, trial, ud.Graph(), bruteBuild(pos, ranges))

		// The points' IDs sort after every vertex's (3i+1, see randField).
		var points []geom.Point
		var pointIDs []packet.NodeID
		for k := rng.Intn(6); k > 0; k-- {
			p := geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
			if n > 0 && rng.Intn(3) == 0 {
				p = pts[rng.Intn(n)]
			}
			id := packet.NodeID(3*n + 1 + len(points))
			pos[id], ranges[id] = p, shared
			points, pointIDs = append(points, p), append(pointIDs, id)
		}
		want := Build(pos, ranges).MultiSourceHops(pointIDs)[:n]
		if got := ud.HopsFrom(points); !slices.Equal(got, want) {
			t.Fatalf("trial %d: HopsFrom(%v) = %v, the graph with the points in it gives %v", trial, points, got, want)
		}
	}
}

func TestBuildMatchesBruteForceHeterogeneousRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(120)
		side := 20 + rng.Float64()*400
		pos := randField(rng, n, side)
		ranges := make(map[packet.NodeID]float64, n)
		for id := range pos {
			ranges[id] = rng.Float64() * side / 2
		}
		// A few nodes with zero range, and occasionally an ID missing from
		// the ranges map (treated as zero by both implementations).
		for id := range pos {
			switch rng.Intn(12) {
			case 0:
				ranges[id] = 0
			case 1:
				delete(ranges, id)
			}
		}
		requireSameGraph(t, trial, Build(pos, ranges), bruteBuild(pos, ranges))
	}
}

// FuzzBuildMatchesBruteForce compares Build with the pairwise-scan oracle
// on fuzzed fields. The first byte picks a length scale of k/7 m, k in
// 1..256, so distances round as field coordinates do. Each further three
// bytes are a point: x and y on that scale's lattice, where equal bytes
// make coincident points, and a range byte r. An r of 0 leaves the point
// out of the ranges map (range 0); other multiples of 4 give range 0; r%4
// == 1 gives the exact distance to point r/4 mod n, the boundary ranges
// PowerControlK produces; otherwise the range is r on the scale. Every
// range is finite and non-negative, as every caller's is.
func FuzzBuildMatchesBruteForce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 10, 10, 40})
	f.Add([]byte{6, 10, 10, 0, 10, 10, 4, 10, 10, 8})                 // coincident, zero ranges
	f.Add([]byte{6, 0, 0, 5, 3, 4, 1, 3, 0, 9, 0, 4, 2, 50, 50, 255}) // exact-distance ranges
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			requireSameGraph(t, 0, Build(nil, nil), bruteBuild(nil, nil))
			return
		}
		scale := float64(1+int(data[0])) / 7
		pts := data[1:]
		n := min(len(pts)/3, 200)
		ids := make([]packet.NodeID, n)
		pos := make(map[packet.NodeID]geom.Point, n)
		for i := range ids {
			ids[i] = packet.NodeID(i*3 + 1) // non-contiguous, as randField's
			pos[ids[i]] = geom.Point{X: float64(pts[3*i]) * scale, Y: float64(pts[3*i+1]) * scale}
		}
		ranges := make(map[packet.NodeID]float64, n)
		for i, id := range ids {
			switch r := pts[3*i+2]; {
			case r == 0:
			case r%4 == 0:
				ranges[id] = 0
			case r%4 == 1:
				ranges[id] = pos[id].Dist(pos[ids[int(r/4)%n]])
			default:
				ranges[id] = float64(r) * scale
			}
		}
		requireSameGraph(t, 0, Build(pos, ranges), bruteBuild(pos, ranges))
	})
}

// The deployment pipeline computes PowerControlK ranges and applies them to
// the world (ApplyRanges) before rebuilding the graph; this exercises the
// grid path end-to-end with exactly those heterogeneous radii.
func TestBuildAfterPowerControlMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(100)
		side := 20 + rng.Float64()*300
		pos := randField(rng, n, side)
		k := 1 + rng.Intn(8)
		maxRange := 10 + rng.Float64()*side/2
		got := PowerControlK(pos, k, maxRange)
		want := brutePowerControlK(pos, k, maxRange)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: PowerControlK(k=%d, max=%v) differs:\ngrid:  %v\nbrute: %v",
				trial, k, maxRange, got, want)
		}
		requireSameGraph(t, trial, Build(pos, got), bruteBuild(pos, want))
	}
}

func TestPowerControlKMatchesBruteForceEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(40) // includes 0 and 1 node fields
		pos := randField(rng, n, 100)
		k := rng.Intn(int(float64(n)*1.5)+2) - 1 // k < 0, k == 0, k > n all occur
		maxRange := []float64{0, 5, 30, 1e9}[rng.Intn(4)]
		got := PowerControlK(pos, k, maxRange)
		want := brutePowerControlK(pos, k, maxRange)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: PowerControlK(n=%d, k=%d, max=%v) differs:\ngrid:  %v\nbrute: %v",
				trial, n, k, maxRange, got, want)
		}
	}
}

// MultiSourceHops must agree with a per-vertex NearestOf scan (its
// one-BFS-per-sensor predecessor in placement.Evaluate).
func TestMultiSourceHopsMatchesNearestOf(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(80)
		pos := randField(rng, n, 200)
		ranges := make(map[packet.NodeID]float64, n)
		for id := range pos {
			ranges[id] = 30 + rng.Float64()*30
		}
		g := Build(pos, ranges)
		var srcs []packet.NodeID
		for _, id := range g.IDs() {
			if rng.Intn(8) == 0 {
				srcs = append(srcs, id)
			}
		}
		srcs = append(srcs, packet.NodeID(1<<20)) // unknown IDs are ignored
		dist := g.MultiSourceHops(srcs)
		if len(dist) != g.Len() {
			t.Fatalf("trial %d: %d hop counts for %d vertices", trial, len(dist), g.Len())
		}
		for i, id := range g.IDs() {
			_, want := g.NearestOf(id, srcs)
			got := dist[i]
			if got < 0 {
				got = Unreachable
			}
			if got != want {
				t.Fatalf("trial %d: hops from %v = %d, NearestOf says %d", trial, id, got, want)
			}
		}
	}
}

func TestKthSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(10)) // heavy duplicates
		}
		sorted := append([]float64(nil), a...)
		sort.Float64s(sorted)
		k := 1 + rng.Intn(n)
		if got := kthSmallest(a, k); got != sorted[k-1] {
			t.Fatalf("trial %d: kthSmallest(%v, %d) = %v, want %v", trial, a, k, got, sorted[k-1])
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{100, 1000} {
		pos := powerControlField(n)
		ranges := make(map[packet.NodeID]float64, n)
		for id := range pos {
			ranges[id] = 25
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Build(pos, ranges)
			}
		})
	}
}
