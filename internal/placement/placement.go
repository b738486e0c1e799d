// Package placement implements the paper's §4.1 models: the gateway number
// model (how many WMGs a sensor field needs — reproducing the Kmax
// saturation result of ref. [34]) and the gateway deployment model (where to
// put them — k-means, greedy max-coverage, grid and random placements, with
// hop-count evaluation against the connectivity graph).
package placement

import (
	"math"
	"math/rand"
	"sort"

	"wmsn/internal/geom"
	"wmsn/internal/network"
	"wmsn/internal/packet"
)

// Strategy places k gateways for a given sensor deployment.
type Strategy interface {
	Place(sensors []geom.Point, k int, region geom.Rect, rng *rand.Rand) []geom.Point
}

// Random scatters gateways uniformly — the do-nothing baseline.
type Random struct{}

// Place implements Strategy.
func (Random) Place(_ []geom.Point, k int, region geom.Rect, rng *rand.Rand) []geom.Point {
	pts := make([]geom.Point, k)
	for i := range pts {
		pts[i] = region.RandomPoint(rng)
	}
	return pts
}

// Grid places gateways on a uniform lattice — simple and surprisingly
// strong for uniform sensor fields.
type Grid struct{}

// Place implements Strategy.
func (Grid) Place(_ []geom.Point, k int, region geom.Rect, _ *rand.Rand) []geom.Point {
	return geom.PlaceGrid(k, region)
}

// KMeans clusters the sensors and puts one gateway at each centroid,
// minimizing mean sensor-to-gateway distance — the heuristic stand-in for
// the ILP of ref. [34] (see DESIGN.md substitutions).
type KMeans struct {
	// Iters bounds Lloyd iterations; 0 selects 32.
	Iters int
}

// Place implements Strategy.
func (km KMeans) Place(sensors []geom.Point, k int, region geom.Rect, rng *rand.Rand) []geom.Point {
	if k <= 0 || len(sensors) == 0 {
		return nil
	}
	iters := km.Iters
	if iters <= 0 {
		iters = 32
	}
	// Initialize with k distinct sensors (k-means++ style: farthest-first).
	centers := []geom.Point{sensors[rng.Intn(len(sensors))]}
	for len(centers) < k {
		best, bestD := sensors[0], -1.0
		for _, s := range sensors {
			d := math.Inf(1)
			for _, c := range centers {
				d = math.Min(d, s.Dist2(c))
			}
			if d > bestD {
				best, bestD = s, d
			}
		}
		centers = append(centers, best)
	}
	assign := make([]int, len(sensors))
	for it := 0; it < iters; it++ {
		changed := false
		for i, s := range sensors {
			bi, bd := 0, math.Inf(1)
			for j, c := range centers {
				if d := s.Dist2(c); d < bd {
					bi, bd = j, d
				}
			}
			if assign[i] != bi {
				assign[i] = bi
				changed = true
			}
		}
		sums := make([]geom.Point, k)
		counts := make([]int, k)
		for i, s := range sensors {
			sums[assign[i]].X += s.X
			sums[assign[i]].Y += s.Y
			counts[assign[i]]++
		}
		for j := range centers {
			if counts[j] > 0 {
				centers[j] = region.Clamp(sums[j].Scale(1 / float64(counts[j])))
			}
		}
		if !changed {
			break
		}
	}
	return centers
}

// GreedyCoverage picks k candidate sites maximizing the number of sensors
// within coverRadius of a chosen site (classic greedy set cover; each round
// picks the site covering the most still-uncovered sensors).
type GreedyCoverage struct {
	// Candidates are the feasible sites; empty selects a 6x6 grid over the
	// region.
	Candidates []geom.Point
	// CoverRadius is the service radius per site.
	CoverRadius float64
}

// Place implements Strategy.
func (g GreedyCoverage) Place(sensors []geom.Point, k int, region geom.Rect, _ *rand.Rand) []geom.Point {
	cands := g.Candidates
	if len(cands) == 0 {
		cands = geom.PlaceGrid(36, region)
	}
	r := g.CoverRadius
	if r <= 0 {
		r = math.Min(region.Width(), region.Height()) / 4
	}
	covered := make([]bool, len(sensors))
	used := make([]bool, len(cands))
	var out []geom.Point
	for len(out) < k {
		bestIdx, bestGain := -1, -1
		for ci, c := range cands {
			if used[ci] {
				continue
			}
			gain := 0
			for si, s := range sensors {
				if !covered[si] && s.Dist(c) <= r {
					gain++
				}
			}
			if gain > bestGain {
				bestIdx, bestGain = ci, gain
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		out = append(out, cands[bestIdx])
		for si, s := range sensors {
			if s.Dist(cands[bestIdx]) <= r {
				covered[si] = true
			}
		}
	}
	return out
}

// Eval summarizes how well a placement serves a sensor field at the given
// radio range: the paper's Fig. 2 metrics.
type Eval struct {
	AvgHops     float64 // mean hops to the nearest gateway (reachable sensors)
	MaxHops     int     // worst case among reachable sensors
	Unreachable int     // sensors with no path to any gateway
	TotalHops   int     // Σ hops — proportional to per-epoch forwarding energy
}

// Evaluate measures hop statistics from sensors to the nearest of gateways
// on the unit-disk graph at rangeM: NewField(sensors, rangeM).Evaluate(gateways).
// A caller evaluating several gateway sets on one field builds the Field
// once instead.
func Evaluate(sensors, gateways []geom.Point, rangeM float64) Eval {
	return NewField(sensors, rangeM).Evaluate(gateways)
}

// Field is a sensor deployment's connectivity graph at one radio range,
// built once so that any number of gateway sets can be evaluated on it: a
// hop sweep over gateway counts or placement strategies builds one graph,
// not one per gateway set. A Field is read-only once built, so concurrent
// Evaluate calls may share it.
type Field struct {
	d *network.UnitDisk // sensor i is vertex i, ID i+1
}

// NewField builds the sensor graph of sensors at rangeM, with the edge rule
// of network.BuildSorted. The Field keeps sensors, which the caller must
// not modify afterwards.
func NewField(sensors []geom.Point, rangeM float64) *Field {
	ids := make([]packet.NodeID, len(sensors))
	for i := range ids {
		ids[i] = packet.NodeID(i + 1)
	}
	return &Field{d: network.BuildUnitDisk(ids, sensors, rangeM)}
}

// Graph returns the sensor graph: sensor i is vertex i, with ID i+1. It is
// shared, not copied, and must not be modified.
func (f *Field) Graph() *network.Graph { return f.d.Graph() }

// Evaluate measures hop statistics from every sensor to the nearest of
// gateways, exactly as on the unit-disk graph over sensors and gateways
// together (sensors first, then gateways, all at the Field's range); see
// network.UnitDisk.HopsFrom.
func (f *Field) Evaluate(gateways []geom.Point) Eval { return summarize(f.d.HopsFrom(gateways)) }

// summarize folds per-sensor hop counts (-1 for unreachable) into an Eval.
func summarize(hops []int) Eval {
	var ev Eval
	reachable := 0
	for _, h := range hops {
		if h < 0 {
			ev.Unreachable++
			continue
		}
		reachable++
		ev.TotalHops += h
		if h > ev.MaxHops {
			ev.MaxHops = h
		}
	}
	if reachable > 0 {
		ev.AvgHops = float64(ev.TotalHops) / float64(reachable)
	}
	return ev
}

// Kmax finds the saturation point of a lifetime-vs-k curve: the smallest k
// (1-based index into values) beyond which adding another gateway improves
// lifetime by less than epsilon (relative). This reproduces the shape of
// ref. [34]'s result that increasing base stations beyond Kmax stops
// helping.
func Kmax(values []float64, epsilon float64) int {
	if len(values) == 0 {
		return 0
	}
	for k := 0; k < len(values)-1; k++ {
		cur := values[k]
		if cur <= 0 {
			continue
		}
		if (values[k+1]-cur)/cur < epsilon {
			return k + 1
		}
	}
	return len(values)
}

// SelectPlaces reduces a candidate place set to the k most load-balanced for
// MLR scheduling: places are ranked by their average distance to the sensor
// centroid-quantile bands so that scheduled rotations visit dispersed spots.
// It returns indices into candidates, sorted ascending.
func SelectPlaces(candidates []geom.Point, sensors []geom.Point, k int) []int {
	if k >= len(candidates) {
		out := make([]int, len(candidates))
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Greedy farthest-point dispersion seeded at the sensor centroid's
	// nearest candidate.
	ctr := geom.Centroid(sensors)
	first, firstD := 0, math.Inf(1)
	for i, c := range candidates {
		if d := c.Dist2(ctr); d < firstD {
			first, firstD = i, d
		}
	}
	chosen := []int{first}
	inSet := map[int]bool{first: true}
	for len(chosen) < k {
		best, bestD := -1, -1.0
		for i, c := range candidates {
			if inSet[i] {
				continue
			}
			d := math.Inf(1)
			for _, j := range chosen {
				d = math.Min(d, c.Dist2(candidates[j]))
			}
			if d > bestD {
				best, bestD = i, d
			}
		}
		chosen = append(chosen, best)
		inSet[best] = true
	}
	sort.Ints(chosen)
	return chosen
}

// SlidingSchedule is the naive alternative to RotationSchedule: each round
// every gateway shifts to the next place, so place tenancy changes
// constantly. It maximizes churn — useful as the ablation baseline showing
// why tenant-stable rotation matters (SecMLR must re-verify a place whenever
// its tenant changes).
func SlidingSchedule(numPlaces, m, rounds int) [][]int {
	if numPlaces < m || m <= 0 || rounds <= 0 {
		return nil
	}
	out := make([][]int, rounds)
	for r := range out {
		row := make([]int, m)
		for i := range row {
			row[i] = (r + i*numPlaces/m) % numPlaces
		}
		out[r] = row
	}
	return out
}

// RotationSchedule builds an MLR schedule of the given length over the
// feasible places for m gateways. The places are partitioned among the
// gateways and each gateway cycles within its own partition: every feasible
// place is visited (so forwarding hotspots rotate, the paper's
// energy-balancing rationale for mobility) while each place keeps a stable
// tenant across revisits — which is what lets the incremental routing
// tables, and SecMLR's per-gateway verified routes, stay valid round after
// round.
func RotationSchedule(numPlaces, m, rounds int) [][]int {
	if numPlaces < m || m <= 0 || rounds <= 0 {
		return nil
	}
	// Partition bounds: gateway i owns [start[i], start[i+1]).
	start := make([]int, m+1)
	for i := 1; i <= m; i++ {
		start[i] = start[i-1] + numPlaces/m
		if i <= numPlaces%m {
			start[i]++
		}
	}
	out := make([][]int, rounds)
	for r := range out {
		row := make([]int, m)
		for i := range row {
			span := start[i+1] - start[i]
			row[i] = start[i] + r%span
		}
		out[r] = row
	}
	return out
}
