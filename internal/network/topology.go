package network

import (
	"sort"

	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// Topology control (§4.4): "Current topology control technologies fall into
// two categories: power control and sleep scheduling."

// PowerControlK computes, for each node, the minimal transmission range that
// keeps at least k neighbors reachable (or all other nodes when fewer than
// k exist), clamped to maxRange. This is the classic k-neighbor power
// control: shrinking ranges saves transmission energy and reduces contention
// while preserving local connectivity.
//
// Only neighbors within maxRange can lower a node's range below maxRange, so
// each node needs just the distances inside its maxRange disk — a grid query
// — and of those only the k-th smallest, a quickselect instead of a full
// sort. Near-uniform fields cost O(n·degree) rather than O(n² log n).
func PowerControlK(pos map[packet.NodeID]geom.Point, k int, maxRange float64) map[packet.NodeID]float64 {
	out := make(map[packet.NodeID]float64, len(pos))
	ids := make([]packet.NodeID, 0, len(pos))
	for id := range pos {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) == 0 {
		return out
	}
	if len(ids) == 1 {
		out[ids[0]] = 0 // no other nodes: nothing to reach
		return out
	}
	need := k
	if n1 := len(ids) - 1; need > n1 {
		need = n1
	}
	if need <= 0 {
		for _, id := range ids {
			out[id] = maxRange
		}
		return out
	}
	pts := make([]geom.Point, len(ids))
	for i, id := range ids {
		pts[i] = pos[id]
	}
	cell := maxRange
	if !(cell > 0) { // non-positive or NaN: cell size is perf-only, pick any
		cell = 1
	}
	grid := geom.IndexPoints(pts, cell)
	// Two scratch buffers reused across the per-node loop: capacity n-1
	// covers the worst case (every other node within maxRange). The grid
	// prefilter compares squared distances, so the query radius is padded a
	// hair to guarantee a superset; the exact per-candidate Dist < maxRange
	// test below reproduces the original arithmetic bit-for-bit.
	cand := make([]int32, 0, len(ids))
	dist := make([]float64, 0, len(ids))
	mq := maxRange * (1 + 1e-12)
	for i, id := range ids {
		cand = grid.AppendWithin(cand[:0], pts[i], mq, int32(i))
		dist = dist[:0]
		for _, j := range cand {
			if d := pts[i].Dist(pts[j]); d < maxRange {
				dist = append(dist, d)
			}
		}
		if len(dist) < need {
			// The k-th nearest neighbor lies at or beyond maxRange.
			out[id] = maxRange
			continue
		}
		out[id] = kthSmallest(dist, need)
	}
	return out
}

// kthSmallest returns the k-th smallest element (1-indexed) of a, partially
// reordering a in place. Hoare quickselect with a median-of-three pivot:
// expected O(len(a)), zero allocations, deterministic for a given input.
func kthSmallest(a []float64, k int) float64 {
	lo, hi, target := 0, len(a)-1, k-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case target <= j:
			hi = j
		case target >= i:
			lo = i
		default:
			return a[target] // between the partitions: equal to the pivot
		}
	}
	return a[target]
}

// ApplyRanges installs per-node ranges onto a world's sensor stations.
// Unknown IDs and dead devices are skipped.
func ApplyRanges(w *node.World, ranges map[packet.NodeID]float64) {
	for id, r := range ranges {
		d := w.Device(id)
		if d == nil || !d.Alive() || d.SensorStation() == nil {
			continue
		}
		d.SensorStation().SetRange(r)
	}
}

// SleepScheduler duty-cycles sensor radios: each node listens for
// OnFraction of every Period, with a per-node phase offset so the whole
// network is never deaf at once. Transmission is always allowed; only the
// receiver sleeps (matching low-power-listening practice).
type SleepScheduler struct {
	Period     sim.Duration
	OnFraction float64

	world   *node.World
	targets []packet.NodeID
	stopped bool
}

// NewSleepScheduler creates a scheduler over the given sensor IDs; empty ids
// selects every sensor in the world.
func NewSleepScheduler(w *node.World, period sim.Duration, onFraction float64, ids []packet.NodeID) *SleepScheduler {
	if onFraction < 0 {
		onFraction = 0
	}
	if onFraction > 1 {
		onFraction = 1
	}
	if len(ids) == 0 {
		for _, d := range w.DevicesOfKind(node.Sensor) {
			ids = append(ids, d.ID())
		}
	}
	return &SleepScheduler{Period: period, OnFraction: onFraction, world: w, targets: ids}
}

// Start begins duty cycling. Each node wakes at a random phase within the
// first period (deterministic under the world seed).
func (s *SleepScheduler) Start() {
	if s.OnFraction >= 1 {
		return // always on; nothing to schedule
	}
	k := s.world.Kernel()
	onSpan := sim.Duration(float64(s.Period) * s.OnFraction)
	for _, id := range s.targets {
		id := id
		phase := sim.Duration(k.Rand().Int63n(int64(s.Period)))
		var cycle func()
		cycle = func() {
			if s.stopped {
				return
			}
			d := s.world.Device(id)
			if d == nil || !d.Alive() || d.SensorStation() == nil {
				return
			}
			d.SensorStation().SetListening(true)
			k.After(onSpan, func() {
				if s.stopped {
					return
				}
				if d := s.world.Device(id); d != nil && d.Alive() && d.SensorStation() != nil {
					d.SensorStation().SetListening(false)
				}
				k.After(s.Period-onSpan, cycle)
			})
		}
		k.After(phase, cycle)
	}
}

// Stop halts future duty-cycle transitions and wakes every surviving target
// so the network is usable again.
func (s *SleepScheduler) Stop() {
	s.stopped = true
	for _, id := range s.targets {
		if d := s.world.Device(id); d != nil && d.Alive() && d.SensorStation() != nil {
			d.SensorStation().SetListening(true)
		}
	}
}
