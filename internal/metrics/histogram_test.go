package metrics

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"
)

// randomSamples draws a deterministic mixed-scale sample set: small exact
// values, mid-range, and large values spanning many octaves.
func randomSamples(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		switch r.Intn(3) {
		case 0:
			out[i] = uint64(r.Intn(8)) // exact region
		case 1:
			out[i] = uint64(r.Intn(100_000))
		default:
			out[i] = uint64(r.Int63n(1 << 40))
		}
	}
	return out
}

// TestHistMergeCommutative pins the determinism contract that makes
// histograms safe to fold across workers: Merge(a,b) and Merge(b,a) produce
// bit-identical state (compared through the exact-state snapshot), and
// merging matches observing the union directly.
func TestHistMergeCommutative(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		sa := randomSamples(r, 1+r.Intn(500))
		sb := randomSamples(r, 1+r.Intn(500))
		var a, b, union Hist
		for _, v := range sa {
			a.Observe(v)
			union.Observe(v)
		}
		for _, v := range sb {
			b.Observe(v)
			union.Observe(v)
		}
		ab, ba := a, b // copies; Merge mutates the receiver
		ab.Merge(&b)
		ba.Merge(&a)
		if ab != ba {
			t.Fatalf("trial %d: Merge(a,b) != Merge(b,a)", trial)
		}
		if ab != union {
			t.Fatalf("trial %d: merged state differs from observing the union directly", trial)
		}
		ja, _ := json.Marshal(ab.Snapshot())
		jb, _ := json.Marshal(ba.Snapshot())
		if string(ja) != string(jb) {
			t.Fatalf("trial %d: merged snapshots not byte-identical:\n%s\n%s", trial, ja, jb)
		}
	}
}

// TestHistObserveOrderIndependent pins that a histogram's state depends only
// on the multiset of observed samples, not on the order they arrive in.
func TestHistObserveOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	samples := randomSamples(r, 1000)
	var fwd, rev Hist
	for _, v := range samples {
		fwd.Observe(v)
	}
	for i := len(samples) - 1; i >= 0; i-- {
		rev.Observe(samples[i])
	}
	if fwd != rev {
		t.Fatalf("reversed observation order changed the histogram state")
	}
}

// TestHistPercentileErrorBound checks every percentile against an exact
// sort-based oracle: the histogram answer must be >= the oracle value below
// the next power-of-two step and within the documented 12.5% relative bucket
// width, and exact in the sub-8 region.
func TestHistPercentileErrorBound(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	samples := randomSamples(r, 5000)
	var h Hist
	for _, v := range samples {
		h.Observe(v)
	}
	sorted := append([]uint64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, p := range []float64{0, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100} {
		exact := sorted[int(p/100*float64(len(sorted)-1))]
		got := h.Percentile(p)
		if got < exact {
			t.Errorf("p%g: histogram %d below exact %d (must report the bucket upper bound)", p, got, exact)
		}
		// Upper bound: at most one 12.5%-wide bucket above the exact value.
		if limit := exact + exact/8 + 1; got > limit {
			t.Errorf("p%g: histogram %d exceeds error bound %d (exact %d)", p, got, limit, exact)
		}
	}
}

// TestHistExactSmallValues pins the exact sub-8 region and the exact
// min/max/sum/count bookkeeping.
func TestHistExactSmallValues(t *testing.T) {
	var h Hist
	for v := uint64(0); v < 8; v++ {
		h.Observe(v)
	}
	if h.Count() != 8 || h.Sum() != 28 || h.Min() != 0 || h.Max() != 7 {
		t.Fatalf("count/sum/min/max = %d/%d/%d/%d, want 8/28/0/7", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	// Ranks 0..7 map to percentiles; pick p mid-rank so floating-point
	// truncation in the rank formula cannot straddle a boundary. Each must
	// return its exact value (p > 100 clamps to Max = 7).
	for v := uint64(0); v < 8; v++ {
		p := (float64(v) + 0.5) * 100 / 7
		if got := h.Percentile(p); got != v {
			t.Errorf("Percentile(%g) = %d, want exact %d", p, got, v)
		}
	}
}

// TestHistIndexBounds walks the value space and checks every value lands in
// a bucket whose bounds contain it, and that bucket indices stay in range.
func TestHistIndexBounds(t *testing.T) {
	values := []uint64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1023, 1024, 1 << 20, 1 << 40, histMaxValue}
	for _, v := range values {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", v, i)
		}
		lo, hi := histBucketBounds(i)
		if v < lo || v > hi {
			t.Errorf("value %d outside its bucket %d bounds [%d,%d]", v, i, lo, hi)
		}
	}
	// Clamp: values past the cap land in the top region without wrapping.
	var h Hist
	h.Observe(1 << 62)
	if h.Max() != histMaxValue {
		t.Errorf("over-cap observation: Max = %d, want clamp %d", h.Max(), histMaxValue)
	}
}

// TestObserveZeroAlloc pins the hot-path cost: recording into a histogram —
// and into a Memory's delivery path via Observe — allocates nothing, so
// dormant telemetry is free. TestEndToEndAllocsPinned at the repository
// root holds whole runs to their exact allocation counts.
func TestObserveZeroAlloc(t *testing.T) {
	var h Hist
	if n := testing.AllocsPerRun(100, func() { h.Observe(12345) }); n != 0 {
		t.Errorf("Hist.Observe allocates %v per op, want 0", n)
	}
	m := New()
	if n := testing.AllocsPerRun(100, func() { m.Observe(HistLinkRetries, 3) }); n != 0 {
		t.Errorf("Memory.Observe allocates %v per op, want 0", n)
	}
}

// TestMemoryHistogramMerge checks that merging Memories folds histograms:
// count, sum and extremes add up across the merged runs.
func TestMemoryHistogramMerge(t *testing.T) {
	a, b := New(), New()
	a.Observe(HistFailoverLatencyUs, 1000)
	a.Observe(HistFailoverLatencyUs, 2000)
	b.Observe(HistFailoverLatencyUs, 4000)
	a.Merge(b)
	h := a.Hist(HistFailoverLatencyUs)
	if h.Count() != 3 || h.Sum() != 7000 || h.Min() != 1000 || h.Max() != 4000 {
		t.Fatalf("merged failover hist count/sum/min/max = %d/%d/%d/%d",
			h.Count(), h.Sum(), h.Min(), h.Max())
	}
}
