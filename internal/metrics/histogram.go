package metrics

import (
	"math"
	"math/bits"

	"wmsn/internal/sim"
)

// HistID names one of the fixed set of histograms carried by every Memory.
// The set is closed (an array, not a map) so recording is a bounds-checked
// array index on the hot path and merged snapshots stay allocation-free.
type HistID uint8

const (
	// HistDeliveryLatencyUs tracks end-to-end delivery latency in
	// microseconds (sim.Duration ticks), one sample per fresh delivery.
	HistDeliveryLatencyUs HistID = iota
	// HistFailoverLatencyUs tracks time from route loss to reroute in
	// microseconds, one sample per SPR/MLR failover event.
	HistFailoverLatencyUs
	// HistLinkRetries tracks ARQ retransmissions per settled frame (0 for
	// first-try ACKs, cfg.Retries for exhausted frames).
	HistLinkRetries
	// HistForwardQueueDepth tracks the ARQ forwarding-queue depth observed
	// after each enqueue.
	HistForwardQueueDepth

	numHists
)

var histNames = [numHists]string{
	HistDeliveryLatencyUs: "delivery_latency_us",
	HistFailoverLatencyUs: "failover_latency_us",
	HistLinkRetries:       "link_retries",
	HistForwardQueueDepth: "forward_queue_depth",
}

// Name returns the stable snake_case identifier used in JSON snapshots and
// Prometheus metric names.
func (h HistID) Name() string {
	if h < numHists {
		return histNames[h]
	}
	return "unknown"
}

// NumHists reports how many histogram IDs exist; IDs are 0..NumHists()-1.
func NumHists() int { return int(numHists) }

// Log-linear bucket layout: 8 sub-buckets per octave. Values below 8 get
// their own exact bucket (index == value); a value v >= 8 lands in
// index e*8 + m where e = bits.Len64(v)-4 and m = v>>e (m in [8,16)), so the
// bucket [m<<e, (m+1)<<e - 1] bounds v within a relative width of 1/8.
// e ranges 0..60, giving a max index of 60*8+15 = 495.
const (
	histBuckets = 496
	// histMaxValue caps observed values so the min/max encoding (v+1, with
	// 0 meaning "unset") cannot wrap. Real observations are microseconds,
	// retries or queue depths — nowhere near 2^60.
	histMaxValue = uint64(1)<<60 - 1
)

// histIndex maps a value to its bucket. Exact for v < 8.
func histIndex(v uint64) int {
	if v < 8 {
		return int(v)
	}
	e := bits.Len64(v) - 4
	return e*8 + int(v>>uint(e))
}

// histBucketBounds returns the inclusive [lo, hi] range of bucket i.
func histBucketBounds(i int) (lo, hi uint64) {
	if i < 8 {
		return uint64(i), uint64(i)
	}
	e := uint(i/8 - 1)
	m := uint64(i%8 + 8)
	return m << e, (m+1)<<e - 1
}

// Hist is a deterministic, fixed-memory, mergeable histogram. The zero value
// is ready to use. Observe is exact for values below 8 and within a 12.5%
// relative bucket width above; Sum, Count, Min and Max are always exact.
// Merge is element-wise addition, so it is commutative and associative:
// folding per-run histograms in any order (parallel workers) yields
// bit-identical state.
type Hist struct {
	counts [histBuckets]uint64
	sum    uint64
	count  uint64
	// min/max are stored as value+1 so the zero value means "no samples";
	// Observe clamps to histMaxValue, making the +1 safe.
	minEnc uint64
	maxEnc uint64
}

// Observe records one sample. Not safe for concurrent use.
func (h *Hist) Observe(v uint64) {
	if v > histMaxValue {
		v = histMaxValue
	}
	h.counts[histIndex(v)]++
	h.sum += v
	h.count++
	if h.minEnc == 0 || v+1 < h.minEnc {
		h.minEnc = v + 1
	}
	if v+1 > h.maxEnc {
		h.maxEnc = v + 1
	}
}

// Merge folds o into h by element-wise addition. Order-independent.
func (h *Hist) Merge(o *Hist) {
	if o.count == 0 {
		return
	}
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.sum += o.sum
	h.count += o.count
	if h.minEnc == 0 || (o.minEnc != 0 && o.minEnc < h.minEnc) {
		h.minEnc = o.minEnc
	}
	if o.maxEnc > h.maxEnc {
		h.maxEnc = o.maxEnc
	}
}

// Count returns the number of samples observed.
func (h *Hist) Count() uint64 { return h.count }

// Sum returns the exact sum of all observed values (pre-clamp values above
// histMaxValue excepted).
func (h *Hist) Sum() uint64 { return h.sum }

// Min returns the exact smallest sample, or 0 when empty.
func (h *Hist) Min() uint64 {
	if h.minEnc == 0 {
		return 0
	}
	return h.minEnc - 1
}

// Max returns the exact largest sample, or 0 when empty.
func (h *Hist) Max() uint64 {
	if h.maxEnc == 0 {
		return 0
	}
	return h.maxEnc - 1
}

// Percentile returns the p-th percentile (p in [0,100], clamped; NaN maps to
// 0). The rank is floor(p/100 * (count-1)). The returned value is the upper
// bound of the bucket holding that rank, clamped to [Min, Max], so it is
// exact for values below 8 and overestimates by at most 12.5% otherwise.
func (h *Hist) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if math.IsNaN(p) || p <= 0 {
		return h.Min()
	}
	if p >= 100 {
		return h.Max()
	}
	rank := uint64(p / 100 * float64(h.count-1))
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum > rank {
			_, hi := histBucketBounds(i)
			if hi > h.Max() {
				hi = h.Max()
			}
			if hi < h.Min() {
				hi = h.Min()
			}
			return hi
		}
	}
	return h.Max()
}

// HistBucket is one non-empty bucket in a snapshot; Lo/Hi are the inclusive
// value bounds, N the sample count.
type HistBucket struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
	N  uint64 `json:"n"`
}

// HistSnapshot is the JSON-friendly view of a histogram. Buckets lists only
// non-empty buckets in ascending order, so equal snapshots imply bit-equal
// histogram state.
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Min     uint64       `json:"min"`
	Max     uint64       `json:"max"`
	P50     uint64       `json:"p50"`
	P95     uint64       `json:"p95"`
	P99     uint64       `json:"p99"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot renders the histogram for export. Returns a zero snapshot when
// empty.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count,
		Sum:   h.sum,
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Percentile(50),
		P95:   h.Percentile(95),
		P99:   h.Percentile(99),
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := histBucketBounds(i)
		s.Buckets = append(s.Buckets, HistBucket{Lo: lo, Hi: hi, N: c})
	}
	return s
}

// PercentileDuration is Percentile for histograms holding sim.Duration
// microsecond ticks.
func (h *Hist) PercentileDuration(p float64) sim.Duration {
	return sim.Duration(h.Percentile(p))
}
