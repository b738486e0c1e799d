package metrics

import (
	"encoding/json"
	"math"
	"testing"

	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

func TestLatencyPercentileEmptyAndClamped(t *testing.T) {
	m := New()
	// No samples: every percentile is the zero duration, including the
	// degenerate inputs that used to hit int(NaN) conversions.
	for _, p := range []float64{-10, 0, 50, 100, 250, math.NaN()} {
		if got := m.LatencyPercentile(p); got != 0 {
			t.Fatalf("LatencyPercentile(%v) on empty = %v, want 0", p, got)
		}
	}

	// Three samples recorded out of order: 30ms, 10ms, 20ms. The extremes
	// are exact; the median is the histogram's answer, at most 12.5% above
	// the true 20 ms.
	for i, d := range []sim.Duration{30, 10, 20} {
		at := sim.Time(100 * i)
		m.RecordGenerated(packet.NodeID(i+1), 1, at)
		m.RecordDelivered(packet.NodeID(i+1), 1, packet.NodeID(9), 2, at+d*sim.Millisecond)
	}
	cases := []struct {
		p        float64
		min, max sim.Duration
	}{
		{-5, 10 * sim.Millisecond, 10 * sim.Millisecond},         // below range clamps to min
		{0, 10 * sim.Millisecond, 10 * sim.Millisecond},          // p=0 is the minimum sample
		{50, 20 * sim.Millisecond, 22500 * sim.Microsecond},      // median, within one bucket
		{100, 30 * sim.Millisecond, 30 * sim.Millisecond},        // p=100 is the maximum sample
		{400, 30 * sim.Millisecond, 30 * sim.Millisecond},        // above range clamps to max
		{math.NaN(), 10 * sim.Millisecond, 10 * sim.Millisecond}, // NaN clamps to min, not a panic
	}
	for _, c := range cases {
		if got := m.LatencyPercentile(c.p); got < c.min || got > c.max {
			t.Fatalf("LatencyPercentile(%v) = %v, want in [%v, %v]", c.p, got, c.min, c.max)
		}
	}
}

func TestGatewayLoadImbalanceZeroDeliveries(t *testing.T) {
	m := New()
	if got := m.GatewayLoadImbalance(); got != 0 {
		t.Fatalf("imbalance with no gateways = %v, want 0", got)
	}
	// A gateway key with zero recorded deliveries must not divide by zero.
	m.perGateway[packet.NodeID(1)] = 0
	m.perGateway[packet.NodeID(2)] = 0
	if got := m.GatewayLoadImbalance(); got != 0 {
		t.Fatalf("imbalance with all-zero gateways = %v, want 0", got)
	}
	m.perGateway[packet.NodeID(2)] = 6
	if got := m.GatewayLoadImbalance(); got != 2 {
		t.Fatalf("imbalance = %v, want 2 (max 6 / mean 3)", got)
	}
}

func TestEmptyStatHelpers(t *testing.T) {
	m := New()
	if r := m.DeliveryRatio(); r != 1 {
		t.Fatalf("DeliveryRatio with nothing generated = %v, want 1", r)
	}
	if h := m.MeanHops(); h != 0 {
		t.Fatalf("MeanHops with no deliveries = %v, want 0", h)
	}
	if l := m.MeanLatency(); l != 0 {
		t.Fatalf("MeanLatency with no deliveries = %v, want 0", l)
	}
}

func TestDuplicateDelivery(t *testing.T) {
	m := New()
	m.RecordGenerated(1, 7, 0)
	m.RecordDelivered(1, 7, 100, 3, 5*sim.Millisecond)
	m.RecordDelivered(1, 7, 101, 4, 6*sim.Millisecond)
	if m.Delivered != 1 || m.Duplicates != 1 {
		t.Fatalf("delivered=%d duplicates=%d, want 1/1", m.Delivered, m.Duplicates)
	}
	if n := m.DeliveredFrom(1); n != 1 {
		t.Fatalf("DeliveredFrom = %d, want 1", n)
	}
}

func TestIncAddCountRoundTrip(t *testing.T) {
	m := New()
	for c := Counter(0); c < numCounters; c++ {
		m.Inc(c)
		m.Add(c, 2)
	}
	for c := Counter(0); c < numCounters; c++ {
		if got := m.Count(c); got != 3 {
			t.Fatalf("Count(%v) = %d, want 3", c, got)
		}
	}
	// Every counter has a distinct backing field and a distinct name.
	names := map[string]bool{}
	for _, n := range CounterNames() {
		if n == "" || names[n] {
			t.Fatalf("counter name %q missing or duplicated", n)
		}
		names[n] = true
	}
	// Out-of-range counters are ignored, not a panic.
	m.Inc(numCounters + 5)
	if got := m.Count(numCounters + 5); got != 0 {
		t.Fatalf("unknown counter Count = %d, want 0", got)
	}
}

func TestMergeDeterministic(t *testing.T) {
	mk := func(seqBase uint32) *Memory {
		m := New()
		m.Inc(DataSent)
		m.Add(RReqSent, 4)
		m.RecordGenerated(3, seqBase, 0)
		m.RecordDelivered(3, seqBase, 200, 2, 10*sim.Millisecond)
		return m
	}
	// Two runs that reuse the same (origin, seq) keys: the merge must keep
	// both deliveries (counts are summed, dedup maps are not merged).
	a, b := mk(1), mk(1)
	var total Memory
	total.Merge(a)
	total.Merge(b)
	if total.Delivered != 2 || total.Generated != 2 {
		t.Fatalf("merged delivered=%d generated=%d, want 2/2", total.Delivered, total.Generated)
	}
	if total.DataSent != 2 || total.RReqSent != 8 {
		t.Fatalf("merged DataSent=%d RReqSent=%d, want 2/8", total.DataSent, total.RReqSent)
	}
	if got := total.PerGateway()[packet.NodeID(200)]; got != 2 {
		t.Fatalf("merged per-gateway = %d, want 2", got)
	}
	if got := total.MeanHops(); got != 2 {
		t.Fatalf("merged MeanHops = %v, want 2", got)
	}
	total.Merge(nil) // no-op, not a panic

	// Aggregates folding the same inputs in the same order are identical.
	agg1, agg2 := NewAggregate(), NewAggregate()
	for _, m := range []*Memory{a, b} {
		agg1.Absorb(m)
		agg2.Absorb(m)
	}
	s1, _ := json.Marshal(agg1.Snapshot())
	s2, _ := json.Marshal(agg2.Snapshot())
	if string(s1) != string(s2) {
		t.Fatalf("aggregate snapshots differ:\n%s\n%s", s1, s2)
	}
	if agg1.Runs() != 2 {
		t.Fatalf("Runs = %d, want 2", agg1.Runs())
	}
}

func TestSnapshotJSON(t *testing.T) {
	m := New()
	m.RecordGenerated(5, 1, 0)
	m.RecordDelivered(5, 1, 300, 3, 20*sim.Millisecond)
	m.Inc(DataSent)
	s := m.Snapshot()
	if s.DeliveryRatio != 1 || s.MeanHops != 3 || s.MeanLatencyMS != 20 {
		t.Fatalf("snapshot stats wrong: %+v", s)
	}
	if s.Counters["data_sent"] != 1 {
		t.Fatalf("snapshot counters = %v", s.Counters)
	}
	if s.PerGateway["n300"] != 1 {
		t.Fatalf("snapshot per-gateway = %v", s.PerGateway)
	}
	if _, ok := s.Counters["rreq_sent"]; ok {
		t.Fatal("zero counters must be omitted from the snapshot")
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

// TestCounterNamesExhaustive pins the counter schema: every enum value must
// carry a real snake_case name (new counters can't ship unnamed) and every
// name must be unique, since Snapshot.Counters keys on it.
func TestCounterNamesExhaustive(t *testing.T) {
	seen := map[string]Counter{}
	for c := Counter(0); c < numCounters; c++ {
		name := c.String()
		if name == "" || name == "unknown_counter" {
			t.Errorf("counter %d has no name", c)
		}
		for _, r := range name {
			if !(r == '_' || r >= 'a' && r <= 'z' || r >= '0' && r <= '9') {
				t.Errorf("counter %d name %q is not snake_case", c, name)
				break
			}
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("counters %d and %d share the name %q", prev, c, name)
		}
		seen[name] = c
	}
	if got := len(CounterNames()); got != int(numCounters) {
		t.Fatalf("CounterNames() lists %d names, want %d", got, numCounters)
	}
}

// TestEveryCounterBackedAndSnapshotted proves Inc reaches a backing field for
// every enum value and that the value surfaces in Snapshot under the
// counter's name — no silently absorbed counters.
func TestEveryCounterBackedAndSnapshotted(t *testing.T) {
	m := New()
	for c := Counter(0); c < numCounters; c++ {
		if m.counterPtr(c) == nil {
			t.Fatalf("counter %s (%d) has no backing field", c, c)
		}
		m.Add(c, uint64(c)+1)
	}
	s := m.Snapshot()
	for c := Counter(0); c < numCounters; c++ {
		if got := s.Counters[c.String()]; got != uint64(c)+1 {
			t.Errorf("Snapshot.Counters[%q] = %d, want %d", c.String(), got, uint64(c)+1)
		}
		if got := m.Count(c); got != uint64(c)+1 {
			t.Errorf("Count(%s) = %d, want %d", c, got, uint64(c)+1)
		}
	}
	if len(s.Counters) != int(numCounters) {
		t.Fatalf("Snapshot carries %d counters, want %d", len(s.Counters), numCounters)
	}
}

// runMemory builds one synthetic "run" with per-gateway deliveries recorded
// in the given order — the map-insertion order a worker's schedule controls.
func runMemory(gws []packet.NodeID) *Memory {
	m := New()
	for i, gw := range gws {
		seq := uint32(i + 1)
		m.RecordGenerated(1, seq, sim.Time(i)*sim.Second)
		m.RecordDelivered(1, seq, gw, 2+i, sim.Time(i)*sim.Second+50*sim.Millisecond)
	}
	m.Inc(RReqSent)
	m.Add(RadioBytesOnAir, 512)
	return m
}

// TestSnapshotJSONDeterministic pins the export format: snapshots of runs
// whose map contents were inserted in different orders — exactly what
// different worker interleavings produce — must serialize byte-identically,
// and repeated marshals of one snapshot must never flap.
func TestSnapshotJSONDeterministic(t *testing.T) {
	gws := []packet.NodeID{1_000_000, 1_000_001, 1_000_002}
	rev := []packet.NodeID{1_000_002, 1_000_001, 1_000_000}
	a, err := json.Marshal(runMemory(gws).Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(runMemory(rev).Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Hop order differs (2,3,4 vs the same set), so MeanHops agrees; the
	// per-gateway map must serialize sorted either way.
	if string(a) != string(b) {
		t.Fatalf("insertion order leaked into Snapshot JSON:\n%s\nvs\n%s", a, b)
	}
	for i := 0; i < 5; i++ {
		c, _ := json.Marshal(runMemory(gws).Snapshot())
		if string(c) != string(a) {
			t.Fatalf("marshal %d differs:\n%s\nvs\n%s", i, c, a)
		}
	}
}

// TestMergeOrderIsDeterministic pins the aggregation contract: folding the
// same per-run Memories in submission order yields byte-identical snapshot
// JSON no matter how the runs' own maps were populated, and Merge sums every
// counter field (none skipped).
func TestMergeOrderIsDeterministic(t *testing.T) {
	build := func(gws []packet.NodeID) string {
		agg := NewAggregate()
		agg.Absorb(runMemory(gws))
		agg.Absorb(runMemory([]packet.NodeID{1_000_001}))
		buf, err := json.Marshal(agg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	a := build([]packet.NodeID{1_000_000, 1_000_001, 1_000_002})
	b := build([]packet.NodeID{1_000_002, 1_000_001, 1_000_000})
	if a != b {
		t.Fatalf("aggregate JSON depends on per-run map population order:\n%s\nvs\n%s", a, b)
	}
	// Merge must fold every counter: a Memory with all counters set merges
	// into an empty one without losing a single field.
	src := New()
	for c := Counter(0); c < numCounters; c++ {
		src.Add(c, uint64(c)+1)
	}
	dst := New()
	dst.Merge(src)
	for c := Counter(0); c < numCounters; c++ {
		if dst.Count(c) != uint64(c)+1 {
			t.Errorf("Merge dropped counter %s", c)
		}
	}
}
