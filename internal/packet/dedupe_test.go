package packet

import (
	"math/rand"
	"runtime"
	"testing"
)

func TestDedupeCheck(t *testing.T) {
	d := NewDedupe(0)
	if d.Check(1, 1) {
		t.Fatal("first sighting reported as duplicate")
	}
	if !d.Check(1, 1) {
		t.Fatal("second sighting not reported as duplicate")
	}
	// Distinct origin or seq is a distinct key.
	if d.Check(2, 1) || d.Check(1, 2) {
		t.Fatal("distinct keys reported as duplicates")
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
}

func TestDedupeBoundedReset(t *testing.T) {
	d := NewDedupe(4)
	for seq := uint32(0); seq < 4; seq++ {
		d.Check(1, seq)
	}
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	// The 5th distinct key overflows the bound: the set resets and keeps
	// only the newcomer...
	if d.Check(1, 4) {
		t.Fatal("newcomer after reset reported as duplicate")
	}
	if d.Len() != 1 {
		t.Fatalf("Len after reset = %d, want 1", d.Len())
	}
	// ...so an old key is (by design) re-admitted once.
	if d.Check(1, 0) {
		t.Fatal("bounded reset should forget old keys")
	}
}

func TestDedupeUnbounded(t *testing.T) {
	d := NewDedupe(0)
	for seq := uint32(0); seq < 10000; seq++ {
		if d.Check(7, seq) {
			t.Fatalf("seq %d reported as duplicate", seq)
		}
	}
	if d.Len() != 10000 {
		t.Fatalf("Len = %d, want 10000 (no reset when unbounded)", d.Len())
	}
}

// TestDedupeOverflowSeqs drives the sparse-sequence fallback path and the
// boundary between the dense bitset and the overflow map.
func TestDedupeOverflowSeqs(t *testing.T) {
	d := NewDedupe(0)
	for _, seq := range []uint32{dedupeMaxDenseSeq - 1, dedupeMaxDenseSeq, dedupeMaxDenseSeq + 1, 1<<32 - 1} {
		if d.Check(5, seq) {
			t.Fatalf("seq %d: first sighting reported as duplicate", seq)
		}
		if !d.Check(5, seq) {
			t.Fatalf("seq %d: second sighting not reported as duplicate", seq)
		}
	}
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	// A bounded reset must clear overflow keys too.
	b := NewDedupe(2)
	b.Check(1, dedupeMaxDenseSeq)
	b.Check(1, dedupeMaxDenseSeq+1)
	if b.Check(1, dedupeMaxDenseSeq+2) {
		t.Fatal("newcomer after reset reported as duplicate")
	}
	if b.Len() != 1 {
		t.Fatalf("Len after reset = %d, want 1", b.Len())
	}
	if b.Check(1, dedupeMaxDenseSeq) {
		t.Fatal("bounded reset should forget overflow keys")
	}
}

// TestDedupeMatchesMap cross-checks the bitset implementation against the
// straightforward map semantics it replaced, over a randomized workload
// with duplicates, many origins, bounded resets, and sparse sequences.
func TestDedupeMatchesMap(t *testing.T) {
	for _, limit := range []int{0, 64} {
		rng := rand.New(rand.NewSource(int64(42 + limit)))
		d := NewDedupe(limit)
		m := newMapDedupe(limit)
		for i := 0; i < 20000; i++ {
			origin := NodeID(rng.Intn(30))
			seq := uint32(rng.Intn(200))
			if rng.Intn(50) == 0 {
				seq += dedupeMaxDenseSeq // exercise the overflow path
			}
			got, want := d.Check(origin, seq), m.Check(origin, seq)
			if got != want {
				t.Fatalf("limit=%d step %d: Check(%d,%d) = %v, map says %v", limit, i, origin, seq, got, want)
			}
			if d.Len() != m.Len() {
				t.Fatalf("limit=%d step %d: Len = %d, map says %d", limit, i, d.Len(), m.Len())
			}
		}
	}
}

// mapDedupe is the pre-optimization map-backed implementation, kept as the
// semantic reference and the benchmark baseline.
type mapDedupe struct {
	limit int
	seen  map[DedupeKey]struct{}
}

func newMapDedupe(limit int) *mapDedupe {
	return &mapDedupe{limit: limit, seen: make(map[DedupeKey]struct{})}
}

func (d *mapDedupe) Check(origin NodeID, seq uint32) bool {
	key := DedupeKey{Origin: origin, Seq: seq}
	if _, dup := d.seen[key]; dup {
		return true
	}
	if d.limit > 0 && len(d.seen) >= d.limit {
		d.seen = make(map[DedupeKey]struct{})
	}
	d.seen[key] = struct{}{}
	return false
}

func (d *mapDedupe) Len() int { return len(d.seen) }

// dedupeWorkload mimics flood forwarding: each of `nodes` origins floods
// sequence numbers in order and every packet is seen `dup` times (once per
// neighbor that relays it).
func dedupeWorkload(check func(NodeID, uint32) bool, nodes, seqs, dup int) int {
	dups := 0
	for seq := 0; seq < seqs; seq++ {
		for n := 0; n < nodes; n++ {
			for rep := 0; rep <= dup; rep++ {
				if check(NodeID(n), uint32(seq)) {
					dups++
				}
			}
		}
	}
	return dups
}

// The flood workload BenchmarkDedupe times and TestDedupeAllocsPinned pins.
const benchNodes, benchSeqs, benchDup = 30, 100, 5

// TestDedupeAllocsPinned pins the bitset's allocations on the benchmark's
// flood workload: the origin table is made at 16 slots and doubled twice,
// and each of the 30 origins' bitsets grows at both of its 64-sequence
// words, 3+60 in all. Any other count, higher or lower, is a change to say
// in CHANGES.md.
func TestDedupeAllocsPinned(t *testing.T) {
	const pin = 63
	got := testing.AllocsPerRun(8, func() {
		dedupeWorkload(NewDedupe(0).Check, benchNodes, benchSeqs, benchDup)
	})
	if got != pin {
		t.Errorf("the bitset allocates %v times on the flood workload, pin %d (%s)", got, pin, runtime.Version())
	}
}

func BenchmarkDedupe(b *testing.B) {
	b.Run("bitset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := NewDedupe(0)
			if got := dedupeWorkload(d.Check, benchNodes, benchSeqs, benchDup); got != benchNodes*benchSeqs*benchDup {
				b.Fatalf("dups = %d", got)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := newMapDedupe(0)
			if got := dedupeWorkload(d.Check, benchNodes, benchSeqs, benchDup); got != benchNodes*benchSeqs*benchDup {
				b.Fatalf("dups = %d", got)
			}
		}
	})
}
