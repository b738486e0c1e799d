package geom

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// A GridIndex kept current by Insert, Move and Remove (as devices churn) and
// one IndexPoints builds over the same live points (as placement and the
// graph builders do) must agree: for any live point set and any range
// query, both return exactly the points within r, the set a brute-force
// distance scan returns. The property test drives a randomized mutation
// sequence and cross-checks all three after every step; the fuzz target
// packs the same mutation language into a byte string. The language reaches the dense table's growth and coarsening:
// inserts and moves far outside the occupied box, at negative and very
// large coordinates up to ±math.MaxFloat64, removals of values not in the
// index, and non-finite positions, which must panic and leave the index
// as it was.

type gridModel struct {
	idx  *GridIndex[int32]
	pos  map[int32]Point // live points, the reference model
	gone map[int32]Point // removed points, at their last position
	next int32
}

func newGridModel(cell float64) *gridModel {
	return &gridModel{idx: NewGridIndex[int32](cell), pos: make(map[int32]Point), gone: make(map[int32]Point)}
}

func (m *gridModel) liveIDs() []int32 {
	ids := make([]int32, 0, len(m.pos))
	for id := range m.pos {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (m *gridModel) insert(p Point) {
	id := m.next
	m.next++
	m.idx.Insert(id, p)
	m.pos[id] = p
}

func (m *gridModel) move(id int32, to Point, t *testing.T) {
	from, live := m.pos[id]
	if m.idx.Move(id, from, to) != live {
		t.Fatalf("Move(%d) reported %v, model says live=%v", id, !live, live)
	}
	if live {
		m.pos[id] = to
	}
}

func (m *gridModel) remove(id int32, t *testing.T) {
	p, live := m.pos[id]
	if m.idx.Remove(id, p) != live {
		t.Fatalf("Remove(%d) reported %v, model says live=%v", id, !live, live)
	}
	delete(m.pos, id)
	m.gone[id] = p
}

// removeUnknown removes and moves values the index does not hold: one never
// inserted, and one removed before, at its last position. Both must report
// false and change nothing.
func (m *gridModel) removeUnknown(rng *rand.Rand, side float64, t *testing.T) {
	p := Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	if m.idx.Remove(m.next+1, p) || m.idx.Move(m.next+1, p, p) {
		t.Fatalf("removed or moved %d, a value never inserted", m.next+1)
	}
	for id, last := range m.gone {
		if m.idx.Remove(id, last) || m.idx.Move(id, last, p) {
			t.Fatalf("removed or moved %d a second time", id)
		}
		break
	}
}

// nonFinite checks that a NaN or infinite position panics on Insert and on
// Move, leaving the index as it was (check runs right after).
func (m *gridModel) nonFinite(rng *rand.Rand, t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
	p := Point{X: 1, Y: bad}
	if rng.Intn(2) == 0 {
		p = Point{X: bad, Y: 1}
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s at %v did not panic", what, p)
			}
		}()
		f()
	}
	mustPanic("Insert", func() { m.idx.Insert(m.next, p) })
	for id, from := range m.pos {
		mustPanic("Move", func() { m.idx.Move(id, from, p) })
		break
	}
}

// farPoint returns a point outside the occupied box: usually a few times
// side away, at either sign, and now and then at a coordinate up to
// ±math.MaxFloat64.
func farPoint(rng *rand.Rand, side float64) Point {
	coord := func() float64 {
		switch rng.Intn(16) {
		case 0:
			return math.MaxFloat64 * float64(1-2*rng.Intn(2))
		case 1, 2, 3:
			return (2*rng.Float64() - 1) * math.Pow(10, float64(rng.Intn(306)))
		}
		return (2*rng.Float64() - 1) * side * float64(2+rng.Intn(20))
	}
	return Point{X: coord(), Y: coord()}
}

// check compares the GridIndex, IndexPoints rebuilt over the live points
// and brute force, for a set of probes: random centers over the field, and
// live points with radii up to their own magnitude, an infinite radius, a
// NaN one and a negative one.
func (m *gridModel) check(t *testing.T, rng *rand.Rand, side float64) {
	t.Helper()
	ids := m.liveIDs()
	pts := make([]Point, len(ids))
	for i, id := range ids {
		pts[i] = m.pos[id]
	}
	batch := IndexPoints(pts, m.idx.CellSize())
	if m.idx.Len() != len(ids) || batch.Len() != len(ids) {
		t.Fatalf("Len = %d, IndexPoints' %d; the model has %d live points", m.idx.Len(), batch.Len(), len(ids))
	}
	for probe := 0; probe < 8; probe++ {
		center := Point{X: (rng.Float64()*1.2 - 0.1) * side, Y: (rng.Float64()*1.2 - 0.1) * side}
		r := rng.Float64() * side / 2
		if len(ids) > 0 && probe%2 == 1 {
			center = m.pos[ids[rng.Intn(len(ids))]]
			r *= math.Max(1, math.Abs(center.X)/side*rng.Float64())
		}
		switch probe {
		case 5:
			r = math.Inf(1)
		case 6:
			r = math.NaN()
		case 7:
			r = -r
		}
		// Brute force over the model; a negative radius holds nothing.
		want := map[int32]bool{}
		for _, id := range ids {
			if r >= 0 && m.pos[id].Dist2(center) <= r*r {
				want[id] = true
			}
		}
		got := m.idx.AppendWithin(nil, center, r, -1)
		if len(got) != len(want) {
			t.Fatalf("GridIndex query (%v, r=%g): got %d points, want %d", center, r, len(got), len(want))
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("GridIndex query (%v, r=%g): spurious point %d", center, r, id)
			}
		}
		got = batch.AppendWithin(got[:0], center, r, -1)
		if len(got) != len(want) {
			t.Fatalf("IndexPoints query (%v, r=%g): got %d points, want %d", center, r, len(got), len(want))
		}
		for _, i := range got {
			if !want[ids[i]] {
				t.Fatalf("IndexPoints query (%v, r=%g): spurious index %d (id %d)", center, r, i, ids[i])
			}
		}
	}
}

func (m *gridModel) step(op byte, rng *rand.Rand, side float64, t *testing.T) {
	randPoint := func() Point {
		return Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	pick := func() (int32, bool) {
		ids := m.liveIDs()
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	switch op % 8 {
	case 0, 1: // bias toward growth so queries have substance
		m.insert(randPoint())
	case 2:
		if id, ok := pick(); ok {
			m.move(id, randPoint(), t)
		}
	case 3:
		if id, ok := pick(); ok {
			m.remove(id, t)
		}
	case 4:
		m.insert(farPoint(rng, side))
	case 5:
		if id, ok := pick(); ok {
			m.move(id, farPoint(rng, side), t)
		}
	case 6:
		m.removeUnknown(rng, side, t)
	case 7:
		m.nonFinite(rng, t)
	}
}

func TestGridModelMatchesBruteForce(t *testing.T) {
	const side = 100.0
	for _, cell := range []float64{3, 25, 250} { // finer, comparable and coarser than the field
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := newGridModel(cell)
			for i := 0; i < 400; i++ {
				// Mostly moves and inserts in the field; one step in four
				// goes far, removes an unknown value or tries a non-finite
				// position.
				op := byte(rng.Intn(4))
				if rng.Intn(4) == 0 {
					op = byte(4 + rng.Intn(4))
				}
				m.step(op, rng, side, t)
				m.check(t, rng, side)
			}
			// Drain everything: Remove must hold up all the way to empty.
			for _, id := range m.liveIDs() {
				m.remove(id, t)
				m.check(t, rng, side)
			}
		}
	}
}

// TestGridIndexSweptField inserts a lattice row by row, each row growing the
// box, then queries it: the table must cover every row and stay O(n).
func TestGridIndexSweptField(t *testing.T) {
	g := NewGridIndex[int](10)
	const rows, cols = 60, 60
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			g.Insert(y*cols+x, Point{X: float64(x * 10), Y: float64(y * 10)})
		}
	}
	if g.Len() != rows*cols {
		t.Fatalf("Len = %d, want %d", g.Len(), rows*cols)
	}
	if cells := len(g.cells); cells > 4*g.Len()+64 {
		t.Fatalf("%d cells for %d values", cells, g.Len())
	}
	got := g.AppendWithin(nil, Point{X: 300, Y: 300}, 10, -1)
	sort.Ints(got)
	if want := []int{29*cols + 30, 30*cols + 29, 30*cols + 30, 30*cols + 31, 31*cols + 30}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("query at the lattice's center = %v, want %v", got, want)
	}
}

// FuzzGridIndexMatchesBruteForce drives the same model from fuzz-chosen
// operation bytes; positions and probes come from a PRNG seeded by the
// input so every byte string is a reproducible scenario.
func FuzzGridIndexMatchesBruteForce(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 0, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 2, 2, 2, 2, 3, 3, 3, 3})
	f.Add([]byte{0, 4, 0, 4, 5, 5, 1, 3, 6, 7, 2, 4, 4, 3, 3, 3})
	f.Add([]byte{4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 3, 3, 3, 3, 3, 3, 3, 3, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		const side = 50.0
		var seed int64
		for _, b := range ops {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		m := newGridModel(10)
		for _, op := range ops {
			m.step(op, rng, side, t)
			m.check(t, rng, side)
		}
	})
}
