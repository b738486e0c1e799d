package geom

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func randPoints(rng *rand.Rand, n int, side float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	return pts
}

// bruteWithin is the reference O(n) scan the index must match exactly.
func bruteWithin(pts []Point, center Point, r float64, except int) []int {
	var out []int
	for i, p := range pts {
		if i == except {
			continue
		}
		if p.Dist(center) <= r {
			out = append(out, i)
		}
	}
	return out
}

func TestGridIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(120)
		side := 10 + rng.Float64()*500
		cell := 1 + rng.Float64()*100
		pts := randPoints(rng, n, side)
		g := NewGridIndex[int](cell)
		for i, p := range pts {
			g.Insert(i, p)
		}
		// Churn: move a third of the points, remove and re-insert a few.
		for m := 0; m < n/3; m++ {
			i := rng.Intn(n)
			np := Point{X: rng.Float64() * side, Y: rng.Float64() * side}
			if !g.Move(i, pts[i], np) {
				t.Fatalf("trial %d: Move(%d) failed", trial, i)
			}
			pts[i] = np
		}
		for m := 0; m < n/10; m++ {
			i := rng.Intn(n)
			if !g.Remove(i, pts[i]) {
				t.Fatalf("trial %d: Remove(%d) failed", trial, i)
			}
			g.Insert(i, pts[i])
		}
		if g.Len() != n {
			t.Fatalf("trial %d: Len = %d, want %d", trial, g.Len(), n)
		}
		for q := 0; q < 10; q++ {
			center := Point{X: rng.Float64()*side*1.2 - side*0.1, Y: rng.Float64()*side*1.2 - side*0.1}
			r := rng.Float64() * side / 2
			except := rng.Intn(n)
			got := g.AppendWithin(nil, center, r, except)
			sort.Ints(got)
			want := bruteWithin(pts, center, r, except)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d query %d: grid %v != brute %v (r=%v center=%v)", trial, q, got, want, r, center)
			}
		}
	}
}

func TestGridIndexRemoveUnknown(t *testing.T) {
	g := NewGridIndex[int](10)
	g.Insert(1, Point{X: 5, Y: 5})
	if g.Remove(2, Point{X: 5, Y: 5}) {
		t.Fatal("removed a value never inserted")
	}
	if g.Move(2, Point{X: 5, Y: 5}, Point{X: 6, Y: 6}) {
		t.Fatal("moved a value never inserted")
	}
	if !g.Remove(1, Point{X: 5, Y: 5}) || g.Len() != 0 {
		t.Fatal("failed to remove the only value")
	}
}

// TestIndexPointsMatchesBruteForce holds IndexPoints' queries to the
// brute-force scan on fields of up to 150 points, empty ones included, with
// cells finer and coarser than the queries, a cell some 4e9 times smaller
// than the field, and infinite and overflowing radii.
func TestIndexPointsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(150) // zero-size fields must work too
		side := 10 + rng.Float64()*500
		cell := 0.5 + rng.Float64()*80
		if trial%10 == 9 {
			// A cell some 4e9 times smaller than the field: its table size
			// overflows int64 before coarsening.
			cell = side / 4e9
		}
		pts := randPoints(rng, n, side)
		g := IndexPoints(pts, cell)
		if g.Len() != n {
			t.Fatalf("trial %d: Len = %d, want %d", trial, g.Len(), n)
		}
		for q := 0; q < 10; q++ {
			center := Point{X: rng.Float64()*side*1.4 - side*0.2, Y: rng.Float64()*side*1.4 - side*0.2}
			r := rng.Float64() * side / 2
			switch q {
			case 8:
				r = math.Inf(1)
			case 9:
				r = 1e300 // r*r overflows: every point is within
			}
			except := int32(-1)
			if n > 0 && rng.Intn(2) == 0 {
				except = int32(rng.Intn(n))
			}
			if got, want := indexQuery(g, center, r, except), bruteWithin(pts, center, r, int(except)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d query %d: grid %v != brute %v", trial, q, got, want)
			}
		}
	}
}

// indexQuery returns the values within r of center, ascending, as ints.
func indexQuery(g *GridIndex[int32], center Point, r float64, except int32) []int {
	var got []int
	for _, v := range g.AppendWithin(nil, center, r, except) {
		got = append(got, int(v))
	}
	sort.Ints(got)
	return got
}

// Points exactly on cell boundaries and queries whose windows land on
// boundaries are the rounding-sensitive cases; exercise them explicitly.
func TestIndexPointsBoundaryExact(t *testing.T) {
	var pts []Point
	for x := 0; x <= 100; x += 10 {
		for y := 0; y <= 100; y += 10 {
			pts = append(pts, Point{X: float64(x), Y: float64(y)})
		}
	}
	g := IndexPoints(pts, 10)
	for _, r := range []float64{0, 10, 20, 30.000000000000004, 50} {
		for _, c := range []Point{{X: 50, Y: 50}, {X: 0, Y: 0}, {X: 100, Y: 100}, {X: 45, Y: 55}} {
			if got, want := indexQuery(g, c, r, -1), bruteWithin(pts, c, r, -1); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("r=%v center=%v: grid %d members != brute %d", r, c, len(got), len(want))
			}
		}
	}
}

func TestIndexPointsAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	measure := func(n int) float64 {
		pts := randPoints(rng, n, 300)
		return testing.AllocsPerRun(10, func() { IndexPoints(pts, 40) })
	}
	// The index, its table, the counts and the entries.
	if small, large := measure(50), measure(2000); small != 4 || large != 4 {
		t.Fatalf("IndexPoints makes %0.f allocations for 50 points and %0.f for 2,000, want 4", small, large)
	}
}

func BenchmarkGridIndexQuery(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			side := 20 * math.Sqrt(float64(n)) // density held constant
			pts := randPoints(rng, n, side)
			g := NewGridIndex[int](40)
			for i, p := range pts {
				g.Insert(i, p)
			}
			buf := make([]int, 0, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = g.AppendWithin(buf[:0], pts[i%n], 40, i%n)
			}
		})
	}
}
