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

// bruteWithin is the reference O(n) scan both indexes must match exactly.
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

func TestStaticGridMatchesBruteForce(t *testing.T) {
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
		g := NewStaticGrid(pts, cell)
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
			raw := g.AppendWithin(nil, center, r, except)
			got := make([]int, len(raw))
			for i, v := range raw {
				got[i] = int(v)
			}
			sort.Ints(got)
			want := bruteWithin(pts, center, r, int(except))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d query %d: grid %v != brute %v", trial, q, got, want)
			}
			// Distances must agree with the membership set as a multiset.
			d2 := g.AppendDist2Within(nil, center, r, except)
			if len(d2) != len(want) {
				t.Fatalf("trial %d query %d: %d distances for %d members", trial, q, len(d2), len(want))
			}
			sort.Float64s(d2)
			wd := make([]float64, 0, len(want))
			for _, i := range want {
				wd = append(wd, pts[i].Dist2(center))
			}
			sort.Float64s(wd)
			for i := range d2 {
				if d2[i] != wd[i] {
					t.Fatalf("trial %d query %d: distance %v != %v", trial, q, d2[i], wd[i])
				}
			}
		}
	}
}

// Points exactly on cell boundaries and queries whose windows land on
// boundaries are the rounding-sensitive cases; exercise them explicitly.
func TestStaticGridBoundaryExact(t *testing.T) {
	var pts []Point
	for x := 0; x <= 100; x += 10 {
		for y := 0; y <= 100; y += 10 {
			pts = append(pts, Point{X: float64(x), Y: float64(y)})
		}
	}
	g := NewStaticGrid(pts, 10)
	for _, r := range []float64{0, 10, 20, 30.000000000000004, 50} {
		for _, c := range []Point{{X: 50, Y: 50}, {X: 0, Y: 0}, {X: 100, Y: 100}, {X: 45, Y: 55}} {
			raw := g.AppendWithin(nil, c, r, -1)
			got := make([]int, len(raw))
			for i, v := range raw {
				got[i] = int(v)
			}
			sort.Ints(got)
			want := bruteWithin(pts, c, r, -1)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("r=%v center=%v: grid %d members != brute %d", r, c, len(got), len(want))
			}
		}
	}
}

func TestStaticGridAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	measure := func(n int) float64 {
		pts := randPoints(rng, n, 300)
		return testing.AllocsPerRun(10, func() { NewStaticGrid(pts, 40) })
	}
	small, large := measure(50), measure(2000)
	if large > small {
		t.Fatalf("StaticGrid construction allocations grow with n: %0.f -> %0.f", small, large)
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
