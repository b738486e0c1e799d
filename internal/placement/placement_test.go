package placement

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wmsn/internal/geom"
)

func uniformField(n int, side float64, seed int64) ([]geom.Point, geom.Rect, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	region := geom.Square(side)
	return (geom.Uniform{}).Deploy(n, region, rng), region, rng
}

func TestRandomAndGridPlace(t *testing.T) {
	sensors, region, rng := uniformField(100, 200, 1)
	for _, s := range []Strategy{Random{}, Grid{}} {
		pts := s.Place(sensors, 5, region, rng)
		if len(pts) != 5 {
			t.Fatalf("%T placed %d", s, len(pts))
		}
		for _, p := range pts {
			if !region.Contains(p) {
				t.Fatalf("%T placed %v outside region", s, p)
			}
		}
	}
}

func TestKMeansFindsClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	region := geom.Square(300)
	centers := []geom.Point{{X: 50, Y: 50}, {X: 250, Y: 250}, {X: 50, Y: 250}}
	sensors := (geom.Clusters{K: 3, Sigma: 10, Center: centers}).Deploy(300, region, rng)
	placed := (KMeans{}).Place(sensors, 3, region, rng)
	if len(placed) != 3 {
		t.Fatalf("placed %d", len(placed))
	}
	// Each true center should have a placed gateway within ~3 sigma.
	for _, c := range centers {
		found := false
		for _, p := range placed {
			if p.Dist(c) < 30 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no gateway near cluster %v: %v", c, placed)
		}
	}
}

func TestKMeansDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	region := geom.Square(100)
	if got := (KMeans{}).Place(nil, 3, region, rng); got != nil {
		t.Fatal("k-means on empty sensors should be nil")
	}
	if got := (KMeans{}).Place([]geom.Point{{X: 1}}, 0, region, rng); got != nil {
		t.Fatal("k=0 should be nil")
	}
	// k > distinct sensors still returns k centers.
	got := (KMeans{}).Place([]geom.Point{{X: 1}, {X: 2}}, 4, region, rng)
	if len(got) != 4 {
		t.Fatalf("k=4 over 2 sensors placed %d", len(got))
	}
}

func TestGreedyCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	region := geom.Square(200)
	// Two dense blobs; one greedy site should land near each.
	sensors := (geom.Clusters{K: 2, Sigma: 8,
		Center: []geom.Point{{X: 40, Y: 40}, {X: 160, Y: 160}}}).Deploy(200, region, rng)
	g := GreedyCoverage{CoverRadius: 40}
	placed := g.Place(sensors, 2, region, rng)
	if len(placed) != 2 {
		t.Fatalf("placed %d", len(placed))
	}
	near := func(c geom.Point) bool {
		for _, p := range placed {
			if p.Dist(c) < 60 {
				return true
			}
		}
		return false
	}
	if !near(geom.Point{X: 40, Y: 40}) || !near(geom.Point{X: 160, Y: 160}) {
		t.Fatalf("greedy sites miss the blobs: %v", placed)
	}
	// Requesting more sites than candidates terminates.
	many := GreedyCoverage{Candidates: geom.PlaceGrid(4, region), CoverRadius: 40}
	if got := many.Place(sensors, 10, region, rng); len(got) != 4 {
		t.Fatalf("bounded by candidates: %d", len(got))
	}
}

func TestEvaluateHops(t *testing.T) {
	// Line of 6 sensors, gateway adjacent to one end.
	var sensors []geom.Point
	for i := 0; i < 6; i++ {
		sensors = append(sensors, geom.Point{X: float64(i) * 10})
	}
	ev := Evaluate(sensors, []geom.Point{{X: 60}}, 12)
	if ev.Unreachable != 0 {
		t.Fatalf("unreachable = %d", ev.Unreachable)
	}
	if ev.MaxHops != 6 || ev.TotalHops != 1+2+3+4+5+6 {
		t.Fatalf("hops: %+v", ev)
	}
	// Add a second gateway at the other end: max hops halves-ish.
	ev2 := Evaluate(sensors, []geom.Point{{X: 60}, {X: -10}}, 12)
	if ev2.AvgHops >= ev.AvgHops {
		t.Fatalf("second gateway did not cut hops: %v vs %v", ev2.AvgHops, ev.AvgHops)
	}
	// Unreachable counting.
	ev3 := Evaluate(sensors, []geom.Point{{X: 500}}, 12)
	if ev3.Unreachable != 6 || ev3.AvgHops != 0 {
		t.Fatalf("unreachable eval: %+v", ev3)
	}
}

// At 100,000 sensors the last sensor's ID used to be the first gateway's:
// the gateway took its place and the sensor scored 0 hops. Here 99,999
// sensors sit on a 100 m lattice, out of each other's 40 m range, and only
// the last one is within range of the gateway, 10 m away.
func TestEvaluateSensor100000IsNotAGateway(t *testing.T) {
	const n = 100_000
	sensors := make([]geom.Point, n)
	for i := range sensors[:n-1] {
		sensors[i] = geom.Point{X: float64(100 * (i % 316)), Y: float64(100 * (i / 316))}
	}
	sensors[n-1] = geom.Point{X: -510, Y: -500}
	ev := Evaluate(sensors, []geom.Point{{X: -500, Y: -500}}, 40)
	if ev.AvgHops != 1 || ev.MaxHops != 1 || ev.TotalHops != 1 || ev.Unreachable != n-1 {
		t.Fatalf("Evaluate = %+v, want the last sensor 1 hop away and the others unreachable", ev)
	}
}

func TestKmaxSaturation(t *testing.T) {
	// Lifetime improves fast, then flatlines at k=4.
	values := []float64{10, 18, 25, 29, 29.5, 29.8, 29.9}
	if got := Kmax(values, 0.05); got != 4 {
		t.Fatalf("Kmax = %d, want 4", got)
	}
	// Strictly improving series: Kmax = len.
	if got := Kmax([]float64{1, 2, 4, 8}, 0.05); got != 4 {
		t.Fatalf("Kmax strictly improving = %d", got)
	}
	if Kmax(nil, 0.1) != 0 {
		t.Fatal("empty Kmax")
	}
	// Zero entries are skipped rather than dividing by zero.
	if got := Kmax([]float64{0, 5, 5.01}, 0.05); got != 2 {
		t.Fatalf("Kmax with zero head = %d", got)
	}
}

func TestSelectPlacesDispersed(t *testing.T) {
	cands := geom.PlaceGrid(16, geom.Square(100))
	sensors, _, _ := uniformField(50, 100, 4)
	idx := SelectPlaces(cands, sensors, 4)
	if len(idx) != 4 {
		t.Fatalf("selected %d", len(idx))
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatal("indices not sorted/unique")
		}
	}
	// Dispersion: min pairwise distance among selected should beat a
	// clumped pick (same quadrant lattice step is 25; expect >= 50).
	minD := 1e9
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			if d := cands[idx[i]].Dist(cands[idx[j]]); d < minD {
				minD = d
			}
		}
	}
	if minD < 40 {
		t.Fatalf("selected places clumped: min pairwise %v", minD)
	}
	// k >= candidates returns all.
	if got := SelectPlaces(cands, sensors, 99); len(got) != 16 {
		t.Fatalf("all-candidates case: %d", len(got))
	}
}

func TestRotationSchedule(t *testing.T) {
	sched := RotationSchedule(5, 3, 5)
	if len(sched) != 5 {
		t.Fatalf("rounds = %d", len(sched))
	}
	visited := map[int]bool{}
	for _, row := range sched {
		if len(row) != 3 {
			t.Fatalf("row size %d", len(row))
		}
		seen := map[int]bool{}
		for _, p := range row {
			if p < 0 || p >= 5 {
				t.Fatalf("place %d out of range", p)
			}
			if seen[p] {
				t.Fatalf("duplicate place in round: %v", row)
			}
			seen[p] = true
			visited[p] = true
		}
	}
	if len(visited) != 5 {
		t.Fatalf("rotation visited %d of 5 places", len(visited))
	}
	if RotationSchedule(2, 3, 5) != nil {
		t.Fatal("m > places should be nil")
	}
	if RotationSchedule(5, 0, 5) != nil || RotationSchedule(5, 2, 0) != nil {
		t.Fatal("degenerate schedules should be nil")
	}
}

// Property: every strategy returns k in-region points for any field.
func TestQuickStrategiesValid(t *testing.T) {
	strategies := []Strategy{Random{}, Grid{}, KMeans{Iters: 8}, GreedyCoverage{CoverRadius: 30}}
	f := func(seed int64, kRaw, nRaw uint8) bool {
		k := int(kRaw%6) + 1
		n := int(nRaw%60) + k
		sensors, region, rng := uniformField(n, 150, seed)
		for _, s := range strategies {
			pts := s.Place(sensors, k, region, rng)
			if len(pts) > k {
				return false
			}
			for _, p := range pts {
				if !region.Contains(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSlidingScheduleChurnsTenancy(t *testing.T) {
	sched := SlidingSchedule(6, 3, 6)
	if len(sched) != 6 {
		t.Fatalf("rounds = %d", len(sched))
	}
	// Every place is visited and within a round places are distinct.
	visited := map[int]bool{}
	for _, row := range sched {
		seen := map[int]bool{}
		for _, p := range row {
			if seen[p] {
				t.Fatalf("duplicate place in round: %v", row)
			}
			seen[p] = true
			visited[p] = true
		}
	}
	if len(visited) != 6 {
		t.Fatalf("visited %d of 6 places", len(visited))
	}
	// The defining contrast with RotationSchedule: tenancy churns — some
	// place is occupied by different gateways in different rounds.
	tenant := map[int]int{}
	churn := false
	for _, row := range sched {
		for gw, p := range row {
			if prev, ok := tenant[p]; ok && prev != gw {
				churn = true
			}
			tenant[p] = gw
		}
	}
	if !churn {
		t.Fatal("sliding schedule never changed a place's tenant")
	}
	// RotationSchedule by contrast keeps tenancy stable.
	stable := RotationSchedule(6, 3, 6)
	tenant = map[int]int{}
	for _, row := range stable {
		for gw, p := range row {
			if prev, ok := tenant[p]; ok && prev != gw {
				t.Fatalf("RotationSchedule changed tenant of place %d", p)
			}
			tenant[p] = gw
		}
	}
	if SlidingSchedule(2, 3, 1) != nil {
		t.Fatal("degenerate sliding schedule should be nil")
	}
}
