package placement

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"wmsn/internal/geom"
)

// The Field evaluates a gateway set on the sensor graph alone, seeding the
// BFS with the sensors next to a gateway (network.UnitDisk.HopsFrom). These tests hold it to the graph
// with the gateways in it (sensorHops, the graph Evaluate used to build),
// sensor by sensor.

// requireFieldMatchesGraph fails t unless f's hop counts for gateways equal
// the full graph's, and its Eval equals one computed from those counts.
func requireFieldMatchesGraph(t *testing.T, what string, f *Field, sensors, gateways []geom.Point, rangeM float64) {
	t.Helper()
	want := sensorHops(sensors, gateways, rangeM)
	got := f.d.HopsFrom(gateways)
	if !slices.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sensor %d at %v is %d hops from the gateways on the Field, %d on the full graph",
					what, i, sensors[i], got[i], want[i])
			}
		}
		t.Fatalf("%s: %d hop counts on the Field, %d on the full graph", what, len(got), len(want))
	}
	if ev, wantEv := f.Evaluate(gateways), summarize(want); ev != wantEv {
		t.Fatalf("%s: Evaluate = %+v, the full graph gives %+v", what, ev, wantEv)
	}
}

// randomField returns n sensors uniform on a square sized for a mean degree
// of about degree at rangeM, and m gateways on it, each placed on a random
// sensor with probability onSensor.
func randomField(rng *rand.Rand, n, m int, degree, rangeM, onSensor float64) (sensors, gateways []geom.Point) {
	side := math.Sqrt(float64(n+1) * math.Pi * rangeM * rangeM / degree)
	region := geom.Square(side)
	sensors = (geom.Uniform{}).Deploy(n, region, rng)
	for range m {
		if n > 0 && rng.Float64() < onSensor {
			gateways = append(gateways, sensors[rng.Intn(n)])
			continue
		}
		gateways = append(gateways, region.RandomPoint(rng))
	}
	return sensors, gateways
}

func TestFieldMatchesGraph(t *testing.T) {
	const r = 40.0
	line := []geom.Point{{X: 0}, {X: 30}, {X: 60}, {X: 90}, {X: 90}}
	for _, c := range []struct {
		name     string
		sensors  []geom.Point
		gateways []geom.Point
		rangeM   float64
	}{
		{"no sensors", nil, []geom.Point{{X: 1}}, r},
		{"no sensors, no gateways", nil, nil, r},
		{"no gateways", line, nil, r},
		{"one sensor", line[:1], []geom.Point{{X: 39}}, r},
		{"gateway on a sensor", line, []geom.Point{{X: 30}}, r},
		{"gateways on two co-located sensors", line, []geom.Point{{X: 90}, {X: 90}}, r},
		{"gateway at exactly the range", line, []geom.Point{{X: -40}}, r},
		{"gateway at exactly the range, off the axis", line, []geom.Point{{X: 24, Y: -32}}, r},
		{"gateway just past the range", line, []geom.Point{{X: math.Nextafter(-40, -50)}}, r},
		{"gateway at a rounded diagonal range", line, []geom.Point{{X: -r / math.Sqrt2, Y: r / math.Sqrt2}}, r},
		{"all gateways out of range", line, []geom.Point{{X: -500}, {Y: 500}, {X: 1e6, Y: -1e6}}, r},
		{"range 0, gateway on a sensor", line, []geom.Point{{X: 90}}, 0},
		{"range 0, gateway off every sensor", line, []geom.Point{{X: 91}}, 0},
		{"negative range", line, []geom.Point{{X: 30}}, -1},
		{"NaN range", line, []geom.Point{{X: 30}}, math.NaN()},
		{"infinite range", line, []geom.Point{{X: 1e6}}, math.Inf(1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			requireFieldMatchesGraph(t, c.name, NewField(c.sensors, c.rangeM), c.sensors, c.gateways, c.rangeM)
		})
	}
}

// TestFieldMatchesGraphRandom evaluates several gateway sets on each of a
// series of random fields, 1 to 3,000 sensors, dense and patchy, with 0 to
// 7 gateways, some of them on a sensor.
func TestFieldMatchesGraphRandom(t *testing.T) {
	const r = 40.0
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 24; trial++ {
		n := 1 + rng.Intn(3000)
		if trial%2 == 0 {
			n = 1 + rng.Intn(60)
		}
		degree := 3 + 9*rng.Float64()
		sensors, _ := randomField(rng, n, 0, degree, r, 0)
		f := NewField(sensors, r)
		region := geom.Square(math.Sqrt(float64(n+1) * math.Pi * r * r / degree))
		for set := 0; set < 4; set++ {
			// Up to 7 gateways, a third of them on a sensor.
			gateways := make([]geom.Point, rng.Intn(8))
			for i := range gateways {
				gateways[i] = region.RandomPoint(rng)
				if rng.Intn(3) == 0 {
					gateways[i] = sensors[rng.Intn(n)]
				}
			}
			requireFieldMatchesGraph(t, fmt.Sprintf("trial %d (%d sensors), set %d", trial, n, set), f, sensors, gateways, r)
		}
	}
}

// TestFieldConcurrentEvaluate evaluates gateway sets on one Field from
// several goroutines at once; under -race it checks that Evaluate only
// reads the Field.
func TestFieldConcurrentEvaluate(t *testing.T) {
	const r = 40.0
	rng := rand.New(rand.NewSource(2))
	sensors, _ := randomField(rng, 2000, 0, 8, r, 0)
	region := geom.Square(math.Sqrt(2001 * math.Pi * r * r / 8))
	sets := make([][]geom.Point, 8)
	want := make([]Eval, len(sets))
	for i := range sets {
		sets[i] = geom.PlaceGrid(i+1, region)
		want[i] = summarize(sensorHops(sensors, sets[i], r))
	}
	f := NewField(sensors, r)
	got := make([]Eval, len(sets))
	var wg sync.WaitGroup
	for i := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = f.Evaluate(sets[i])
		}()
	}
	wg.Wait()
	for i := range sets {
		if got[i] != want[i] {
			t.Errorf("%d gateways: concurrent Evaluate = %+v, the full graph gives %+v", i+1, got[i], want[i])
		}
	}
}

// FuzzFieldMatchesGraph checks the Field against the full graph on fields
// and gateway sets drawn from a PRNG seeded by the input, at any range: the
// fuzzer picks the seed, the sizes, the share of gateways placed on a
// sensor and the range, NaN, zero, negative and infinite ranges included.
func FuzzFieldMatchesGraph(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(3), uint8(64), 40.0, 8.0)
	f.Add(int64(2), uint16(40), uint8(7), uint8(255), 0.0, 4.0)
	f.Add(int64(3), uint16(1), uint8(1), uint8(0), 40.0, 1.0)
	f.Add(int64(4), uint16(0), uint8(2), uint8(0), 40.0, 1.0)
	f.Add(int64(5), uint16(50), uint8(0), uint8(0), 40.0, 1.0)
	f.Add(int64(6), uint16(50), uint8(2), uint8(128), -3.0, 6.0)
	f.Add(int64(7), uint16(50), uint8(2), uint8(128), math.NaN(), 6.0)
	f.Add(int64(8), uint16(50), uint8(2), uint8(128), math.Inf(1), 6.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, m uint8, onSensor uint8, rangeM, degree float64) {
		n %= 1500
		m %= 9
		if !(degree >= 0.5 && degree <= 50) {
			degree = 6
		}
		// The field is sized for the degree at a range of at least 1, so
		// positions stay finite and moderate whatever the range.
		sizing := math.Abs(rangeM)
		if !(sizing >= 1 && sizing <= 1e4) {
			sizing = 40
		}
		rng := rand.New(rand.NewSource(seed))
		sensors, gateways := randomField(rng, int(n), int(m), degree, sizing, float64(onSensor)/255)
		requireFieldMatchesGraph(t, fmt.Sprintf("seed %d, range %v", seed, rangeM), NewField(sensors, rangeM), sensors, gateways, rangeM)
	})
}
