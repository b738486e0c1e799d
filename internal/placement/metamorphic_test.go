package placement

import (
	"math"
	"math/rand"
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/network"
	"wmsn/internal/packet"
)

// sensorHops builds the graph Evaluate builds, sensors first and gateways
// after, and returns each sensor's hop count to its nearest gateway (-1
// when it reaches none).
func sensorHops(sensors, gateways []geom.Point, rangeM float64) []int {
	n := len(sensors) + len(gateways)
	ids := make([]packet.NodeID, n)
	pts := append(append(make([]geom.Point, 0, n), sensors...), gateways...)
	ranges := make([]float64, n)
	for i := range ids {
		ids[i], ranges[i] = packet.NodeID(i+1), rangeM
	}
	g := network.BuildSorted(ids, pts, ranges)
	return g.MultiSourceHops(ids[len(sensors):])[:len(sensors)]
}

// TestAddingGatewayNeverLengthensPaths is a metamorphic test of the claim
// behind Fig. 2 and E1: on random fields of a few hundred to a few thousand
// sensors at a 40 m range, dense and sparse, adding one gateway never
// raises a sensor's hop count to its nearest gateway, never cuts a
// reachable sensor off, and never raises Evaluate's Unreachable.
func TestAddingGatewayNeverLengthensPaths(t *testing.T) {
	const rangeM = 40
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(2800)
		// A mean degree between 4 (patchy, with unreachable sensors) and 12.
		degree := 4 + 8*rng.Float64()
		region := geom.Square(math.Sqrt(float64(n) * math.Pi * rangeM * rangeM / degree))
		sensors := (geom.Uniform{}).Deploy(n, region, rng)
		gateways := []geom.Point{region.RandomPoint(rng)}
		hops := sensorHops(sensors, gateways, rangeM)
		ev := Evaluate(sensors, gateways, rangeM)
		for step := 0; step < 6; step++ {
			gateways = append(gateways, region.RandomPoint(rng))
			more := sensorHops(sensors, gateways, rangeM)
			moreEv := Evaluate(sensors, gateways, rangeM)
			unreachable, total := 0, 0
			for i, h := range more {
				switch {
				case hops[i] >= 0 && h < 0:
					t.Fatalf("seed %d, %d gateways: sensor %d was %d hops away and is now unreachable", seed, len(gateways), i, hops[i])
				case hops[i] >= 0 && h > hops[i]:
					t.Fatalf("seed %d, %d gateways: sensor %d went from %d to %d hops", seed, len(gateways), i, hops[i], h)
				case h < 0:
					unreachable++
				default:
					total += h
				}
			}
			if moreEv.Unreachable > ev.Unreachable {
				t.Fatalf("seed %d, %d gateways: Unreachable rose from %d to %d", seed, len(gateways), ev.Unreachable, moreEv.Unreachable)
			}
			if moreEv.Unreachable != unreachable || moreEv.TotalHops != total {
				t.Fatalf("seed %d: Evaluate reads %d unreachable and %d total hops, the test's graph %d and %d",
					seed, moreEv.Unreachable, moreEv.TotalHops, unreachable, total)
			}
			hops, ev = more, moreEv
		}
		t.Logf("seed %d: %d sensors, mean degree %.1f, %d unreachable with %d gateways", seed, n, degree, ev.Unreachable, len(gateways))
	}
}
