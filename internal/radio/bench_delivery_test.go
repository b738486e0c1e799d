package radio

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// BenchmarkDelivery measures one broadcast plus the kernel drain of its
// deliveries (all same-tick arrivals in one pooled kernel event). The field
// grows at constant density so the neighborhood stays ~30 receivers while
// the grid keeps lookup cost independent of n.
func BenchmarkDelivery(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			k := sim.NewKernel(1)
			m := New(k, SensorRadio())
			side := 10 * math.Sqrt(float64(n)) // constant density
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < n; i++ {
				m.Attach(packet.NodeID(i+2),
					geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side},
					30, HandlerFunc(func(*packet.Packet) {}))
			}
			s := m.Attach(1, geom.Point{X: side / 2, Y: side / 2}, 30, nil)
			pkt := testPkt(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Transmit(s, pkt)
				k.RunAll()
			}
		})
	}
}
