package experiments

import "testing"

// The scale benchmarks snapshot the wall-clock and allocation cost of the
// 10k and 100k E1-style sweeps for BENCH_scale.json (make bench-scale).
// They are meant to run with -benchtime=1x: one iteration is one full
// sweep, so ns/op is the sweep's wall-clock and allocs/op is exactly
// reproducible for the bench-guard contract.

func benchScaleSweep(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScaleSweep(Opts{Workers: 4}, n, []int{1, 4, 16}, 901)
	}
}

func BenchmarkScaleSweep10k(b *testing.B)  { benchScaleSweep(b, 10_000) }
func BenchmarkScaleSweep100k(b *testing.B) { benchScaleSweep(b, 100_000) }

func benchScaleTraffic(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScaleTraffic(Opts{}, n, 901)
	}
}

func BenchmarkScaleTraffic10k(b *testing.B)  { benchScaleTraffic(b, 10_000) }
func BenchmarkScaleTraffic100k(b *testing.B) { benchScaleTraffic(b, 100_000) }
