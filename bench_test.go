package wmsn_test

// Benchmark harness: one testing.B benchmark per reproduced table/figure
// (the E1..E15 suite of DESIGN.md) plus ablation and end-to-end benches.
// Each benchmark iteration regenerates its experiment at reduced (Quick)
// scale so `go test -bench=.` terminates in reasonable time; run
// cmd/wmsnbench for the full-scale tables recorded in EXPERIMENTS.md.

import (
	"testing"

	"wmsn"
	"wmsn/internal/placement"
)

func benchOpts() wmsn.ExperimentOpts { return wmsn.ExperimentOpts{Quick: true, Seeds: 1} }

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for _, e := range wmsn.AllExperiments() {
		if e.ID != id {
			continue
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tables, err := e.Run(benchOpts())
			if err != nil {
				b.Fatalf("%s: %v", id, err)
			}
			if len(tables) == 0 {
				b.Fatalf("%s produced no tables", id)
			}
		}
		return
	}
	b.Fatalf("unknown experiment %s", id)
}

// BenchmarkFig2HopReduction regenerates E1 (the paper's Fig. 2 plus the
// gateway-count sweep).
func BenchmarkFig2HopReduction(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkTable1MLRRounds regenerates E2 (the paper's Table 1).
func BenchmarkTable1MLRRounds(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkScalability regenerates E3 (hops/latency vs field size).
func BenchmarkScalability(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkLifetime regenerates E4 (lifetime and energy balance).
func BenchmarkLifetime(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkGatewayNumber regenerates E5 (lifetime vs k, Kmax).
func BenchmarkGatewayNumber(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkRobustness regenerates E6 (delivery under node failures).
func BenchmarkRobustness(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkSinkFailure regenerates E7 (single point of failure).
func BenchmarkSinkFailure(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkLoadBalance regenerates E8 (hotspot load across gateways).
func BenchmarkLoadBalance(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkAttackMatrix regenerates E9 (8 attacks x MLR/SecMLR).
func BenchmarkAttackMatrix(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkSecurityOverhead regenerates E10 (SecMLR cost vs MLR).
func BenchmarkSecurityOverhead(b *testing.B) { runExperiment(b, "E10") }

// BenchmarkTopologyControl regenerates E11 (sleep/power control).
func BenchmarkTopologyControl(b *testing.B) { runExperiment(b, "E11") }

// BenchmarkSPRConvergence regenerates E12 (optimality and overhead).
func BenchmarkSPRConvergence(b *testing.B) { runExperiment(b, "E12") }

// BenchmarkReliability regenerates E13 (recovery under injected faults).
func BenchmarkReliability(b *testing.B) { runExperiment(b, "E13") }

// The end-to-end workloads. Iteration i of a benchmark runs seed i+1, and
// the allocation pins (alloc_test.go) run seeds 1-8 of the same configs.

// sprWorkload is the standard SPR workload.
func sprWorkload(seed int64) wmsn.Config {
	return wmsn.Config{
		Seed: seed, Protocol: wmsn.SPR,
		NumSensors: 80, Side: 180, SensorRange: 40, NumGateways: 3,
		ReportInterval: 10 * wmsn.Second, RunFor: 60 * wmsn.Second,
		SensorBattery: 1e6,
	}
}

// secMLRWorkload is the secured stack with moving gateways.
func secMLRWorkload(seed int64) wmsn.Config {
	return wmsn.Config{
		Seed: seed, Protocol: wmsn.SecMLR,
		NumSensors: 60, Side: 160, SensorRange: 40, NumGateways: 2,
		RoundLen: 20 * wmsn.Second, ReportInterval: 10 * wmsn.Second,
		RunFor: 60 * wmsn.Second, SensorBattery: 1e6,
	}
}

// arqWorkload is the SPR workload with link ARQ armed (4 retries) at the
// given per-link loss rate.
func arqWorkload(loss float64) func(seed int64) wmsn.Config {
	return func(seed int64) wmsn.Config {
		cfg := sprWorkload(seed)
		cfg.LossRate = loss
		params := wmsn.DefaultParams()
		params.LinkRetries = 4
		cfg.Params = &params
		return cfg
	}
}

// BenchmarkEndToEndSPR measures raw simulator throughput on the standard
// SPR workload (events include every radio delivery).
func BenchmarkEndToEndSPR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := mustRun(b, sprWorkload(int64(i+1)))
		if res.Metrics.Delivered == 0 {
			b.Fatal("nothing delivered")
		}
	}
}

// BenchmarkEndToEndSecMLR measures the secured stack end to end, crypto
// included.
func BenchmarkEndToEndSecMLR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := mustRun(b, secMLRWorkload(int64(i+1)))
		if res.Metrics.Delivered == 0 {
			b.Fatal("nothing delivered")
		}
	}
}

// BenchmarkEndToEndARQ arms link ARQ on the BenchmarkEndToEndSPR workload:
// "on" runs the retransmit machine on the same clean medium (overhead = ACK
// traffic plus queue bookkeeping), and "on-lossy" shows what the
// reliability buys at 20% per-link loss, with delivery reported alongside
// the timing. Dormant ARQ is BenchmarkEndToEndSPR itself.
func BenchmarkEndToEndARQ(b *testing.B) {
	for _, v := range []struct {
		name string
		cfg  func(seed int64) wmsn.Config
	}{{"on", arqWorkload(0)}, {"on-lossy", arqWorkload(0.2)}} {
		b.Run(v.name, func(b *testing.B) {
			var delivery float64
			var retries uint64
			for i := 0; i < b.N; i++ {
				res := mustRun(b, v.cfg(int64(i+1)))
				if res.Metrics.Delivered == 0 {
					b.Fatal("nothing delivered")
				}
				delivery += res.Metrics.DeliveryRatio()
				retries += res.Metrics.LinkRetries
			}
			b.ReportMetric(delivery/float64(b.N), "delivery")
			b.ReportMetric(float64(retries)/float64(b.N), "link-retries/run")
		})
	}
}

// BenchmarkAblationShortcut quantifies the Property-1 shortcut (cached-route
// nodes answering queries): the same SPR workload with and without it. The
// tradeoff is real in both directions — the shortcut suppresses re-flooding
// but multiplies responses (the answer implosion documented in DESIGN.md),
// so its net control cost depends on scale; its reliable win is discovery
// latency (answers come from nearby caches instead of distant gateways).
func BenchmarkAblationShortcut(b *testing.B) {
	for _, variant := range []struct {
		name string
		off  bool
	}{{"shortcut-on", false}, {"shortcut-off", true}} {
		b.Run(variant.name, func(b *testing.B) {
			var ctrl uint64
			var lat float64
			for i := 0; i < b.N; i++ {
				res := mustRun(b, wmsn.Config{
					Seed: int64(i + 1), Protocol: wmsn.SPR,
					NumSensors: 80, Side: 180, SensorRange: 40, NumGateways: 2,
					ReportInterval: 10 * wmsn.Second, RunFor: 60 * wmsn.Second,
					SensorBattery: 1e6, NoShortcutAnswers: variant.off,
				})
				ctrl += res.Metrics.ControlPackets()
				lat += res.Metrics.MeanLatency().Millis()
			}
			b.ReportMetric(float64(ctrl)/float64(b.N), "ctrl-pkts/run")
			b.ReportMetric(lat/float64(b.N), "latency-ms")
		})
	}
}

// BenchmarkAblationGatewayWait quantifies SecMLR's gateway-side path
// collection window (§6.2.2). On a clean deterministic medium the first
// RREQ copy to arrive is already near-optimal and the window is useless;
// it earns its keep on lossy, collision-prone channels with flood jitter,
// where the first copy may be a detour — so that is the medium this
// ablation runs on.
func BenchmarkAblationGatewayWait(b *testing.B) {
	for _, wait := range []wmsn.Duration{0, 60 * wmsn.Millisecond, 200 * wmsn.Millisecond} {
		wait := wait
		b.Run(wait.String(), func(b *testing.B) {
			var hops, delivery float64
			for i := 0; i < b.N; i++ {
				params := wmsn.DefaultParams()
				params.GatewayWait = wait
				params.FloodJitter = 20 * wmsn.Millisecond
				res := mustRun(b, wmsn.Config{
					Seed: int64(i + 1), Protocol: wmsn.SecMLR,
					NumSensors: 60, Side: 160, SensorRange: 40, NumGateways: 2,
					RoundLen: 30 * wmsn.Second, ReportInterval: 10 * wmsn.Second,
					RunFor: 40 * wmsn.Second, SensorBattery: 1e6,
					LossRate: 0.1, Collisions: true,
					Params: &params,
				})
				hops += res.Metrics.MeanHops()
				delivery += res.Metrics.DeliveryRatio()
			}
			b.ReportMetric(hops/float64(b.N), "mean-hops")
			b.ReportMetric(delivery/float64(b.N), "delivery")
		})
	}
}

// BenchmarkAblationSchedule contrasts the two MLR rotation schedules under
// SecMLR: the tenant-stable partitioned rotation (default) against the
// naive sliding rotation that changes every place's tenant each round and
// forces constant route re-verification.
func BenchmarkAblationSchedule(b *testing.B) {
	for _, v := range []struct {
		name    string
		sliding bool
	}{{"partitioned", false}, {"sliding", true}} {
		b.Run(v.name, func(b *testing.B) {
			var ctrl, delivered uint64
			for i := 0; i < b.N; i++ {
				cfg := wmsn.Config{
					Seed: int64(i + 1), Protocol: wmsn.SecMLR,
					NumSensors: 60, Side: 160, SensorRange: 40, NumGateways: 2,
					RoundLen: 20 * wmsn.Second, Rounds: 8,
					ReportInterval: 10 * wmsn.Second, RunFor: 120 * wmsn.Second,
					SensorBattery: 1e6,
				}
				if v.sliding {
					cfg.Schedule = placement.SlidingSchedule(4, 2, 8)
				}
				res := mustRun(b, cfg)
				ctrl += res.Metrics.ControlPackets()
				delivered += res.Metrics.Delivered
			}
			b.ReportMetric(float64(ctrl)/float64(b.N), "ctrl-pkts/run")
			b.ReportMetric(float64(delivered)/float64(b.N), "delivered/run")
		})
	}
}
