// Package experiments implements the reproduction suite indexed in
// DESIGN.md: one function per experiment (E1..E15), each returning the
// table(s) the paper's corresponding figure/table/claim implies. The
// cmd/wmsnbench binary prints them all; bench_test.go wraps each in a
// testing.B benchmark.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"wmsn/internal/metrics"
	"wmsn/internal/obs"
	"wmsn/internal/runner"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

// Opts scales an experiment.
type Opts struct {
	// Quick shrinks fields and horizons so the whole suite runs in
	// seconds (used by tests); the default full scale is what
	// EXPERIMENTS.md records.
	Quick bool
	// Seeds is the number of independent repetitions averaged; 0 picks a
	// per-experiment default.
	Seeds int
	// Workers bounds the fan-out of independent runs (seed × sweep point)
	// across CPUs: 0 selects one worker per CPU (the default for full-scale
	// runs), 1 forces strictly sequential execution. Output is identical
	// either way — results are merged by submission index, not completion
	// order.
	Workers int
	// Metrics, when non-nil, absorbs the merged end-to-end metrics of
	// every scenario executed through the shared harness path (runConfigs),
	// folded in submission order so the aggregate is identical at any
	// worker count. Sweep jobs that drive scenarios inside custom per-job
	// code (e.g. mid-run failure injection) are not captured.
	Metrics *metrics.Aggregate
	// Trace, when non-nil, spools one JSONL event trace per harness run.
	// The same caveat as Metrics applies: only runs through runConfigs are
	// traced. Runs keep their events in memory (one obs.Capture each) and
	// files are written in submission order after the pool drains, so the
	// spool contents are byte-identical at any worker count.
	Trace *TraceDir
	// Cells, when non-nil, collects labeled per-cell aggregates from the
	// experiments that sweep a parameter grid (E13/E14/E15): one Cell per
	// (sweep point), folding that point's seeds in submission order. This
	// is how distributional metrics — failover-latency and link-retry
	// percentiles per (attack × fraction × protocol) campaign — reach
	// -metrics-json without touching the golden text tables.
	Cells *CellSink
}

// Cell is one labeled sweep point's aggregate: the experiment ID, the sweep
// coordinates as a flat string map (keys sorted by encoding/json, so output
// is deterministic), and the merged metrics snapshot including histogram
// percentiles.
type Cell struct {
	Experiment string            `json:"experiment"`
	Labels     map[string]string `json:"labels"`
	Runs       int               `json:"runs"`
	Metrics    metrics.Snapshot  `json:"metrics"`
}

// CellSink accumulates cells in the order experiments emit them. Experiments
// append on the harness goroutine after their runs complete, so no locking.
type CellSink struct {
	Cells []Cell
}

// add folds the given results into one labeled cell.
func (c *CellSink) add(experiment string, labels map[string]string, results ...scenario.Result) {
	if c == nil {
		return
	}
	agg := metrics.NewAggregate()
	for i := range results {
		agg.Absorb(results[i].Metrics)
	}
	c.Cells = append(c.Cells, Cell{
		Experiment: experiment,
		Labels:     labels,
		Runs:       agg.Runs(),
		Metrics:    agg.Snapshot(),
	})
}

// TraceDir spools per-run observability traces into a directory, one
// `<prefix>-run-NNNN.jsonl` file per scenario executed through runConfigs.
type TraceDir struct {
	// Dir receives the trace files; it must already exist.
	Dir string
	// Prefix namespaces the files (typically the experiment ID); empty
	// yields plain run-NNNN.jsonl names.
	Prefix string
	// Sample is the kernel gauge sampling interval forwarded to the bus
	// (obs.Bus.Sample); 0 disables gauge samples.
	Sample sim.Duration
	n      int
	err    error
}

// write serializes one run's events to the next numbered file. The first
// error latches and suppresses further writes.
func (t *TraceDir) write(events []obs.Event) {
	if t.err != nil {
		return
	}
	name := fmt.Sprintf("run-%04d.jsonl", t.n)
	if t.Prefix != "" {
		name = t.Prefix + "-" + name
	}
	t.n++
	f, err := os.Create(filepath.Join(t.Dir, name))
	if err != nil {
		t.err = err
		return
	}
	err = obs.WriteJSONL(f, events)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	t.err = err
}

// Files reports how many trace files were written.
func (t *TraceDir) Files() int { return t.n }

// Err returns the first write error, if any.
func (t *TraceDir) Err() error { return t.err }

func (o Opts) seeds(def int) int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	if o.Quick {
		return 1
	}
	return def
}

// pick returns quick when Quick is set, else full.
func pick[T any](o Opts, full, quick T) T {
	if o.Quick {
		return quick
	}
	return full
}

// forEach fans the experiment's n independent jobs out on the worker pool
// and returns the results in submission order. Every job must derive all of
// its randomness from its index (its own seed/world); nothing may be shared.
func forEach[T any](o Opts, n int, job func(i int) T) []T {
	return runner.Map(o.Workers, n, job)
}

// runConfigs executes scenario configs on the worker pool, in cfgs order.
// When Opts.Metrics is set, every run's metrics fold into the aggregate in
// cfgs order before the results are returned.
func runConfigs(o Opts, cfgs []scenario.Config) []scenario.Result {
	var caps []*obs.Capture
	if o.Trace != nil {
		caps = make([]*obs.Capture, len(cfgs))
		for i := range cfgs {
			caps[i] = &obs.Capture{}
			bus := obs.NewBus(caps[i])
			bus.Sample = o.Trace.Sample
			cfgs[i].Obs = bus
		}
	}
	results := scenario.RunMany(o.Workers, cfgs)
	if o.Metrics != nil {
		for i := range results {
			o.Metrics.Absorb(results[i].Metrics)
		}
	}
	for _, c := range caps {
		o.Trace.write(c.Events)
	}
	return results
}

// Experiment is one entry of the suite.
type Experiment struct {
	ID    string
	Title string
	Run   func(Opts) []*trace.Table
}

// All returns the full suite in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Fig. 2 — hop counts: single sink vs multiple gateways", E1HopReduction},
		{"E2", "Table 1 — MLR incremental routing tables across rounds", E2Table1},
		{"E3", "Scalability — hops and latency vs network size", E3Scalability},
		{"E4", "Lifetime — energy balance across protocols", E4Lifetime},
		{"E5", "Gateway number model — lifetime vs k and Kmax", E5GatewayNumber},
		{"E6", "Robustness — delivery under node failures", E6Robustness},
		{"E7", "Single point of failure — sink/gateway loss", E7SinkFailure},
		{"E8", "Load balance — hotspot traffic across gateways", E8LoadBalance},
		{"E9", "Attack matrix — MLR vs SecMLR under 8 attacks", E9AttackMatrix},
		{"E10", "Security overhead — SecMLR vs MLR cost", E10SecurityOverhead},
		{"E11", "Topology control — sleep scheduling and power control", E11TopologyControl},
		{"E12", "SPR convergence — optimality and control overhead", E12SPRConvergence},
		{"E13", "Reliability — recovery under injected faults", E13Reliability},
		{"E14", "Link ARQ — delivery ratio vs per-link loss", E14LinkARQ},
		{"E15", "Adversarial campaigns — resilience under compromised nodes", E15Adversarial},
	}
}
