package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"wmsn/internal/core"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	return units(doc.EndToEnd), units(doc.PerLayer)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkEmitted fails unless rep emits exactly the declared metrics, with the
// declared units and well-formed names.
func checkEmitted(t *testing.T, rep report, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := rep.Metrics[name]
		if !ok {
			t.Errorf("metric %s declared but not emitted", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s: unit %q, declared %q", name, m.Unit, unit)
		}
	}
	for name := range rep.Metrics {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %v", name, metricName)
		}
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s emitted but not declared", name)
		}
	}
}

// TestTinyWorkloads runs every workload at a tiny size in both modes: every op
// passes its checks, and each mode emits exactly the metrics BENCHMARK.json
// declares for it.
func TestTinyWorkloads(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			c := config{workload: name, seed: 3, window: 100 * time.Millisecond, size: tinySize, spanDir: t.TempDir()}
			for _, mode := range []struct {
				run  func(config, io.Writer) (report, error)
				want map[string]string
			}{{timed, endToEnd}, {traced, perLayer}} {
				rep, err := mode.run(c, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("%d of %d ops failed", rep.Failed, rep.Attempted)
				}
				checkEmitted(t, rep, mode.want)
			}
		})
	}
}

// plainStack wraps a stack without forwarding node.LinkFailureHandler: the
// mistake the traced mode's identity check must catch.
type plainStack struct{ node.Stack }

// TestTracedIdentityARQ pins the traced mode's fidelity on an ARQ-armed SPR
// run at 20% per-link loss: the instrumented run reproduces the plain run
// exactly, while a wrapper that drops HandleLinkFailure changes the outcome,
// so the identity check fails on it.
func TestTracedIdentityARQ(t *testing.T) {
	// One retry, so that at 20% loss frames do exhaust their budget and the
	// ARQ calls HandleLinkFailure.
	arq := core.DefaultParams()
	arq.LinkRetries = 1
	cfg := scenario.Config{Seed: 11, Protocol: scenario.SPR, NumSensors: 60, Side: 150, SensorRange: 40,
		NumGateways: 2, RunFor: 60 * sim.Second, SensorBattery: 1e6, LossRate: 0.2, Params: &arq}
	sig := func(res scenario.Result, err error) string {
		t.Helper()
		if err := checkSim(res, err); err != nil {
			t.Fatal(err)
		}
		s, err := snapSig(res.Metrics.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	plain, err := scenario.RunContext(context.Background(), cfg)
	want := sig(plain, err)
	if plain.Metrics.LinkFailures == 0 {
		t.Fatal("no link failures: the run does not exercise HandleLinkFailure")
	}

	tr := newTracer()
	res, _, err := simRun(cfg, tr, tr.newOp(), 0)
	if got := sig(res, err); got != want {
		t.Error("instrumented run differs from the plain run")
	}
	if tr.sums["core.handler_ms.spr"] == 0 || tr.sums["sim.events"] == 0 {
		t.Errorf("instrumented run recorded nothing: %v", tr.sums)
	}

	broken := cfg
	broken.StackWrapper = func(_ packet.NodeID, st node.Stack) node.Stack { return plainStack{st} }
	res, err = scenario.RunContext(context.Background(), broken)
	if got := sig(res, err); got == want {
		t.Error("a wrapper that drops HandleLinkFailure went unnoticed")
	}
}

// TestInputsFollowSeed: a seed always generates the same inputs in the same
// order, and the seed decides the order in which the measured rounds walk the
// pool. scale-100k has one input, so no order to decide.
func TestInputsFollowSeed(t *testing.T) {
	// inputs returns a workload's pool and the inputs its first rounds run.
	inputs := func(name string, seed int64) (pool any, seq []int) {
		w, err := start(config{workload: name, seed: seed, size: tinySize})
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		for r := 0; r < 12; r++ {
			switch w := w.(type) {
			case *paperSweep:
				pool = w.batches
				seq = append(seq, cycle(w.seed, len(w.batches), r))
			case *e3Field:
				pool = w.inputs
				seq = append(seq, w.order(r))
			case *jobs:
				pool = w.bodies
				for c := 0; c < w.clients; c++ {
					seq = append(seq, w.input(r, c))
				}
			case *scale:
				pool = *w
				seq = append(seq, 0)
			default:
				t.Fatalf("unknown workload type %T", w)
			}
		}
		return pool, seq
	}
	for _, name := range workloadNames {
		pool, seq := inputs(name, 5)
		orders := map[string]bool{}
		for seed := int64(1); seed <= 8; seed++ {
			p, s := inputs(name, seed)
			if !reflect.DeepEqual(p, pool) {
				t.Errorf("%s: seed %d ran another pool", name, seed)
			}
			orders[fmt.Sprint(s)] = true
		}
		if p, s := inputs(name, 5); !reflect.DeepEqual(p, pool) || !reflect.DeepEqual(s, seq) {
			t.Errorf("%s: seed 5 gave different inputs on two calls", name)
		}
		if name != "scale-100k" && len(orders) < 2 {
			t.Errorf("%s: eight seeds all walked the pool in one order", name)
		}
	}
}

// TestSelfTime pins the self-time arithmetic: a span's children and excluded
// time come off its own duration, overlapping children count once, and
// excluded time is credited to the named layer.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "runner", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim", Start: 10, End: 60, Excl: 20, ExclTo: "core"},
		{ID: 3, Parent: 1, Name: "sim", Start: 40, End: 90},
	}, sums: map[string]float64{}}
	got := tr.selfTimes()
	want := map[string]float64{"runner": 20, "sim": 30 + 50, "core": 20}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}
