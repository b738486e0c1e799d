package scenario

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"wmsn/internal/attack"
	"wmsn/internal/core"
	"wmsn/internal/fault"
	"wmsn/internal/obs"
	"wmsn/internal/protocol"
	"wmsn/internal/sim"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/digest.txt from current behaviour")

const digestFile = "testdata/digest.txt"

// digestRun is one named configuration of the behaviour digest matrix.
type digestRun struct {
	name string
	cfg  Config
}

// digestMatrix lists the runs the digest pins: every registered protocol on
// the lossy, link-ARQ, gateway-kill and churn workload, MLR with short
// rounds so gateways move (with and without that fault plan), LEACH with
// short rounds so stations switch transmission range, every protocol on the
// same field clean and at 20% loss with link ARQ, and every attack kind at
// a 10% compromise on SPR, MLR and SecMLR. The rest reach routing paths
// none of those set: MLR and SecMLR gateways moving on a clean field, link
// ARQ with liveness adverts off (E14's setting), the Property-1 ablation,
// MLR load shedding, and jittered floods on a lossy colliding medium.
func digestMatrix() []digestRun {
	var runs []digestRun
	for _, seed := range []int64{5, 6} {
		for _, p := range protocol.IDs() {
			runs = append(runs, digestRun{fmt.Sprintf("chaos/%s/seed%d", p, seed), arqChaosConfig(seed, p)})
		}
		mobile := arqChaosConfig(seed, MLR)
		mobile.RoundLen = 20 * sim.Second
		runs = append(runs, digestRun{fmt.Sprintf("rounds-faults/%s/seed%d", MLR, seed), mobile})
		mobile = arqChaosConfig(seed, MLR)
		mobile.RoundLen = 20 * sim.Second
		mobile.Faults = nil
		runs = append(runs, digestRun{fmt.Sprintf("rounds/%s/seed%d", MLR, seed), mobile})
		leach := arqChaosConfig(seed, LEACH)
		leach.RoundLen = 20 * sim.Second
		leach.Faults = nil
		runs = append(runs, digestRun{fmt.Sprintf("rounds/%s/seed%d", LEACH, seed), leach})
	}
	for _, seed := range []int64{5, 6} {
		for _, p := range protocol.IDs() {
			runs = append(runs, digestRun{fmt.Sprintf("clean/%s/seed%d", p, seed), digestCleanConfig(seed, p)})
			lossy := arqChaosConfig(seed, p)
			lossy.LossRate = 0.2
			lossy.Faults = nil
			runs = append(runs, digestRun{fmt.Sprintf("lossy-arq/%s/seed%d", p, seed), lossy})
		}
	}
	for _, name := range attack.KindNames() {
		kind, _ := attack.ParseKind(name)
		for _, p := range []Protocol{SPR, MLR, SecMLR} {
			cfg := digestCleanConfig(5, p)
			cfg.Faults = fault.NewPlan().CompromiseFractionAt(20*sim.Second, 0.1, attack.Spec{Kind: kind}, 5)
			runs = append(runs, digestRun{fmt.Sprintf("attack/%s/%s/seed5", name, p), cfg})
		}
	}
	for _, seed := range []int64{5, 6} {
		for _, p := range []Protocol{MLR, SecMLR} {
			cfg := digestCleanConfig(seed, p)
			cfg.RoundLen = 20 * sim.Second
			runs = append(runs, digestRun{fmt.Sprintf("rounds-clean/%s/seed%d", p, seed), cfg})
		}
		// SecMLR ignores AdvertInterval: its run here would repeat
		// lossy-arq/secmlr exactly.
		for _, p := range []Protocol{SPR, MLR} {
			cfg := digestCleanConfig(seed, p)
			cfg.LossRate = 0.2
			cfg.Params = digestParams(func(p *core.Params) {
				p.LinkRetries = 4
				p.ForwardQueueLimit = 32
			})
			runs = append(runs, digestRun{fmt.Sprintf("lossy-arq-noadvert/%s/seed%d", p, seed), cfg})
		}
	}
	for _, p := range []Protocol{SPR, MLR} {
		cfg := digestCleanConfig(5, p)
		cfg.NoShortcutAnswers = true
		runs = append(runs, digestRun{fmt.Sprintf("no-shortcut/%s/seed5", p), cfg})
	}
	overload := digestCleanConfig(5, MLR)
	overload.Params = digestParams(func(p *core.Params) { p.OverloadThreshold = 10 })
	runs = append(runs, digestRun{fmt.Sprintf("overload/%s/seed5", MLR), overload})
	for _, p := range []Protocol{SPR, MLR, SecMLR} {
		cfg := digestCleanConfig(5, p)
		cfg.LossRate = 0.1
		cfg.Collisions = true
		cfg.Params = digestParams(func(p *core.Params) { p.FloodJitter = 20 * sim.Millisecond })
		runs = append(runs, digestRun{fmt.Sprintf("jitter/%s/seed5", p), cfg})
	}
	return runs
}

// digestParams returns the default protocol parameters with set applied.
func digestParams(set func(*core.Params)) *core.Params {
	p := core.DefaultParams()
	set(&p)
	return &p
}

// digestCleanConfig is arqChaosConfig's field with no loss, no fault plan
// and default protocol parameters (so no link ARQ).
func digestCleanConfig(seed int64, p Protocol) Config {
	cfg := arqChaosConfig(seed, p)
	cfg.LossRate = 0
	cfg.Faults = nil
	cfg.Params = nil
	return cfg
}

// digestParts are the hashed outputs of one run, in line order.
var digestParts = []string{"metrics", "radio", "deaths", "trace"}

// digestLine runs cfg with a JSONL trace and returns its digest line: the
// run name followed by a short hash of each part in digestParts.
func digestLine(t *testing.T, r digestRun) string {
	t.Helper()
	trace := sha256.New()
	sink := obs.NewJSONL(trace)
	bus := obs.NewBus(sink)
	bus.Sample = 5 * sim.Second
	cfg := r.cfg
	cfg.Obs = bus
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("%s: trace: %v", r.name, err)
	}
	snap, err := json.Marshal(res.Metrics.Snapshot())
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	short := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }
	sum := func(b []byte) string {
		h := sha256.New()
		h.Write(b)
		return short(h)
	}
	return fmt.Sprintf("%s metrics=%s radio=%s deaths=%s trace=%s", r.name,
		sum(snap),
		sum([]byte(fmt.Sprintf("%+v", res.Radio))),
		sum([]byte(fmt.Sprintf("first=%d alive=%d", res.FirstDeath, res.SensorsAlive))),
		short(trace))
}

// TestBehaviourDigest pins the observable behaviour of a fixed run matrix
// far more tightly than the rounded golden tables: every line hashes a
// run's metrics snapshot, radio counters, death summary and full event
// trace. Any change to a line is a behaviour change. Regenerate deliberately
// with: go test ./internal/scenario -run BehaviourDigest -update
func TestBehaviourDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("digest runs the full matrix")
	}
	var got []string
	for _, r := range digestMatrix() {
		got = append(got, digestLine(t, r))
	}
	if *updateDigest {
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigest(t)
	for _, line := range got {
		name := strings.Fields(line)[0]
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no line in %s; regenerate with -update", name, digestFile)
			continue
		}
		delete(want, name)
		if line != w {
			t.Errorf("%s: behaviour changed (%s differ)\n got: %s\nwant: %s",
				name, strings.Join(differingParts(line, w), ", "), line, w)
		}
	}
	for name := range want {
		t.Errorf("%s: in %s but no longer run", name, digestFile)
	}
}

// readDigest loads the committed digest file keyed by run name.
func readDigest(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			want[strings.Fields(line)[0]] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// differingParts names the parts whose hashes differ between two lines.
func differingParts(a, b string) []string {
	fa, fb := strings.Fields(a), strings.Fields(b)
	var out []string
	for i, part := range digestParts {
		if i+1 >= len(fa) || i+1 >= len(fb) || fa[i+1] != fb[i+1] {
			out = append(out, part)
		}
	}
	return out
}
