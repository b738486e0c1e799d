package scenario

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

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
// rounds so gateways move (with and without that fault plan), and LEACH with
// short rounds so stations switch transmission range.
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
	return runs
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
	res, err := RunE(cfg)
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
