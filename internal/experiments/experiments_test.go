package experiments

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wmsn/internal/network"
	"wmsn/internal/packet"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

func quickOpts() Opts { return Opts{Quick: true, Seeds: 1} }

// mustRun runs experiment fn with o and fails the test on error.
func mustRun(t testing.TB, fn func(Opts) ([]*trace.Table, error), o Opts) []*trace.Table {
	t.Helper()
	tables, err := fn(o)
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables := mustRun(t, e.Run, quickOpts())
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tbl := range tables {
				out := tbl.String()
				if len(out) < 40 {
					t.Fatalf("%s table suspiciously empty:\n%s", e.ID, out)
				}
			}
		})
	}
}

func TestFig2TopologyMatchesPaperExactly(t *testing.T) {
	pos, named, gws := fig2Topology()
	ranges := make(map[packet.NodeID]float64, len(pos))
	for id := range pos {
		ranges[id] = 12
	}
	g := network.Build(pos, ranges)
	sink := named["sink"]
	wantSink := map[string]int{"S1": 2, "S2": 7, "S3": 6, "S4": 9}
	wantGW := map[string]int{"S1": 1, "S2": 1, "S3": 1, "S4": 2}
	for name, want := range wantSink {
		if got := g.Hops(named[name], sink); got != want {
			t.Errorf("%s to sink: %d hops, paper says %d", name, got, want)
		}
	}
	for name, want := range wantGW {
		if _, got := g.NearestOf(named[name], gws); got != want {
			t.Errorf("%s to nearest gateway: %d hops, paper says %d", name, got, want)
		}
	}
}

func TestE1TablesShowReduction(t *testing.T) {
	tables := mustRun(t, E1HopReduction, quickOpts())
	if len(tables) != 2 {
		t.Fatalf("E1 returned %d tables", len(tables))
	}
	out := tables[0].String()
	// The exact table must contain the paper's hop counts.
	for _, v := range []string{"S1", "S4", "9", "7"} {
		if !strings.Contains(out, v) {
			t.Errorf("E1a missing %q:\n%s", v, out)
		}
	}
}

func TestE2TablesGrow(t *testing.T) {
	tables := mustRun(t, E2Table1, quickOpts())
	if len(tables) != 3 {
		t.Fatalf("E2 returned %d tables, want 3 rounds", len(tables))
	}
	// Row counts grow 3 -> 4 -> 5 (plus header/separator/note lines).
	counts := make([]int, 3)
	for i, tbl := range tables {
		counts[i] = strings.Count(tbl.String(), "\n")
	}
	if !(counts[0] < counts[1] && counts[1] < counts[2]) {
		t.Fatalf("E2 tables do not grow: line counts %v", counts)
	}
	// The third table must include all five places and a starred selection.
	out := tables[2].String()
	for _, p := range []string{"A", "B", "C", "D", "E"} {
		if !strings.Contains(out, "\n  "+p) {
			t.Errorf("round-3 table missing place %s:\n%s", p, out)
		}
	}
	if !strings.Contains(out, "*") {
		t.Errorf("no selected route starred:\n%s", out)
	}
}

func TestE5KmaxNoteEmitted(t *testing.T) {
	tables := mustRun(t, E5GatewayNumber, quickOpts())
	out := tables[0].String()
	if !strings.Contains(out, "Kmax") {
		t.Fatalf("E5 missing Kmax note:\n%s", out)
	}
}

func TestE9MatrixHasAllCells(t *testing.T) {
	tables := mustRun(t, E9AttackMatrix, quickOpts())
	out := tables[0].String()
	for _, atk := range []string{"none", "replay", "sinkhole", "selective", "hello-flood", "sybil", "wormhole", "ack-spoofing"} {
		if !strings.Contains(out, atk) {
			t.Errorf("matrix missing attack %q", atk)
		}
	}
	if got := strings.Count(out, "secmlr"); got != 8 {
		t.Errorf("matrix has %d secmlr rows, want 8:\n%s", got, out)
	}
}

// Parallel execution must be invisible in the output: running the same
// experiment with 1 worker and with 8 workers has to render byte-identical
// tables, because results are merged by submission index. E1 covers the
// placement-evaluation fan-out, E9 the full attack-matrix of scenario runs,
// E15 the mid-run compromise campaigns (whose adversaries must draw only
// from their private per-node RNG streams for this to hold).
// This test doubles as the runner's race-coverage entry point under
// `go test -race` (the Makefile `race` target).
func TestParallelOutputByteIdentical(t *testing.T) {
	render := func(tables []*trace.Table) string {
		var sb strings.Builder
		for _, tbl := range tables {
			sb.WriteString(tbl.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	for _, id := range []string{"E1", "E9", "E15"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var exp Experiment
			for _, e := range All() {
				if e.ID == id {
					exp = e
				}
			}
			seq := render(mustRun(t, exp.Run, Opts{Quick: true, Seeds: 1, Workers: 1}))
			par := render(mustRun(t, exp.Run, Opts{Quick: true, Seeds: 1, Workers: 8}))
			if seq != par {
				t.Fatalf("%s output differs between workers=1 and workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					id, seq, par)
			}
		})
	}
}

// A failing run comes back from runConfigs as an error, not a panic, and
// it is the lowest-index failure at any worker count.
func TestRunConfigsReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfgs := make([]scenario.Config, 5)
		for i := range cfgs {
			cfgs[i] = scenario.Config{Seed: int64(i), NumSensors: 20, RunFor: 10 * sim.Second}
		}
		cfgs[1].NumSensors = -1
		cfgs[3].NumSensors = -3
		results, err := runConfigs(Opts{Workers: workers}, cfgs)
		if err == nil || !strings.Contains(err.Error(), "NumSensors -1 ") {
			t.Fatalf("workers=%d: runConfigs returned %v, want config 1's error", workers, err)
		}
		if results != nil {
			t.Fatalf("workers=%d: runConfigs returned %d results with its error", workers, len(results))
		}
	}
}

// forEach returns the lowest-index job's error at any worker count.
func TestForEachReturnsLowestIndexError(t *testing.T) {
	errs := []error{nil, errors.New("job 1"), nil, errors.New("job 3"), nil}
	for _, workers := range []int{1, 4} {
		out, err := forEach(Opts{Workers: workers}, len(errs), func(i int) (int, error) { return i, errs[i] })
		if !errors.Is(err, errs[1]) {
			t.Fatalf("workers=%d: forEach returned %v, want job 1's error", workers, err)
		}
		if out != nil {
			t.Fatalf("workers=%d: forEach returned %v with its error", workers, out)
		}
	}
}

func TestExperimentIDsUniqueAndOrdered(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if len(seen) != 15 {
		t.Fatalf("suite has %d experiments, want 15", len(seen))
	}
}

// TestE15SecMLRHoldsDelivery pins E15's headline claim numerically: at
// every nonzero attacker fraction and for every attack family, SecMLR's
// delivery ratio is at least MLR's and SPR's. The quick table rows are
// parsed back out of the rendered output so the assertion covers exactly
// what EXPERIMENTS.md shows.
func TestE15SecMLRHoldsDelivery(t *testing.T) {
	out := mustRun(t, E15Adversarial, quickOpts())[0].String()
	type row struct {
		attack   string
		delivery float64
	}
	byProto := map[string][]row{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 10 || f[1] == "0%" {
			continue // header, separator, note, or the unattacked baseline
		}
		var d float64
		if _, err := fmt.Sscanf(f[3], "%g", &d); err != nil {
			continue
		}
		byProto[f[2]] = append(byProto[f[2]], row{f[0] + "/" + f[1], d})
	}
	sec := byProto["secmlr"]
	if len(sec) == 0 {
		t.Fatalf("no attacked secmlr rows parsed from:\n%s", out)
	}
	for _, proto := range []string{"mlr", "spr"} {
		rows := byProto[proto]
		if len(rows) != len(sec) {
			t.Fatalf("%d %s rows vs %d secmlr rows", len(rows), proto, len(sec))
		}
		for i, r := range rows {
			if sec[i].attack != r.attack {
				t.Fatalf("row %d mismatch: secmlr %q vs %s %q", i, sec[i].attack, proto, r.attack)
			}
			if sec[i].delivery < r.delivery-1e-9 {
				t.Errorf("%s: secmlr delivery %.4f below %s %.4f", r.attack, sec[i].delivery, proto, r.delivery)
			}
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_quick.txt from current output")

// TestGoldenOutputQuick pins the exact text of every experiment's quick
// output against a committed golden file, so any refactor that perturbs
// run ordering, RNG consumption, or table formatting is caught at test
// time rather than by eyeballing wmsnbench diffs. Regenerate deliberately
// with: go test ./internal/experiments -run GoldenOutput -update
func TestGoldenOutputQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is a full quick suite")
	}
	var buf strings.Builder
	for _, e := range All() {
		fmt.Fprintf(&buf, "==== %s: %s ====\n", e.ID, e.Title)
		for _, tbl := range mustRun(t, e.Run, Opts{Quick: true}) {
			buf.WriteString(tbl.String())
			buf.WriteByte('\n')
		}
	}
	got := buf.String()
	const golden = "testdata/golden_quick.txt"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("quick output diverged from %s (run with -update to accept):\ngot %d bytes, want %d bytes",
			golden, len(got), len(want))
	}
}

// TestTraceSpoolByteIdenticalAcrossWorkers pins the tracing determinism
// contract end-to-end: the same experiment, traced at workers=1 and
// workers=8, must spool byte-identical JSONL files (captures are written in
// submission order, and each run's event stream is a pure function of its
// config).
func TestTraceSpoolByteIdenticalAcrossWorkers(t *testing.T) {
	spool := func(workers int) map[string]string {
		dir := t.TempDir()
		tr := &TraceDir{Dir: dir, Prefix: "e13", Sample: sim.Second}
		mustRun(t, E13Reliability, Opts{Quick: true, Seeds: 1, Workers: workers, Trace: tr})
		if err := tr.Err(); err != nil {
			t.Fatal(err)
		}
		if tr.Files() == 0 {
			t.Fatal("no trace files spooled")
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, e := range entries {
			buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(buf)
		}
		return out
	}
	seq, par := spool(1), spool(8)
	if len(seq) != len(par) {
		t.Fatalf("file counts differ: %d vs %d", len(seq), len(par))
	}
	for name, body := range seq {
		if par[name] != body {
			t.Fatalf("trace %s differs between workers=1 and workers=8", name)
		}
	}
	// The traces must actually contain the fault story E13 injects.
	joined := ""
	for _, body := range seq {
		joined += body
	}
	for _, kind := range []string{"gateway_death", "reroute", "packet_delivered"} {
		if !strings.Contains(joined, kind) {
			t.Fatalf("spooled traces never mention %q", kind)
		}
	}
}
