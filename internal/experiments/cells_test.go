package experiments

import (
	"encoding/json"
	"testing"

	"wmsn/internal/metrics"
)

// TestE15CellsCarryFailoverPercentiles pins the distributional export the
// mean-only text table cannot show: one labeled cell per (attack × fraction
// × protocol) campaign, each snapshot carrying the failover-latency
// histogram with p50/p95/p99, and cells byte-identical across worker counts.
func TestE15CellsCarryFailoverPercentiles(t *testing.T) {
	cells := func(workers int) *CellSink {
		sink := &CellSink{}
		mustRun(t, E15Adversarial, Opts{Quick: true, Seeds: 1, Workers: workers, Cells: sink})
		return sink
	}
	sink := cells(1)

	// Quick scale: 4 unattacked baselines + 5 attacks × 1 fraction × 4
	// protocols.
	if want := 4 + 5*1*4; len(sink.Cells) != want {
		t.Fatalf("E15 emitted %d cells, want %d", len(sink.Cells), want)
	}
	failoverCells := 0
	for _, c := range sink.Cells {
		if c.Experiment != "E15" || c.Runs != 1 {
			t.Fatalf("bad cell header: %+v", c)
		}
		for _, key := range []string{"attack", "fraction", "protocol"} {
			if _, ok := c.Labels[key]; !ok {
				t.Fatalf("cell missing label %q: %+v", key, c.Labels)
			}
		}
		h, ok := c.Metrics.Histograms[metrics.HistFailoverLatencyUs.Name()]
		if !ok {
			continue
		}
		failoverCells++
		if h.Count == 0 || h.P50 > h.P95 || h.P95 > h.P99 || h.P99 > h.Max {
			t.Errorf("cell %v: degenerate failover percentiles %+v", c.Labels, h)
		}
	}
	if failoverCells == 0 {
		t.Fatal("no E15 cell carries a failover-latency histogram")
	}

	// Worker count must be invisible: same cells, byte for byte.
	a, _ := json.Marshal(sink.Cells)
	b, _ := json.Marshal(cells(8).Cells)
	if string(a) != string(b) {
		t.Fatal("E15 cells differ between workers=1 and workers=8")
	}
}

// TestE13E14CellsLabeled checks the other two swept experiments export their
// grids: E13's scenario×protocol cells and E14's variant×loss cells, the
// latter carrying link-retry and queue-depth histograms for ARQ variants.
func TestE13E14CellsLabeled(t *testing.T) {
	sink := &CellSink{}
	mustRun(t, E13Reliability, Opts{Quick: true, Seeds: 1, Cells: sink})
	if want := 4 + 2; len(sink.Cells) != want { // gateway_kill variants + churn variants
		t.Fatalf("E13 emitted %d cells, want %d", len(sink.Cells), want)
	}
	scenarios := map[string]bool{}
	for _, c := range sink.Cells {
		scenarios[c.Labels["scenario"]] = true
	}
	if !scenarios["gateway_kill"] || !scenarios["churn"] {
		t.Fatalf("E13 cell scenarios = %v", scenarios)
	}

	sink = &CellSink{}
	mustRun(t, E14LinkARQ, Opts{Quick: true, Seeds: 1, Cells: sink})
	if want := 4 * 2; len(sink.Cells) != want { // variants × quick losses
		t.Fatalf("E14 emitted %d cells, want %d", len(sink.Cells), want)
	}
	retryCells := 0
	for _, c := range sink.Cells {
		if _, ok := c.Labels["loss"]; !ok {
			t.Fatalf("E14 cell missing loss label: %+v", c.Labels)
		}
		if h, ok := c.Metrics.Histograms[metrics.HistLinkRetries.Name()]; ok && h.Count > 0 {
			retryCells++
		}
	}
	if retryCells == 0 {
		t.Fatal("no E14 cell carries a link-retry histogram (ARQ variants should)")
	}
}

// A nil sink must be inert — experiments call add unconditionally.
func TestNilCellSink(t *testing.T) {
	var sink *CellSink
	sink.add("EX", map[string]string{"k": "v"}) // must not panic
}
