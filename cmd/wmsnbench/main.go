// Command wmsnbench regenerates every reproduced table and figure of the
// paper (the E1..E15 suite indexed in DESIGN.md) and prints them as text
// tables. Run with -quick for a fast smoke pass, or -only E4,E5 to select
// specific experiments. Independent runs within each experiment execute on
// a worker pool (-workers, default one per CPU); the output is byte-identical
// to a sequential run. With -metrics-json the structured tables plus each
// experiment's aggregated end-to-end metrics snapshot are also written to a
// file, leaving stdout untouched. An experiment that fails prints
// "wmsnbench: <ID>: <error>" on stderr; the remaining experiments still
// run, and the command exits with status 1 at the end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"wmsn/internal/experiments"
	"wmsn/internal/metrics"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

// experimentExport is one experiment's entry in the -metrics-json file.
type experimentExport struct {
	Title  string            `json:"title"`
	Tables []trace.TableData `json:"tables"`
	// Metrics aggregates every scenario the experiment executed through the
	// shared harness path; runs an experiment drives by hand on a built
	// network (E6, E7, E12) are not in it, and E1 and E2 run no scenario.
	Metrics metrics.Snapshot `json:"metrics"`
	// Cells holds the experiment's labeled per-sweep-point aggregates
	// (E13/E14/E15): each cell's snapshot carries the failover-latency and
	// link-retry histograms with p50/p95/p99, keyed by the sweep coordinates
	// (attack, fraction, protocol, loss, ...).
	Cells []experiments.Cell `json:"cells,omitempty"`
}

type export struct {
	Quick       bool                        `json:"quick"`
	Seeds       int                         `json:"seeds,omitempty"`
	Workers     int                         `json:"workers,omitempty"`
	Experiments map[string]experimentExport `json:"experiments"`
}

func main() {
	quick := flag.Bool("quick", false, "run the reduced-scale variant of each experiment")
	seeds := flag.Int("seeds", 0, "override the number of seeds per data point (0 = per-experiment default)")
	only := flag.String("only", "", "comma-separated experiment IDs to run (e.g. E1,E9); empty runs all")
	list := flag.Bool("list", false, "list experiments and exit")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned text tables")
	workers := flag.Int("workers", 0, "parallel runs per experiment (0 = one per CPU, 1 = sequential); output is identical either way")
	metricsJSON := flag.String("metrics-json", "", "write structured tables and per-experiment aggregated metrics to this file")
	traceDir := flag.String("trace-dir", "", "spool one JSONL event trace per harness run into this directory (see cmd/wmsntrace)")
	traceSample := flag.Float64("trace-sample", 1.0, "gauge sampling interval in seconds for traced runs (0 disables gauge samples)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole suite to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the suite to this file")
	scale := flag.Bool("scale", false, "run a one-off E1-style scale sweep (-n sensors, -workers hop-sweep workers) and exit")
	scaleN := flag.Int("n", 10000, "field size for -scale (number of sensors)")
	flag.Parse()

	if *scale {
		if err := startCPUProfile(*cpuProfile); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		sopts := experiments.Opts{Quick: *quick, Seeds: *seeds, Workers: *workers}
		fmt.Println(experiments.ScaleSweep(sopts, *scaleN, []int{1, 4, 16}, 901).String())
		fmt.Println(experiments.ScaleTraffic(sopts, *scaleN, 901).String())
		pprof.StopCPUProfile()
		return
	}

	if err := startCPUProfile(*cpuProfile); err != nil {
		fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
		os.Exit(1)
	}
	if *cpuProfile != "" {
		defer pprof.StopCPUProfile()
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "trace-dir: %v\n", err)
			os.Exit(1)
		}
	}

	suite := experiments.All()
	if *list {
		for _, e := range suite {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	opts := experiments.Opts{Quick: *quick, Seeds: *seeds, Workers: *workers}
	exp := export{Quick: *quick, Seeds: *seeds, Workers: *workers,
		Experiments: map[string]experimentExport{}}
	ran, failed := 0, false
	for _, e := range suite {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		ran++
		var agg *metrics.Aggregate
		var cells *experiments.CellSink
		if *metricsJSON != "" {
			agg = metrics.NewAggregate()
			opts.Metrics = agg
			cells = &experiments.CellSink{}
			opts.Cells = cells
		}
		if *traceDir != "" {
			opts.Trace = &experiments.TraceDir{
				Dir:    *traceDir,
				Prefix: strings.ToLower(e.ID),
				Sample: sim.Duration(*traceSample * float64(sim.Second)),
			}
		}
		start := time.Now()
		fmt.Printf("==== %s: %s ====\n", e.ID, e.Title)
		tables, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wmsnbench: %s: %v\n", e.ID, err)
			failed = true
			continue
		}
		for _, tbl := range tables {
			if *csvOut {
				if err := tbl.RenderCSV(os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "csv: %v\n", err)
					os.Exit(1)
				}
				fmt.Println()
			} else {
				fmt.Println(tbl.String())
			}
		}
		fmt.Printf("(%s completed in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		if t := opts.Trace; t != nil {
			if err := t.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "trace-dir: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "%s: %d trace file(s) in %s\n", e.ID, t.Files(), *traceDir)
		}
		if agg != nil {
			ee := experimentExport{Title: e.Title, Metrics: agg.Snapshot(), Cells: cells.Cells}
			for _, tbl := range tables {
				ee.Tables = append(ee.Tables, tbl.Data())
			}
			exp.Experiments[e.ID] = ee
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiments matched %q\n", *only)
		os.Exit(1)
	}
	if *metricsJSON != "" {
		buf, err := json.MarshalIndent(exp, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*metricsJSON, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-json: %v\n", err)
			os.Exit(1)
		}
	}
	writeMemProfile(*memProfile)
	if failed {
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}

// startCPUProfile begins a CPU profile into path; an empty path is a no-op.
func startCPUProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return pprof.StartCPUProfile(f)
}

func writeMemProfile(path string) {
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
}
