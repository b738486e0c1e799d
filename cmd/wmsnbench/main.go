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
	"errors"
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

func main() { os.Exit(run(os.Args[1:])) }

// run is the command with its exit status, so every exit, an error one
// included, passes through its deferred calls and a CPU profile is always
// written out.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("wmsnbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "run the reduced-scale variant of each experiment")
	seeds := fs.Int("seeds", 0, "override the number of seeds per data point (0 = per-experiment default)")
	only := fs.String("only", "", "comma-separated experiment IDs to run (e.g. E1,E9); empty runs all")
	list := fs.Bool("list", false, "list experiments and exit")
	csvOut := fs.Bool("csv", false, "emit CSV instead of aligned text tables")
	workers := fs.Int("workers", 0, "parallel runs per experiment (0 = one per CPU, 1 = sequential); output is identical either way")
	metricsJSON := fs.String("metrics-json", "", "write structured tables and per-experiment aggregated metrics to this file")
	traceDir := fs.String("trace-dir", "", "spool one JSONL event trace per harness run into this directory (see cmd/wmsntrace)")
	traceSample := fs.Float64("trace-sample", 1.0, "gauge sampling interval in seconds for traced runs (0 disables gauge samples)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole suite to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the suite to this file")
	scale := fs.Bool("scale", false, "run a one-off E1-style scale sweep (-n sensors, -workers hop-sweep workers) and exit")
	scaleN := fs.Int("n", 10000, "field size for -scale (number of sensors)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	stopCPUProfile, err := startCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopCPUProfile(); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			code = 1
		}
	}()

	if *scale {
		sopts := experiments.Opts{Quick: *quick, Seeds: *seeds, Workers: *workers}
		fmt.Println(experiments.ScaleSweep(sopts, *scaleN, []int{1, 4, 16}, 901).String())
		fmt.Println(experiments.ScaleTraffic(sopts, *scaleN, 901).String())
		return 0
	}

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "trace-dir: %v\n", err)
			return 1
		}
	}

	suite := experiments.All()
	if *list {
		for _, e := range suite {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return 0
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
					return 1
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
				return 1
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
		return 1
	}
	if *metricsJSON != "" {
		buf, err := json.MarshalIndent(exp, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-json: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*metricsJSON, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-json: %v\n", err)
			return 1
		}
	}
	if err := writeMemProfile(*memProfile); err != nil {
		fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// startCPUProfile begins a CPU profile into path and returns the function
// that ends it and closes the file; an empty path profiles nothing.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeMemProfile writes a heap profile to path after a collection; an
// empty path writes nothing.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
