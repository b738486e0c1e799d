// Command perfbench is the simulator's benchmark. It runs one named
// workload against the simulator's packages, checks the output of every
// operation (op), and prints its metrics as one JSON object on the last line
// of standard output:
//
//	bash perfbench/run.sh --workload e3-field --seed 7 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off, its times net of the CPU time the hypervisor stole and divided by the
// run's slowdown against a reference kernel (README.md, "Steadiness"). With --trace 1 it runs every op round twice, once plain and
// once with spans recorded around the calls into each layer, and reports
// per-layer self times and counts plus the tracing overhead. README.md
// describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a timed run sets its workload up from scratch;
// setup_s is the median of those set-ups.
const setupReps = 3

// minRounds is the fewest measured op rounds a timed run makes, however long
// they take, so no median rests on fewer than three rounds.
const minRounds = 3

// memRounds is how many measured rounds, from the first, peak_rss_mb is taken
// over. The service keeps every finished job (up to its retention limit of
// 1024), so wmsnd-traced's memory grows by about 1.5 MB a round; over a fixed
// count of rounds it measures the same retained work whatever the host speed.
// The other workloads' rounds take seconds, so a run makes fewer than this.
const memRounds = 16

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration // how long the measured rounds run
	size     size
	spanDir  string // where the traced mode writes its span file
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	c := config{size: fullSize, spanDir: filepath.Join(".bench_build", "spans")}
	var seconds float64
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&c.seed, "seed", 1, "seed that orders the run's inputs")
	flag.Float64Var(&seconds, "seconds", 15, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics; 1 runs the traced mode and reports per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || seconds <= 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	c.window = time.Duration(seconds * float64(time.Second))

	run := timed
	if trace == 1 {
		run = traced
	}
	rep, err := run(c, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// op is one checked operation: a simulation run, a scale pair or a service
// job.
type op struct {
	input    int           // index of the op's input within the run
	dur      time.Duration // the op's latency
	gen, del uint64        // readings generated and delivered
	sig      string        // canonical output, compared across runs of one input
	err      error         // failed check; the op counts as failed
}

// round is a batch of ops run together: a sweep batch, one single-client op,
// or one op per concurrent service client.
type round struct {
	ops  []op
	wall time.Duration
}

// workload is a prepared workload. round(0, nil) is the set-up round; the
// measured rounds follow from 1. With a non-nil tracer a round records spans
// and layer counts, and must produce the same outputs as without.
type workload interface {
	round(r int, tr *tracer) round
	close()
}

// ledger counts ops and checks each input's output against its first run, so
// nondeterminism, state leaking between runs and tracing side effects all
// surface as failed ops.
type ledger struct {
	attempted, failed int
	first             map[int]string
	gen, del          uint64 // over each input's first successful run
	w                 io.Writer
}

func newLedger(w io.Writer) *ledger { return &ledger{first: make(map[int]string), w: w} }

func (l *ledger) add(rd round) {
	for _, o := range rd.ops {
		l.attempted++
		err := o.err
		if err == nil {
			if s, ok := l.first[o.input]; !ok {
				l.first[o.input] = o.sig
				l.gen += o.gen
				l.del += o.del
			} else if s != o.sig {
				err = fmt.Errorf("input %d: output differs from its first run", o.input)
			}
		}
		if err != nil {
			l.failed++
			if l.failed <= 5 {
				fmt.Fprintf(l.w, "failed op: %v\n", err)
			}
		}
	}
}

func (l *ledger) deliveryRatio() float64 {
	if l.gen == 0 {
		return 0
	}
	return float64(l.del) / float64(l.gen)
}

// freshHeap empties the sync.Pool run arenas (two cycles: pool, then victim
// cache) and returns freed memory to the OS, so each set-up pays for arena
// and heap growth as a new process would.
func freshHeap() {
	runtime.GC()
	runtime.GC()
	debug.FreeOSMemory()
}

// timed measures the end-to-end metrics with tracing off. Every interval it
// times is scaled by one minus the share of the CPU time the machine wanted
// that the hypervisor stole during it, and every time is divided by the run's
// slowdown against a fixed reference kernel (README.md, "Steadiness").
func timed(c config, out io.Writer) (report, error) {
	led := newLedger(out)
	var setups, steals, refs []float64
	var w workload
	for k := 0; k < setupReps; k++ {
		if w != nil {
			w.close()
		}
		freshHeap()
		refs = append(refs, hostRef())
		c0 := readCPUClock()
		t0 := time.Now()
		var err error
		if w, err = start(c); err != nil {
			return report{}, err
		}
		led.add(w.round(0, nil))
		d := time.Since(t0).Seconds()
		f := stolen(c0, readCPUClock())
		setups = append(setups, d*(1-f))
		steals = append(steals, f)
	}
	defer w.close()

	// Inputs differ in cost by up to 2x, so a percentile over a mix of them
	// would fall between cost clusters and jump with noise. Latency is
	// therefore summarized per input first, and round wall time and
	// allocations per kind of round (named by its first op's input), before
	// combining.
	lat := make(map[int][]float64)
	kinds := make(map[int]*roundKind)
	var mem, walls []float64
	var lastRef time.Time
	end := time.Now().Add(c.window)
	for r := 1; r <= minRounds || time.Now().Before(end); r++ {
		runtime.GC()
		if time.Since(lastRef) >= refEvery {
			refs = append(refs, hostRef())
			lastRef = time.Now()
		}
		a0 := readRuntime().allocObjects
		var peak *memPeak
		if r <= memRounds {
			peak = watchMemory()
		}
		c0 := readCPUClock()
		rd := w.round(r, nil)
		f := stolen(c0, readCPUClock())
		if peak != nil {
			mem = append(mem, peak.peakMB())
		}
		a1 := readRuntime().allocObjects
		led.add(rd)
		steals = append(steals, f)
		walls = append(walls, rd.wall.Seconds())
		for _, o := range rd.ops {
			lat[o.input] = append(lat[o.input], o.dur.Seconds()*(1-f))
		}
		k := kinds[rd.ops[0].input]
		if k == nil {
			k = &roundKind{ops: len(rd.ops)}
			kinds[rd.ops[0].input] = k
		}
		k.walls = append(k.walls, rd.wall.Seconds()*(1-f))
		k.allocs = append(k.allocs, float64(a1-a0))
	}
	// op_s_p50 is the median of the inputs' median latencies; op_s_p90 scales
	// it by the 90th percentile of every op's latency over its input's median.
	var perInput, relative []float64
	for _, xs := range lat {
		m := median(xs)
		perInput = append(perInput, m)
		for _, x := range xs {
			relative = append(relative, x/m)
		}
	}
	p50 := median(perInput)
	p90 := p50 * nearestRank(relative, 0.9)
	var ops, wall, allocs float64
	for _, k := range kinds {
		ops += float64(k.ops)
		wall += median(k.walls)
		allocs += median(k.allocs)
	}
	slow := median(refs) / refNominalMS
	fmt.Fprintf(out, "%s seed %d: %d measured ops in %d rounds of %.2f s median wall; stolen share median %.3f max %.3f; "+
		"host.ref_ms median %.3f min %.3f max %.3f; net of steal, before the reference division: "+
		"setup_s %.4f op_s_p50 %.4f op_s_p90 %.4f ops_per_s %.4f\n",
		c.workload, c.seed, len(relative), len(walls), median(walls), median(steals), maxOf(steals),
		median(refs), minOf(refs), maxOf(refs), median(setups), p50, p90, ops/wall)
	return report{
		Correct:   led.failed == 0,
		Attempted: led.attempted,
		Failed:    led.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups) / slow, "s"},
			"op_s_p50":       {p50 / slow, "s"},
			"op_s_p90":       {p90 / slow, "s"},
			"ops_per_s":      {ops / wall * slow, "1/s"},
			"peak_rss_mb":    {median(mem), "MB"},
			"allocs_per_op":  {allocs / ops, "count"},
			"delivery_ratio": {led.deliveryRatio(), "ratio"},
		},
	}, nil
}

// roundKind collects the measured rounds that ran the same inputs.
type roundKind struct {
	ops           int
	walls, allocs []float64
}

// traced runs every measured round twice, plain and traced, and reports the
// per-layer metrics of the traced rounds.
func traced(c config, out io.Writer) (report, error) {
	led := newLedger(out)
	w, err := start(c)
	if err != nil {
		return report{}, err
	}
	defer w.close()
	led.add(w.round(0, nil))

	tr := newTracer()
	var refs, overhead []float64
	end := time.Now().Add(c.window)
	for r := 1; r == 1 || time.Now().Before(end); r++ {
		runtime.GC()
		refs = append(refs, hostRef())
		plain := w.round(r, nil)
		led.add(plain)
		runtime.GC()
		rt0 := readRuntime()
		spans := w.round(r, tr)
		tr.addRuntime(rt0, readRuntime())
		led.add(spans)
		for i := range spans.ops {
			overhead = append(overhead, ms(spans.ops[i].dur-plain.ops[i].dur))
		}
	}
	if err := tr.write(c.spanDir, fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: span file not written:", err)
	}
	m := tr.metrics()
	m["host.ref_ms"] = metric{median(refs), "ms"}
	m["trace.overhead_ms"] = metric{median(overhead), "ms"}
	printLayers(out, c, tr, m)
	return report{Correct: led.failed == 0, Attempted: led.attempted, Failed: led.failed, Metrics: m}, nil
}

// printLayers writes the traced run's human-readable summary: self time per
// layer, then every count.
func printLayers(out io.Writer, c config, tr *tracer, m map[string]metric) {
	fmt.Fprintf(out, "%s seed %d traced: %d ops, %d spans\n", c.workload, c.seed, tr.ops, len(tr.spans))
	fmt.Fprintf(out, "  %-12s %12s\n", "layer", "self ms/op")
	for _, l := range layers {
		fmt.Fprintf(out, "  %-12s %12.3f\n", l, m[l+".self_ms"].Value)
	}
	names := make([]string, 0, len(m))
	for name := range m {
		if !strings.HasSuffix(name, ".self_ms") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "  %-30s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
	fmt.Fprintf(out, "  tracing overhead: %.3f ms per op (traced minus untraced)\n", m["trace.overhead_ms"].Value)
}
