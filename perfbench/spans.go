package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// layers are the span names the traced mode records, one per layer boundary
// it times from outside; each gets a <layer>.self_ms metric.
var layers = []string{"runner", "scenario", "sim", "core", "obs", "metrics", "service", "placement", "geom", "node"}

// span is one timed interval at a layer boundary. Op is the op it belongs
// to, or -1 for a span covering a whole round. Excl is time inside the span
// that another measurement accounts for (handler time inside a simulation,
// the in-process run inside a service job): it is taken off the span's self
// time and credited to ExclTo when that is set.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Excl   int64  `json:"excl_ns,omitempty"`
	ExclTo string `json:"excl_to,omitempty"`
}

// tracer keeps a traced run's spans and layer sums in memory until the run
// ends. It is safe for concurrent use by a round's workers.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	sums   map[string]float64
	ops    int
	nextID int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), sums: make(map[string]float64)} }

// newOp allocates the next op id.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops - 1
}

// reserve allocates a span id, for a parent recorded after its children.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records s over [start, end], allocating its id when s.ID is 0, and
// returns the id.
func (t *tracer) add(s span, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.nextID++
		s.ID = t.nextID
	}
	s.Start, s.End = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	t.spans = append(t.spans, s)
	return s.ID
}

// count adds v to a layer sum.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

// addRuntime folds the runtime counters' growth over one traced round in.
func (t *tracer) addRuntime(a, b runtimeSample) {
	t.count("runtime.allocs", float64(b.allocObjects-a.allocObjects))
	t.count("runtime.alloc_bytes", float64(b.allocBytes-a.allocBytes))
	t.count("runtime.gc_cycles", float64(b.gcCycles-a.gcCycles))
	t.count("runtime.gc_cpu_s", b.gcCPU-a.gcCPU)
	t.count("runtime.cpu_s", b.totalCPU-a.totalCPU)
}

// selfTimes sums, per layer, each span's duration minus the part of it its
// child spans cover and minus its excluded time, in nanoseconds.
func (t *tracer) selfTimes() map[string]float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		covered := coverage(s, children[s.ID])
		self[s.Name] += float64(s.End - s.Start - covered - s.Excl)
		if s.ExclTo != "" {
			self[s.ExclTo] += float64(s.Excl)
		}
	}
	return self
}

// coverage is the length of the union of the children's intervals, clipped
// to the parent's.
func coverage(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			total += v[1] - lo
		}
		end = max(end, v[1])
	}
	return total
}

// metrics derives every per-layer metric from the sums and spans. Counts and
// times are per op, runner times per round, ratios are ratios of totals.
// Layers a workload bypasses read 0.
func (t *tracer) metrics() map[string]metric {
	s := t.sums
	ops := float64(max(t.ops, 1))
	rounds := max(s["runner.rounds"], 1)
	per := func(k string) float64 { return s[k] / ops }
	ratio := func(a, b string) float64 {
		if s[b] == 0 {
			return 0
		}
		return s[a] / s[b]
	}
	m := make(map[string]metric)
	for _, k := range []string{"scenario.build_ms", "sim.run_ms", "sim.wave_ms", "core.handler_ms.spr",
		"core.handler_ms.mlr", "core.handler_ms.secmlr", "obs.trace_ms", "service.accept_ms",
		"service.first_result_ms", "service.done_ms", "service.overhead_ms", "metrics.snapshot_ms",
		"placement.eval_ms.m1", "placement.eval_ms.m4", "placement.eval_ms.m16", "geom.deploy_ms",
		"node.attach_ms"} {
		m[k] = metric{per(k), "ms"}
	}
	for _, k := range []string{"sim.events", "sim.queue_peak", "radio.tx", "radio.rx", "core.calls.RREQ",
		"core.calls.RRES", "core.calls.DATA", "core.calls.NOTIFY", "core.calls.ACK", "node.link_tx",
		"node.queue_drops", "fault.reroutes", "fault.failovers", "attack.dropped", "obs.events",
		"service.shed", "service.rejected", "runtime.gc_cycles"} {
		m[k] = metric{per(k), "count"}
	}
	m["sim.ns_per_event"] = metric{1e6 * ratio("sim.run_ms", "sim.events"), "ns"}
	m["radio.rx_per_tx"] = metric{ratio("radio.rx", "radio.tx"), "ratio"}
	m["radio.rx_per_s"] = metric{1e3 * ratio("radio.rx", "sim.run_ms"), "1/s"}
	m["core.ctrl_per_delivered"] = metric{ratio("core.ctrl", "delivered"), "ratio"}
	m["packet.dups_per_delivered"] = metric{ratio("packet.dups", "delivered"), "ratio"}
	m["node.retries_per_link_tx"] = metric{ratio("node.retries", "node.link_tx"), "ratio"}
	m["runner.busy_ratio"] = metric{ratio("runner.busy_ms", "runner.capacity_ms"), "ratio"}
	m["runner.tail_idle_ms"] = metric{s["runner.tail_idle_ms"] / rounds, "ms"}
	m["runner.deliver_wait_ms"] = metric{s["runner.deliver_wait_ms"] / rounds, "ms"}
	m["obs.bytes_per_event"] = metric{ratio("obs.bytes", "obs.events"), "B"}
	m["runtime.gc_cpu_share"] = metric{ratio("runtime.gc_cpu_s", "runtime.cpu_s"), "ratio"}
	m["runtime.alloc_mb"] = metric{per("runtime.alloc_bytes") / (1 << 20), "MB"}
	m["runtime.allocs_per_rx"] = metric{ratio("runtime.allocs", "radio.rx"), "count"}
	self := t.selfTimes()
	for _, l := range layers {
		m[l+".self_ms"] = metric{self[l] / 1e6 / ops, "ms"}
	}
	return m
}

// write saves every span, one JSON object per line, to dir/name.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
