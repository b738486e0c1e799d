package metrics

import (
	"fmt"

	"wmsn/internal/sim"
)

// Snapshot is the JSON-serializable summary of a Memory (or Aggregate):
// headline totals, derived statistics, every non-zero named counter and the
// per-gateway delivery split. Latencies are reported in milliseconds to
// match the text tables. Map keys are strings so encoding/json emits them
// sorted — snapshots of identical runs compare byte-identical.
type Snapshot struct {
	Runs                 int               `json:"runs,omitempty"`
	Generated            uint64            `json:"generated"`
	Delivered            uint64            `json:"delivered"`
	Duplicates           uint64            `json:"duplicates,omitempty"`
	DeliveryRatio        float64           `json:"delivery_ratio"`
	MeanHops             float64           `json:"mean_hops"`
	MeanLatencyMS        float64           `json:"mean_latency_ms"`
	LatencyP50MS         float64           `json:"latency_p50_ms"`
	LatencyP95MS         float64           `json:"latency_p95_ms"`
	LatencyP99MS         float64           `json:"latency_p99_ms"`
	ControlPackets       uint64            `json:"control_packets"`
	GatewayLoadImbalance float64           `json:"gateway_load_imbalance,omitempty"`
	Counters             map[string]uint64 `json:"counters,omitempty"`
	PerGateway           map[string]uint64 `json:"per_gateway,omitempty"`
	// Histograms holds every non-empty named distribution (delivery latency,
	// failover latency, link retries, queue depth) keyed by HistID.Name().
	// Bucket lists are exact state, so byte-equal JSON implies bit-equal
	// histograms — the property the worker determinism tests pin.
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

func ms(d sim.Duration) float64 {
	return float64(d) / float64(sim.Millisecond)
}

// Snapshot derives the exportable summary of everything recorded so far.
func (m *Memory) Snapshot() Snapshot {
	s := Snapshot{
		Generated:            m.Generated,
		Delivered:            m.Delivered,
		Duplicates:           m.Duplicates,
		DeliveryRatio:        m.DeliveryRatio(),
		MeanHops:             m.MeanHops(),
		MeanLatencyMS:        ms(m.MeanLatency()),
		LatencyP50MS:         ms(m.LatencyPercentile(50)),
		LatencyP95MS:         ms(m.LatencyPercentile(95)),
		LatencyP99MS:         ms(m.LatencyPercentile(99)),
		ControlPackets:       m.ControlPackets(),
		GatewayLoadImbalance: m.GatewayLoadImbalance(),
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := *m.counterPtr(c); v != 0 {
			if s.Counters == nil {
				s.Counters = make(map[string]uint64)
			}
			s.Counters[c.String()] = v
		}
	}
	for gw, v := range m.perGateway {
		if s.PerGateway == nil {
			s.PerGateway = make(map[string]uint64, len(m.perGateway))
		}
		s.PerGateway[fmt.Sprintf("n%d", uint32(gw))] = v
	}
	for i := HistID(0); i < numHists; i++ {
		if m.hists[i].Count() == 0 {
			continue
		}
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistSnapshot, int(numHists))
		}
		s.Histograms[i.Name()] = m.hists[i].Snapshot()
	}
	return s
}

// CounterNames lists every defined counter name in declaration order —
// the schema of Snapshot.Counters.
func CounterNames() []string {
	out := make([]string, numCounters)
	copy(out, counterNames[:])
	return out
}

// Aggregate deterministically folds the Memory of many runs. Absorb order is
// the caller's contract: fold in submission order (not completion order) and
// the aggregate is identical regardless of worker count.
type Aggregate struct {
	runs int
	mem  Memory
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate { return &Aggregate{} }

// Absorb merges one run's totals into the aggregate.
func (a *Aggregate) Absorb(m *Memory) {
	if m == nil {
		return
	}
	a.runs++
	a.mem.Merge(m)
}

// Runs returns how many Memory values have been absorbed.
func (a *Aggregate) Runs() int { return a.runs }

// Snapshot summarizes the merged totals, stamped with the run count.
func (a *Aggregate) Snapshot() Snapshot {
	s := a.mem.Snapshot()
	s.Runs = a.runs
	return s
}
