package protocol_test

import (
	"context"
	"strings"
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/protocol"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
)

func TestBuiltinsRegistered(t *testing.T) {
	want := []protocol.ID{
		protocol.Direct, protocol.Flooding, protocol.LEACH, protocol.MCFA,
		protocol.MLR, protocol.PEGASIS, protocol.SecMLR, protocol.SPR,
	}
	ids := protocol.IDs()
	have := map[protocol.ID]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("builtin %q not registered (have %v)", id, ids)
		}
	}
	// IDs is sorted.
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := protocol.Lookup("carrier-pigeon"); ok {
		t.Fatal("Lookup invented a protocol")
	}
}

func TestRegisterRejectsBadBuilders(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty ID", func() {
		protocol.Register(protocol.Builder{Build: func(*protocol.Env) (*protocol.Instance, error) { return nil, nil }})
	})
	mustPanic("nil Build", func() {
		protocol.Register(protocol.Builder{ID: "nil-build"})
	})
	mustPanic("duplicate", func() {
		protocol.Register(protocol.Builder{ID: protocol.SPR,
			Build: func(*protocol.Env) (*protocol.Instance, error) { return nil, nil }})
	})
}

// TestEveryRegisteredProtocolRuns is the registry's liveness gate: every
// protocol that registers a Builder — built-in or third-party — must come
// up in a small scenario and deliver data. A protocol can never be
// registered but un-runnable.
func TestEveryRegisteredProtocolRuns(t *testing.T) {
	ids := protocol.IDs()
	cfgs := make([]scenario.Config, len(ids))
	for i, id := range ids {
		b, _ := protocol.Lookup(id)
		gw := 1
		if b.Caps.MultiGateway {
			gw = 3
		}
		cfgs[i] = scenario.Config{
			Seed: 7, Protocol: id, NumSensors: 40, Side: 120,
			SensorRange: 35, NumGateways: gw, RunFor: 90 * sim.Second,
			RoundLen: 30 * sim.Second, ReportInterval: 15 * sim.Second,
		}
	}
	// Runs fan out on the worker pool and arrive in submission order, so
	// the report below is deterministic. Each subtest reports its own run's
	// error, so RunEach's first error adds nothing.
	_ = scenario.RunEach(context.Background(), 0, cfgs, func(i int, res scenario.Result, err error) {
		t.Run(string(ids[i]), func(t *testing.T) {
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Generated == 0 {
				t.Fatalf("%s generated no traffic", ids[i])
			}
			if res.Metrics.Delivered == 0 {
				t.Fatalf("%s delivered nothing (generated %d)", ids[i], res.Metrics.Generated)
			}
		})
	})
}

// oneHop is the custom protocol of TestCustomProtocolViaRegistry: sensors
// unicast every reading straight to the first gateway.
type oneHopSensor struct {
	dev     *node.Device
	metrics interface {
		RecordGenerated(packet.NodeID, uint32, sim.Time)
	}
	sink packet.NodeID
	seq  uint32
}

func (s *oneHopSensor) Start(dev *node.Device)           { s.dev = dev }
func (s *oneHopSensor) HandleMessage(pkt *packet.Packet) {}

func (s *oneHopSensor) OriginateData(payload []byte) {
	if s.dev == nil || !s.dev.Alive() {
		return
	}
	s.seq++
	s.metrics.RecordGenerated(s.dev.ID(), s.seq, s.dev.Now())
	s.dev.Send(&packet.Packet{
		Kind: packet.KindData, From: s.dev.ID(), To: s.sink,
		Origin: s.dev.ID(), Target: s.sink, Seq: s.seq, TTL: 1,
		Payload: payload,
	})
}

type oneHopSink struct {
	dev     *node.Device
	metrics interface {
		RecordDelivered(packet.NodeID, uint32, packet.NodeID, int, sim.Time)
	}
}

func (g *oneHopSink) Start(dev *node.Device) { g.dev = dev }
func (g *oneHopSink) HandleMessage(pkt *packet.Packet) {
	if pkt.Kind == packet.KindData {
		g.metrics.RecordDelivered(pkt.Origin, pkt.Seq, g.dev.ID(), int(pkt.Hops)+1, g.dev.Now())
	}
}

// TestCustomProtocolViaRegistry pins the acceptance criterion of the
// registry refactor: a protocol defined and registered entirely in a test
// file runs through the unmodified scenario harness.
func TestCustomProtocolViaRegistry(t *testing.T) {
	const custom protocol.ID = "test-one-hop"
	protocol.Register(protocol.Builder{
		ID:   custom,
		Caps: protocol.Capabilities{},
		Build: func(env *protocol.Env) (*protocol.Instance, error) {
			inst := &protocol.Instance{Originators: map[packet.NodeID]protocol.Originator{}}
			sink := env.GatewayIDs[0]
			for i, pos := range env.SensorPos {
				id := env.SensorIDs[i]
				st := &oneHopSensor{metrics: env.Metrics, sink: sink}
				inst.Originators[id] = st
				env.World.AddSensor(id, pos, env.SensorRange, 0, env.Wrap(id, st))
			}
			env.World.AddGateway(sink, env.Places[0], env.SensorRange, 500, &oneHopSink{metrics: env.Metrics})
			return inst, nil
		},
	})
	res, err := scenario.RunContext(context.Background(), scenario.Config{
		Seed: 3, Protocol: custom, NumSensors: 25, Side: 60,
		SensorRange: 100, NumGateways: 1, RunFor: 60 * sim.Second,
		ReportInterval: 10 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Generated == 0 || res.Metrics.Delivered == 0 {
		t.Fatalf("custom protocol did not run: generated=%d delivered=%d",
			res.Metrics.Generated, res.Metrics.Delivered)
	}
	if res.Metrics.DeliveryRatio() < 0.99 {
		t.Fatalf("one-hop delivery ratio %v with everyone in range", res.Metrics.DeliveryRatio())
	}
}

func TestBuilderErrorSurfacesAsScenarioError(t *testing.T) {
	// 3 gateways over 2 places: no rotation schedule exists.
	_, err := scenario.BuildE(scenario.Config{Seed: 1, Protocol: protocol.MLR,
		NumSensors: 10, NumGateways: 3, Places: []geom.Point{{X: 1, Y: 1}, {X: 5, Y: 5}}})
	if err == nil || !strings.Contains(err.Error(), "cannot build schedule") {
		t.Fatalf("BuildE returned %v, want a cannot-build-schedule error", err)
	}
}
