// Package protocol is the pluggable routing-protocol registry. Each
// protocol — the paper's SPR/MLR/SecMLR core and every flat baseline —
// registers a named Builder: a factory that instantiates its sensor and
// gateway node.Stack pairs into a prepared world, plus a capability set
// describing what the protocol supports (multiple gateways, round-based
// gateway mobility, security, cached-route shortcut answers).
//
// The scenario layer composes runs by registry lookup, so adding a protocol
// means registering a Builder — typically from an init function in its own
// package, or from a test — and never touching scenario or experiments
// code. The built-in protocols register themselves in builtin.go.
package protocol

import (
	"fmt"
	"sort"
	"sync"

	"wmsn/internal/baseline"
	"wmsn/internal/core"
	"wmsn/internal/geom"
	"wmsn/internal/metrics"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// ID names a registered protocol.
type ID string

// Built-in protocols.
const (
	SPR      ID = "spr"      // §5.2, multi-gateway shortest path
	MLR      ID = "mlr"      // §5.3, lifetime-maximizing rounds
	SecMLR   ID = "secmlr"   // §6.2, secured MLR
	Flooding ID = "flooding" // flat baseline
	Direct   ID = "direct"   // single-hop baseline
	MCFA     ID = "mcfa"     // cost-field baseline
	LEACH    ID = "leach"    // cluster baseline
	PEGASIS  ID = "pegasis"  // chain baseline
)

// Capabilities describes what a protocol supports; the scenario layer uses
// them to prepare the environment (e.g. mobility protocols get twice as
// many feasible places as gateways by default).
type Capabilities struct {
	// MultiGateway: the protocol uses every configured gateway; protocols
	// without it sink everything at the first gateway.
	MultiGateway bool
	// MobilityRounds: gateways migrate between feasible places on a round
	// schedule (MLR §5.3).
	MobilityRounds bool
	// Security: cryptographic protections (MACs, replay guards, µTESLA).
	Security bool
	// ShortcutAnswers: nodes with cached routes answer other nodes' RREQs
	// (SPR/MLR step 3.1, Property 1).
	ShortcutAnswers bool
}

// Originator is any sensor stack that can produce a reading.
type Originator interface {
	OriginateData(payload []byte)
}

// Env is the prepared environment a Builder instantiates a protocol into:
// the world with its media, the shared metrics sink, deployed sensor
// positions and the gateway/place geometry. Builders add stacks to
// Env.World and report through Env.Metrics.
type Env struct {
	World   *node.World
	Metrics metrics.Sink
	// Params are the core protocol parameters (with the scenario's
	// NoShortcutAnswers ablation already applied).
	Params core.Params

	// SensorIDs and SensorPos are parallel: sensor i's ID and position.
	SensorIDs []packet.NodeID
	SensorPos []geom.Point
	// GatewayIDs lists the configured gateway IDs; protocols without the
	// MultiGateway capability typically install only GatewayIDs[0].
	GatewayIDs []packet.NodeID
	// Places are the feasible gateway places (static protocols use the
	// first len(GatewayIDs) as fixed positions).
	Places []geom.Point

	// Schedule is the caller-provided round schedule (nil derives one).
	Schedule [][]int
	// Rounds bounds a derived rotation schedule.
	Rounds   int
	RoundLen sim.Duration

	ReportInterval sim.Duration
	LEACHProb      float64

	SensorRange float64
	Side        float64

	// Wrap decorates a sensor stack at creation (insider-attack hook);
	// it is the identity when no wrapper is configured.
	Wrap func(id packet.NodeID, st node.Stack) node.Stack
}

// Instance is what a Builder hands back: the origination handles per sensor
// and whichever round drivers the protocol started.
type Instance struct {
	Originators   map[packet.NodeID]Originator
	Rounds        *core.Rounds
	LEACHRounds   *baseline.LEACHRounds
	PegasisRounds *baseline.PegasisRounds
}

// Builder creates one protocol's stacks into a prepared environment.
type Builder struct {
	ID   ID
	Caps Capabilities
	// Build instantiates the protocol. A non-nil error aborts the scenario
	// (e.g. no feasible round schedule exists for the configuration).
	Build func(env *Env) (*Instance, error)
}

var (
	mu       sync.RWMutex
	registry = map[ID]Builder{}
)

// Register adds a Builder to the registry. It panics on an empty ID, a nil
// Build function, or a duplicate registration — all programmer errors.
func Register(b Builder) {
	if b.ID == "" {
		panic("protocol: Register with empty ID")
	}
	if b.Build == nil {
		panic(fmt.Sprintf("protocol: Register(%q) with nil Build", b.ID))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[b.ID]; dup {
		panic(fmt.Sprintf("protocol: Register(%q) called twice", b.ID))
	}
	registry[b.ID] = b
}

// Lookup returns the Builder registered under id.
func Lookup(id ID) (Builder, bool) {
	mu.RLock()
	defer mu.RUnlock()
	b, ok := registry[id]
	return b, ok
}

// IDs lists every registered protocol in sorted order.
func IDs() []ID {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]ID, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
