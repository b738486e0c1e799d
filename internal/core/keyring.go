package core

import (
	"wmsn/internal/metrics"
	"wmsn/internal/packet"
	"wmsn/internal/wsncrypto"
)

// Key provisioning for SecMLR (§6.2): "let each sensor node be
// pre-distributed secret keys, each shared with a gateway". Before
// deployment a trusted party derives the pairwise keys Kij from a master
// secret and loads each sensor with its m gateway keys plus each gateway's
// µTESLA commitment; each gateway is loaded with the keys of all n sensors
// and its own µTESLA chain. The master secret never exists in the field.

// SensorKeys is the keying material installed on one sensor node.
type SensorKeys struct {
	// Gateway maps each gateway ID to the pairwise key Kij.
	Gateway map[packet.NodeID]wsncrypto.Key
	// TeslaCommit maps each gateway ID to its µTESLA chain commitment K[0].
	TeslaCommit map[packet.NodeID][]byte
}

// GatewayKeys is the keying material installed on one gateway.
type GatewayKeys struct {
	// Sensor maps each sensor ID to the pairwise key Kij.
	Sensor map[packet.NodeID]wsncrypto.Key
	// Tesla is this gateway's broadcast-authentication chain.
	Tesla *wsncrypto.TeslaChain

	revoked map[packet.NodeID]bool
}

// Revoke blacklists a captured sensor: the gateway thereafter treats its
// traffic as forged ("attackers can capture a sensor and acquire all the
// information stored within it", §6.1 — once detected, the only remedy is
// revoking the node's keys at the gateways).
func (g *GatewayKeys) Revoke(sensor packet.NodeID) {
	if g.revoked == nil {
		g.revoked = make(map[packet.NodeID]bool)
	}
	g.revoked[sensor] = true
}

// Revoked reports whether a sensor's keys have been revoked.
func (g *GatewayKeys) Revoked(sensor packet.NodeID) bool { return g.revoked[sensor] }

// Lookup returns the pairwise key for sensor, honoring revocation.
func (g *GatewayKeys) Lookup(sensor packet.NodeID) (wsncrypto.Key, bool) {
	if g.revoked[sensor] {
		return wsncrypto.Key{}, false
	}
	k, ok := g.Sensor[sensor]
	return k, ok
}

// ProvisionKeys derives all keying material for a deployment. teslaIntervals
// bounds the number of MLR rounds the gateways can authenticate broadcasts
// for (one interval per round).
func ProvisionKeys(master []byte, sensorIDs, gatewayIDs []packet.NodeID, teslaIntervals int) (map[packet.NodeID]*SensorKeys, map[packet.NodeID]*GatewayKeys) {
	gateways := make(map[packet.NodeID]*GatewayKeys, len(gatewayIDs))
	for _, g := range gatewayIDs {
		seed := wsncrypto.DeriveKey(master, g, g)
		gateways[g] = &GatewayKeys{
			Sensor: make(map[packet.NodeID]wsncrypto.Key, len(sensorIDs)),
			Tesla:  wsncrypto.NewTeslaChain(seed[:], teslaIntervals),
		}
	}
	sensors := make(map[packet.NodeID]*SensorKeys, len(sensorIDs))
	for _, s := range sensorIDs {
		sk := &SensorKeys{
			Gateway:     make(map[packet.NodeID]wsncrypto.Key, len(gatewayIDs)),
			TeslaCommit: make(map[packet.NodeID][]byte, len(gatewayIDs)),
		}
		for _, g := range gatewayIDs {
			k := wsncrypto.DeriveKey(master, s, g)
			sk.Gateway[g] = k
			sk.TeslaCommit[g] = gateways[g].Tesla.Commitment()
			gateways[g].Sensor[s] = k
		}
		sensors[s] = sk
	}
	return sensors, gateways
}

// pairwise is one end's state on its pairwise-key channels (§6.2): the
// outgoing freshness counter and the incoming replay guard per peer.
type pairwise struct {
	txCtr  map[packet.NodeID]uint64
	guards map[packet.NodeID]*wsncrypto.ReplayGuard
}

func newPairwise() pairwise {
	return pairwise{
		txCtr:  make(map[packet.NodeID]uint64),
		guards: make(map[packet.NodeID]*wsncrypto.ReplayGuard),
	}
}

// seal protects body for peer under key: the next freshness counter C,
// then {body}<K,C>, then MAC(K, C|cipher).
func (c *pairwise) seal(peer packet.NodeID, key wsncrypto.Key, body []byte) packet.SecEnvelope {
	c.txCtr[peer]++
	ctr := c.txCtr[peer]
	cipher := wsncrypto.Encrypt(key, ctr, body)
	return packet.SecEnvelope{Counter: ctr, Cipher: cipher, MAC: wsncrypto.Sum(key, ctr, cipher)}
}

// open accepts a sealed envelope from peer — MAC first, then the freshness
// counter — and decrypts it. known says whether key is a provisioned key
// for peer. Rejections are counted in m as verify and fresh do.
func (c *pairwise) open(m metrics.Sink, peer packet.NodeID, key wsncrypto.Key, known bool, sec *packet.SecEnvelope) ([]byte, bool) {
	if !c.verify(m, key, known, sec) || !c.fresh(m, peer, sec.Counter) {
		return nil, false
	}
	return wsncrypto.Decrypt(key, sec.Counter, sec.Cipher), true
}

// verify checks sec's MAC under key, counting RejectedMAC when the key is
// unknown, the envelope is missing or the MAC is wrong.
func (c *pairwise) verify(m metrics.Sink, key wsncrypto.Key, known bool, sec *packet.SecEnvelope) bool {
	if known && sec != nil && wsncrypto.Verify(key, sec.Counter, sec.Cipher, sec.MAC) {
		return true
	}
	m.Inc(metrics.RejectedMAC)
	return false
}

// fresh accepts counter from peer unless it was seen before, counting
// RejectedReplay when it was.
func (c *pairwise) fresh(m metrics.Sink, peer packet.NodeID, counter uint64) bool {
	g, ok := c.guards[peer]
	if !ok {
		g = &wsncrypto.ReplayGuard{}
		c.guards[peer] = g
	}
	if g.Accept(counter) {
		return true
	}
	m.Inc(metrics.RejectedReplay)
	return false
}
