package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/node"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
	"wmsn/internal/wsncrypto"
)

// FuzzParseRReqBlocks drives the SecMLR RREQ block parser with arbitrary
// bytes: no panics, and accepted inputs must round-trip through the
// marshaller.
func FuzzParseRReqBlocks(f *testing.F) {
	f.Add(marshalRReqBlocks([]rreqBlock{{Gateway: 1000, Counter: 7, Cipher: 0xAB,
		MAC: make([]byte, wsncrypto.MACSize)}}))
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{255, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks, ok := parseRReqBlocks(data)
		if !ok {
			return
		}
		for i := range blocks {
			// A MAC is a view into data, capped so that no append reaches
			// the bytes after it.
			if len(blocks[i].MAC) != wsncrypto.MACSize || cap(blocks[i].MAC) != wsncrypto.MACSize {
				t.Fatalf("block %d MAC has len %d cap %d, want both %d", i, len(blocks[i].MAC), cap(blocks[i].MAC), wsncrypto.MACSize)
			}
		}
		re := marshalRReqBlocks(blocks)
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("re-marshal %x is not a prefix of the input %x", re, data)
		}
		blocks2, ok2 := parseRReqBlocks(re)
		if !ok2 || len(blocks2) != len(blocks) {
			t.Fatalf("re-parse failed: %v vs %v", blocks, blocks2)
		}
		for i := range blocks {
			if blocks[i].Gateway != blocks2[i].Gateway || blocks[i].Counter != blocks2[i].Counter ||
				blocks[i].Cipher != blocks2[i].Cipher || !bytes.Equal(blocks[i].MAC, blocks2[i].MAC) {
				t.Fatalf("block %d mismatch", i)
			}
		}
	})
}

// FuzzParseNotifyPayloads exercises the plain-MLR notify decoders.
func FuzzParseNotifyPayloads(f *testing.F) {
	f.Add(mlrNotify{NewPlace: 1, PrevPlace: NoPlace, Round: 3}.marshalMoveNotify())
	f.Add(marshalOverloadNotify(2, 5))
	f.Add([]byte{})
	f.Add([]byte{9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 1 && data[0] == mlrNotifyMove {
			if n, ok := parseMLRNotify(data[1:]); ok {
				re := n.marshalMoveNotify()
				if n2, ok2 := parseMLRNotify(re[1:]); !ok2 || n2 != n {
					t.Fatalf("move notify not a fixpoint: %+v vs %+v", n, n2)
				}
			}
		}
		if place, round, ok := parseOverloadNotify(data); ok {
			re := marshalOverloadNotify(place, round)
			p2, r2, ok2 := parseOverloadNotify(re)
			if !ok2 || p2 != place&0xFFFF || r2 != round&0xFFFF {
				t.Fatalf("overload notify not a fixpoint")
			}
		}
		// The generic place-payload parser must tolerate anything.
		parsePlacePayload(data)
		parseResBody(data)
	})
}

// fuzzIDs are the identities a fuzzed frame's addresses and path draw from:
// the six stacks of fuzzWorld, broadcast, and a node nobody knows.
var fuzzIDs = [8]packet.NodeID{1, 2, 3, 1000, 1001, 1002, packet.Broadcast, 77}

// fuzzKeys is the keying material of fuzzWorld's SecMLR sensor (3) and
// gateway (1002); the other sensors are provisioned too, so frames naming
// them as origin reach the MAC check rather than the unknown-key one.
func fuzzKeys() (map[packet.NodeID]*SensorKeys, map[packet.NodeID]*GatewayKeys) {
	return ProvisionKeys([]byte("fuzz"), []packet.NodeID{1, 2, 3}, []packet.NodeID{1002}, 4)
}

// fuzzWorld attaches a sensor and a gateway of each of SPR, MLR and SecMLR
// (sensors 1-3, gateways 1000-1002) in one small world where every node
// hears every other, with link ARQ and liveness adverts on. The placed
// gateways are deployed and every sensor has discovered its routes, so
// frames reach table-driven paths as well as discovery ones.
func fuzzWorld() (*node.World, []node.Stack) {
	p := DefaultParams()
	p.LinkRetries = 2
	p.AdvertInterval = sim.Second
	m := NewMetrics()
	sKeys, gKeys := fuzzKeys()
	stacks := []node.Stack{
		NewSPRSensor(p, m), NewMLRSensor(p, m), NewSecMLRSensor(p, m, sKeys[3]),
		NewSPRGateway(p, m), NewMLRGateway(p, m), NewSecMLRGateway(p, m, gKeys[1002]),
	}
	w := node.NewWorld(node.Config{Seed: 9})
	for i, st := range stacks[:3] {
		w.AddSensor(fuzzIDs[i], geom.Point{X: 10 * float64(i)}, 50, 0, st)
	}
	for i, st := range stacks[3:] {
		w.AddGateway(fuzzIDs[3+i], geom.Point{X: 10 * float64(i), Y: 10}, 50, 500, st)
	}
	stacks[4].(*MLRGateway).SetPlace(0, 0, true)
	stacks[5].(*SecMLRGateway).SetPlace(1, 0, true)
	for _, st := range stacks[:3] {
		st.(interface{ OriginateData([]byte) }).OriginateData([]byte("warm"))
	}
	w.Run(3 * sim.Second)
	return w, stacks
}

// fuzzFrame builds a frame from fuzz inputs: addr packs the From, To,
// Origin and Target choices (3 bits each) from fuzzIDs, each route byte
// picks a path node the same way, and sec, when not empty, is an envelope
// laid out as counter (8 bytes), MAC (wsncrypto.MACSize) and cipher.
func fuzzFrame(kind, ttl, hops uint8, addr uint16, seq uint32, route, payload, sec []byte) *packet.Packet {
	pkt := &packet.Packet{
		Kind: packet.Kind(kind), TTL: ttl, Hops: hops, Seq: seq,
		From: fuzzIDs[addr&7], To: fuzzIDs[addr>>3&7], Origin: fuzzIDs[addr>>6&7], Target: fuzzIDs[addr>>9&7],
		Payload: payload,
	}
	if len(route) > 64 {
		route = route[:64]
	}
	for _, b := range route {
		pkt.Path = append(pkt.Path, fuzzIDs[b&7])
	}
	if len(sec) > 0 {
		var ctr [8]byte
		n := copy(ctr[:], sec)
		sec = sec[n:]
		mac := sec[:min(len(sec), wsncrypto.MACSize)]
		pkt.Sec = &packet.SecEnvelope{Counter: binary.BigEndian.Uint64(ctr[:]), MAC: mac, Cipher: sec[len(mac):]}
	}
	return pkt
}

// fuzzAddr packs fuzzIDs indices for From, To, Origin and Target.
func fuzzAddr(from, to, origin, target int) uint16 {
	return uint16(from | to<<3 | origin<<6 | target<<9)
}

// fuzzSeal lays out a SecMLR envelope sealed under key the way fuzzFrame
// reads it back.
func fuzzSeal(key *wsncrypto.PairKey, ctr uint64, body []byte) []byte {
	cipher := wsncrypto.Encrypt(key.Block, ctr, body)
	out := binary.BigEndian.AppendUint64(nil, ctr)
	out = append(out, wsncrypto.Sum(key.Key, ctr, cipher)...)
	return append(out, cipher...)
}

// FuzzStackInput hands arbitrary frames — any kind, addresses, path, TTL,
// payload and security envelope — to the attached sensor and gateway
// stacks of SPR, MLR and SecMLR, to HandleMessage and, on the sensors, to
// HandleLinkFailure, then runs the world on. No stack may panic, and none
// may modify a frame it is handed: a received frame is shared with every
// other listener.
func FuzzStackInput(f *testing.F) {
	sKeys, _ := fuzzKeys()
	key := sKeys[3].Gateway[1002]
	const (
		s1, s2, s3, g1, g2, g3, bcast, stranger = 0, 1, 2, 3, 4, 5, 6, 7
	)
	rreq, rres, data, notify, ack := uint8(packet.KindRReq), uint8(packet.KindRRes),
		uint8(packet.KindData), uint8(packet.KindNotify), uint8(packet.KindAck)
	// A stranger's route request reaches every sensor's relay logic and the
	// plain gateways' answers; one carrying sensor 3's authentication block
	// passes the SecMLR gateway's MAC and counter checks.
	f.Add(rreq, uint8(8), uint8(0), fuzzAddr(stranger, bcast, stranger, bcast), uint32(50), []byte{stranger}, []byte{}, []byte{}, false)
	block := wsncrypto.Encrypt(key.Block, 90, []byte{reqMarker})
	f.Add(rreq, uint8(8), uint8(1), fuzzAddr(s3, bcast, s3, bcast), uint32(51), []byte{s3},
		marshalRReqBlocks([]rreqBlock{{Gateway: 1002, Counter: 90, Cipher: block[0], MAC: wsncrypto.Sum(key.Key, 90, block)}}), []byte{}, false)
	// Data along each protocol's path: SPR's path-carrying first packet,
	// MLR's place-keyed frame and SecMLR's sealed one, each addressed to its
	// gateway so delivery (and SecMLR's ACK) runs too.
	f.Add(data, uint8(8), uint8(0), fuzzAddr(s1, s2, s1, g1), uint32(60), []byte{s1, s2, g1}, []byte("r"), []byte{}, false)
	f.Add(data, uint8(8), uint8(0), fuzzAddr(s2, g2, s2, g2), uint32(61), []byte{}, placePayload(0, []byte("r")), []byte{}, false)
	f.Add(data, uint8(8), uint8(0), fuzzAddr(s3, g3, s3, g3), uint32(62), []byte{}, placePayload(1, nil),
		fuzzSeal(key, 91, []byte("r")), false)
	// Relay drops: a spent TTL, a place no table knows, a path this node
	// is not on.
	f.Add(data, uint8(1), uint8(5), fuzzAddr(stranger, s2, stranger, g2), uint32(63), []byte{}, placePayload(0, nil), []byte{}, false)
	f.Add(data, uint8(8), uint8(0), fuzzAddr(stranger, s3, stranger, g3), uint32(64), []byte{}, placePayload(9, nil), []byte{}, false)
	f.Add(data, uint8(8), uint8(0), fuzzAddr(g2, s2, g2, s1), uint32(65), []byte{g2, stranger, s1}, []byte("d"), []byte{}, false)
	// A link failure on each sensor's own data toward its gateway.
	f.Add(data, uint8(8), uint8(0), fuzzAddr(s1, g1, s1, g1), uint32(2), []byte{}, placePayload(0, nil), []byte{}, true)
	f.Add(data, uint8(8), uint8(0), fuzzAddr(s3, g3, s3, g3), uint32(2), []byte{}, placePayload(1, nil), []byte{}, true)
	// Responses, movement notices and ACKs.
	f.Add(rres, uint8(8), uint8(0), fuzzAddr(g2, s2, g2, s1), uint32(1), []byte{s1, s2, g2}, placePayload(0, nil), []byte{}, false)
	f.Add(rres, uint8(8), uint8(0), fuzzAddr(g3, s3, g3, s3), uint32(52), []byte{s3, g3}, placePayload(1, nil),
		fuzzSeal(key, 92, resBody(1, 0)), false)
	f.Add(notify, uint8(8), uint8(0), fuzzAddr(g2, bcast, g2, bcast), uint32(40), []byte{},
		mlrNotify{NewPlace: 2, PrevPlace: 0, Round: 1}.marshalMoveNotify(), []byte{}, false)
	f.Add(notify, uint8(8), uint8(0), fuzzAddr(g1, bcast, g1, bcast), uint32(41), []byte{}, marshalAdvert(-1), []byte{}, false)
	f.Add(ack, uint8(8), uint8(0), fuzzAddr(g3, s3, g3, s3), uint32(1), []byte{g3, s3}, []byte{0, 0, 0, 1},
		fuzzSeal(key, 93, []byte{0, 0, 0, 1}), false)
	f.Fuzz(func(t *testing.T, kind, ttl, hops uint8, addr uint16, seq uint32, route, payload, sec []byte, failure bool) {
		w, stacks := fuzzWorld()
		pkt := fuzzFrame(kind, ttl, hops, addr, seq, route, payload, sec)
		want := pkt.Marshal()
		for _, st := range stacks {
			st.HandleMessage(pkt)
			if h, ok := st.(node.LinkFailureHandler); ok && failure {
				h.HandleLinkFailure(pkt)
			}
			if !bytes.Equal(pkt.Marshal(), want) {
				t.Fatalf("%T modified the frame %v", st, pkt)
			}
		}
		w.Run(w.Kernel().Now() + 2*sim.Second)
	})
}
