// Package packet defines the wire formats exchanged in the WMSN simulator:
// neighbor HELLOs, the SPR/MLR routing query (RREQ) and response (RRES),
// data packets carrying the Fig. 6 routing information (source, destination,
// immediate sender, immediate receiver), gateway movement notifications, and
// acknowledgments.
//
// Packets are plain Go structs inside the simulator, but every packet has a
// faithful binary encoding (encoding/binary, big-endian) so that sizes used
// for energy and latency accounting correspond to real bytes on the air, and
// so the formats of the paper's Figs. 4-6 are concrete and round-trippable.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// NodeID identifies a node (sensor, gateway, mesh router or base station).
type NodeID uint32

// Broadcast is the link-layer "all neighbors" address.
const Broadcast NodeID = 0xFFFFFFFF

// None marks an absent node reference (e.g. the immediate sender of a packet
// still at its origin).
const None NodeID = 0xFFFFFFFE

// String renders the ID, with the two reserved values named.
func (id NodeID) String() string {
	switch id {
	case Broadcast:
		return "BCAST"
	case None:
		return "-"
	default:
		return fmt.Sprintf("n%d", uint32(id))
	}
}

// Kind discriminates packet types.
type Kind uint8

// Packet kinds. REQ/RES/DATA are the paper's packet types (§6.2, Figs. 4-6);
// the rest are the supporting control traffic any running network needs.
const (
	KindInvalid Kind = iota
	KindHello        // neighbor discovery beacon
	KindRReq         // routing query, flooded toward the m gateways
	KindRRes         // routing response, unicast back along the path
	KindData         // sensed data
	KindNotify       // gateway movement notification (MLR round start)
	KindAck          // end-to-end acknowledgment (SecMLR)
	KindMeshLSA      // mesh-backbone link-state advertisement
	KindLinkAck      // hop-by-hop link-layer acknowledgment (ARQ)
	kindMax
)

var kindNames = [...]string{"INVALID", "HELLO", "RREQ", "RRES", "DATA", "NOTIFY", "ACK", "MESH-LSA", "LINK-ACK"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is a defined packet kind.
func (k Kind) Valid() bool { return k > KindInvalid && k < kindMax }

// SecEnvelope carries SecMLR's security fields: the freshness counter C, the
// ciphertext {M}<Kij,C>, and MAC(Kij, C | {M}<Kij,C>) (§6.2.1-§6.2.2).
// A nil envelope means the packet is unprotected (plain SPR/MLR).
type SecEnvelope struct {
	Counter uint64 // incremental counter shared by Si and Gj
	Cipher  []byte // encrypted req/res/data body
	MAC     []byte // 32-byte HMAC-SHA256 tag
}

// Clone returns a deep copy of the envelope.
func (e *SecEnvelope) Clone() *SecEnvelope {
	if e == nil {
		return nil
	}
	c := &SecEnvelope{Counter: e.Counter}
	c.Cipher = append([]byte(nil), e.Cipher...)
	c.MAC = append([]byte(nil), e.MAC...)
	return c
}

// Packet is one frame on the air. A frame is immutable once it is passed
// to the radio (radio.Medium.Transmit, node.Device.Send): the medium hands
// that same *Packet to every listener, so neither its sender nor any
// receiver may modify it or the slices it holds. A forwarder copies the
// header (fwd := *pkt) and replaces, never modifies, the slices it changes.
//
// From/To are link-layer (per-hop) addresses; Origin/Target are end-to-end
// addresses. For DATA packets under SecMLR, From and To double as the
// "immediate sender" (IS) and "immediate receiver" (IR) fields of Fig. 6 and
// are rewritten at every hop, exactly as §6.2.4 describes.
type Packet struct {
	Kind   Kind
	From   NodeID // immediate sender (IS); rewritten per hop
	To     NodeID // immediate receiver (IR); Broadcast for floods/beacons
	Origin NodeID // end-to-end source (the Si that created the packet)
	Target NodeID // end-to-end destination (a gateway Gj, or Broadcast for RREQ)
	Seq    uint32 // origin-scoped sequence number; flood dedup key
	TTL    uint8  // remaining hops; packet dropped at 0
	Hops   uint8  // hops traversed so far

	// Path is the accumulated route for RREQ (pathij(k), Fig. 4b), the
	// selected route for RRES (pathij, Fig. 5), and the source route carried
	// by the first DATA packet of SPR step 5.1.
	Path []NodeID

	Payload []byte       // application bytes (sensed data, notify body, ...)
	Sec     *SecEnvelope // SecMLR protection; nil when unsecured
}

// Clone returns a deep copy that shares no slice with p: a frame that may
// be modified, for instance a captured frame a test tampers with before
// re-injecting it.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Path = append([]NodeID(nil), p.Path...)
	q.Payload = append([]byte(nil), p.Payload...)
	q.Sec = p.Sec.Clone()
	return &q
}

// AppendHop returns the packet's path extended with id, allocating a fresh
// backing array so sibling broadcasts do not alias.
func (p *Packet) AppendHop(id NodeID) []NodeID {
	path := make([]NodeID, 0, len(p.Path)+1)
	path = append(path, p.Path...)
	return append(path, id)
}

// Header sizes, bytes. The fixed header holds kind, addresses, seq, ttl,
// hops and the three length fields.
const (
	headerBytes   = 1 + 4*4 + 4 + 1 + 1 + 2 + 2 + 2 // = 29
	pathEntry     = 4
	secFixedBytes = 8 + 2 + 2 // counter + cipher len + mac len
)

// Size returns the encoded length in bytes; this is what the radio and
// energy models charge for.
func (p *Packet) Size() int {
	n := headerBytes + len(p.Path)*pathEntry + len(p.Payload)
	if p.Sec != nil {
		n += secFixedBytes + len(p.Sec.Cipher) + len(p.Sec.MAC)
	}
	return n
}

// SizeBits returns the encoded length in bits.
func (p *Packet) SizeBits() int { return p.Size() * 8 }

// Marshal encodes the packet.
func (p *Packet) Marshal() []byte {
	buf := make([]byte, 0, p.Size())
	buf = append(buf, byte(p.Kind))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.From))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.To))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Origin))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Target))
	buf = binary.BigEndian.AppendUint32(buf, p.Seq)
	buf = append(buf, p.TTL, p.Hops)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Path)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Payload)))
	secLen := 0
	if p.Sec != nil {
		secLen = 1
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(secLen))
	for _, id := range p.Path {
		buf = binary.BigEndian.AppendUint32(buf, uint32(id))
	}
	buf = append(buf, p.Payload...)
	if p.Sec != nil {
		buf = binary.BigEndian.AppendUint64(buf, p.Sec.Counter)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Sec.Cipher)))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Sec.MAC)))
		buf = append(buf, p.Sec.Cipher...)
		buf = append(buf, p.Sec.MAC...)
	}
	return buf
}

// ErrTruncated reports a packet too short for its declared contents.
var ErrTruncated = errors.New("packet: truncated")

// ErrBadKind reports an undefined packet kind byte.
var ErrBadKind = errors.New("packet: invalid kind")

// Unmarshal decodes a packet previously produced by Marshal.
func Unmarshal(buf []byte) (*Packet, error) {
	if len(buf) < headerBytes {
		return nil, ErrTruncated
	}
	p := &Packet{}
	p.Kind = Kind(buf[0])
	if !p.Kind.Valid() {
		return nil, ErrBadKind
	}
	p.From = NodeID(binary.BigEndian.Uint32(buf[1:]))
	p.To = NodeID(binary.BigEndian.Uint32(buf[5:]))
	p.Origin = NodeID(binary.BigEndian.Uint32(buf[9:]))
	p.Target = NodeID(binary.BigEndian.Uint32(buf[13:]))
	p.Seq = binary.BigEndian.Uint32(buf[17:])
	p.TTL = buf[21]
	p.Hops = buf[22]
	nPath := int(binary.BigEndian.Uint16(buf[23:]))
	nPayload := int(binary.BigEndian.Uint16(buf[25:]))
	hasSec := binary.BigEndian.Uint16(buf[27:]) != 0
	off := headerBytes
	if len(buf) < off+nPath*pathEntry+nPayload {
		return nil, ErrTruncated
	}
	if nPath > 0 {
		p.Path = make([]NodeID, nPath)
		for i := range p.Path {
			p.Path[i] = NodeID(binary.BigEndian.Uint32(buf[off+i*pathEntry:]))
		}
		off += nPath * pathEntry
	}
	if nPayload > 0 {
		p.Payload = append([]byte(nil), buf[off:off+nPayload]...)
		off += nPayload
	}
	if hasSec {
		if len(buf) < off+secFixedBytes {
			return nil, ErrTruncated
		}
		sec := &SecEnvelope{}
		sec.Counter = binary.BigEndian.Uint64(buf[off:])
		nc := int(binary.BigEndian.Uint16(buf[off+8:]))
		nm := int(binary.BigEndian.Uint16(buf[off+10:]))
		off += secFixedBytes
		if len(buf) < off+nc+nm {
			return nil, ErrTruncated
		}
		if nc > 0 {
			sec.Cipher = append([]byte(nil), buf[off:off+nc]...)
			off += nc
		}
		if nm > 0 {
			sec.MAC = append([]byte(nil), buf[off:off+nm]...)
			off += nm
		}
		p.Sec = sec
	}
	return p, nil
}

// String renders a compact trace line for debugging and logs.
func (p *Packet) String() string {
	s := fmt.Sprintf("%s %s->%s (e2e %s->%s) seq=%d ttl=%d hops=%d",
		p.Kind, p.From, p.To, p.Origin, p.Target, p.Seq, p.TTL, p.Hops)
	if len(p.Path) > 0 {
		s += fmt.Sprintf(" path=%v", p.Path)
	}
	if p.Sec != nil {
		s += fmt.Sprintf(" sec{C=%d}", p.Sec.Counter)
	}
	return s
}

// PathString renders a route like "n1->n4->n9" for tables and traces.
func PathString(path []NodeID) string {
	if len(path) == 0 {
		return "-"
	}
	s := path[0].String()
	for _, id := range path[1:] {
		s += "->" + id.String()
	}
	return s
}
