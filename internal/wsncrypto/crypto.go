// Package wsncrypto implements the symmetric-cryptography substrate SecMLR
// relies on (§6.2): pairwise key pre-distribution between sensor nodes and
// gateways, counter-mode encryption {M}<Kij,C>, message authentication codes
// MAC(Kij, M), replay protection via incremental counters, and µTESLA-style
// hash-chain authenticated broadcast for gateway movement notifications
// (§6.2.3, citing SPINS).
//
// The primitives are HMAC-SHA-256, written here to RFC 2104 over
// crypto/sha256, and AES-128-CTR, whose block cipher comes from crypto/aes
// and whose counter-mode keystream is written here. Neither does set-up per
// call: a MAC is two sha256.Sum256 calls over stack buffers, and a pair's
// AES key schedule is built once, by NewPairKey, when the pair is
// provisioned. The tests check both against crypto/hmac and crypto/cipher.
// The paper's security argument is structural (who holds which key, how
// freshness is established); any sound symmetric primitives exercise the
// same protocol paths, per the substitution notes in DESIGN.md.
package wsncrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"

	"wmsn/internal/packet"
)

// KeySize is the symmetric key length in bytes (AES-128).
const KeySize = 16

// MACSize is the authentication tag length in bytes (HMAC-SHA-256).
const MACSize = 32

// Key is a pairwise symmetric key Kij shared between a sensor node Si and a
// gateway Gj.
type Key [KeySize]byte

// PairKey is a provisioned pairwise key Kij with its AES-128 key schedule.
// The schedule is built once per pair, by NewPairKey, and both ends of the
// pair hold the same *PairKey.
type PairKey struct {
	Key   Key
	Block cipher.Block
}

// NewPairKey builds the AES-128 key schedule of k.
func NewPairKey(k Key) *PairKey {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		panic(err) // impossible: KeySize is a valid AES key length
	}
	return &PairKey{Key: k, Block: block}
}

// DeriveKey derives the pairwise key for (node, gateway) from a network
// master secret: Kij = HMAC(master, "pair" | Si | Gj) truncated to KeySize.
// Pre-distribution means every sensor is loaded with its m gateway keys
// before deployment and gateways are loaded with the keys of all n sensors;
// the master secret itself never exists on any deployed node.
func DeriveKey(master []byte, nodeID, gatewayID packet.NodeID) Key {
	var buf [12]byte
	copy(buf[:4], "pair")
	binary.BigEndian.PutUint32(buf[4:], uint32(nodeID))
	binary.BigEndian.PutUint32(buf[8:], uint32(gatewayID))
	sum := hmacSHA256(master, buf[:], nil)
	return Key(sum[:KeySize])
}

// Encrypt computes {M}<K,C> under block, the key schedule of K: AES-128-CTR
// with the IV C‖0, so keystream block i is block's encryption of the
// big-endian C‖i, as crypto/cipher's CTR mode counts. Counter reuse under
// the same key is a protocol violation the caller (SecMLR) prevents by
// incrementing C on every message.
func Encrypt(block cipher.Block, counter uint64, plaintext []byte) []byte {
	n := len(plaintext)
	// The keystream is built in the output, rounded up to whole blocks: a
	// stack array handed to block.Encrypt, an interface call, would escape.
	out := make([]byte, (n+aes.BlockSize-1)/aes.BlockSize*aes.BlockSize)
	for i := 0; i < len(out); i += aes.BlockSize {
		b := out[i : i+aes.BlockSize]
		binary.BigEndian.PutUint64(b, counter)
		binary.BigEndian.PutUint64(b[8:], uint64(i/aes.BlockSize))
		block.Encrypt(b, b)
	}
	subtle.XORBytes(out, out[:n], plaintext)
	return out[:n:n]
}

// Decrypt inverts Encrypt (CTR mode is an involution).
func Decrypt(block cipher.Block, counter uint64, ciphertext []byte) []byte {
	return Encrypt(block, counter, ciphertext)
}

// Sum computes MAC(K, C | data): HMAC-SHA-256 over the counter and the
// message, exactly the tag format of §6.2.1.
func Sum(k Key, counter uint64, data []byte) []byte {
	tag := mac(k, counter, data)
	return tag[:]
}

// Verify checks tag against MAC(K, C | data) in constant time.
func Verify(k Key, counter uint64, data, tag []byte) bool {
	want := mac(k, counter, data)
	return subtle.ConstantTimeCompare(tag, want[:]) == 1
}

// mac computes MAC(K, C | data) into an array, which stays on the stack.
func mac(k Key, counter uint64, data []byte) [MACSize]byte {
	var c [8]byte
	binary.BigEndian.PutUint64(c[:], counter)
	return hmacSHA256(k[:], c[:], data)
}

// maxStackMsg is the longest message, a counter and 512 bytes of data,
// that hmacSHA256 hashes from a stack buffer. A longer one is copied into
// one heap buffer and hashed by the same code; SecMLR's sealed bodies are
// far shorter.
const maxStackMsg = 8 + 512

// hmacSHA256 computes HMAC-SHA-256(key, head | data) as RFC 2104 defines
// it: H((K ^ opad) | H((K ^ ipad) | head | data)), with a key longer than
// the hash block hashed first. Each H is one sha256.Sum256 over a buffer
// filled here, because a slice handed to hash.Hash's Write, an interface
// call, escapes to the heap.
func hmacSHA256(key, head, data []byte) [sha256.Size]byte {
	if len(key) > sha256.BlockSize {
		h := sha256.Sum256(key)
		key = h[:]
	}
	var stack [sha256.BlockSize + maxStackMsg]byte
	inner := stack[:]
	if n := sha256.BlockSize + len(head) + len(data); n > len(stack) {
		inner = make([]byte, n)
	}
	var outer [sha256.BlockSize + sha256.Size]byte
	for i := 0; i < sha256.BlockSize; i++ {
		inner[i], outer[i] = 0x36, 0x5c
	}
	for i, b := range key {
		inner[i] ^= b
		outer[i] ^= b
	}
	n := copy(inner[sha256.BlockSize:], head)
	n += copy(inner[sha256.BlockSize+n:], data)
	sum := sha256.Sum256(inner[:sha256.BlockSize+n])
	copy(outer[sha256.BlockSize:], sum[:])
	return sha256.Sum256(outer[:])
}

// ReplayGuard tracks the counters accepted from one peer. The paper's
// counters are strictly incremental, so the guard accepts a counter only if
// it exceeds every previously accepted one; anything else is a replay (or a
// reordering indistinguishable from one, which a store-and-forward WSN can
// simply re-query).
type ReplayGuard struct {
	highest  uint64
	accepted bool // distinguishes "never seen" from "counter 0 accepted"
	Replays  uint64
}

// Accept reports whether counter is fresh, recording it when it is.
func (g *ReplayGuard) Accept(counter uint64) bool {
	if !g.accepted || counter > g.highest {
		g.highest = counter
		g.accepted = true
		return true
	}
	g.Replays++
	return false
}

// Highest returns the largest accepted counter and whether any was accepted.
func (g *ReplayGuard) Highest() (uint64, bool) { return g.highest, g.accepted }

// hashKey is one step of the TESLA one-way chain.
func hashKey(k Key) Key {
	h := sha256.Sum256(k[:])
	return Key(h[:KeySize])
}

// TeslaChain is a µTESLA one-way key chain: K[n] is random, K[i] = H(K[i+1]),
// and K[0] is the public commitment. The broadcaster authenticates interval
// i's messages with K[i] and discloses K[i] after the interval ends;
// receivers verify a disclosed key by hashing it back to the newest
// authenticated key they hold.
type TeslaChain struct {
	keys []Key // keys[0] = commitment ... keys[n] = seed end
}

// NewTeslaChain builds a chain of n usable intervals from a seed secret.
func NewTeslaChain(seed []byte, n int) *TeslaChain {
	if n < 1 {
		panic("wsncrypto: tesla chain needs at least one interval")
	}
	keys := make([]Key, n+1)
	last := sha256.Sum256(append([]byte("tesla-seed"), seed...))
	keys[n] = Key(last[:KeySize])
	for i := n - 1; i >= 0; i-- {
		keys[i] = hashKey(keys[i+1])
	}
	return &TeslaChain{keys: keys}
}

// Commitment returns K[0], distributed to every node before deployment.
func (c *TeslaChain) Commitment() []byte { return append([]byte(nil), c.keys[0][:]...) }

// Intervals returns the number of usable broadcast intervals.
func (c *TeslaChain) Intervals() int { return len(c.keys) - 1 }

// KeyAt returns K[i] (1 ≤ i ≤ Intervals). Only the broadcaster holds the
// chain; receivers learn keys through disclosure.
func (c *TeslaChain) KeyAt(i int) []byte {
	k := c.key(i)
	return append([]byte(nil), k[:]...)
}

// key returns K[i], panicking unless 1 ≤ i ≤ Intervals.
func (c *TeslaChain) key(i int) Key {
	if i < 1 || i >= len(c.keys) {
		panic("wsncrypto: tesla interval out of range")
	}
	return c.keys[i]
}

// Authenticate MACs msg under interval i's key.
func (c *TeslaChain) Authenticate(i int, msg []byte) []byte {
	return Sum(c.key(i), uint64(i), msg)
}

// TeslaVerifier is the receiver side: it holds the newest authenticated key
// and accepts a disclosed key only if it hash-chains back to it.
type TeslaVerifier struct {
	key      Key // newest verified key (commitment initially)
	interval int // interval of key (0 = commitment)
}

// NewTeslaVerifier starts from the public commitment K[0], the KeySize
// bytes that Commitment returns.
func NewTeslaVerifier(commitment []byte) *TeslaVerifier {
	v := &TeslaVerifier{}
	copy(v.key[:], commitment)
	return v
}

// AcceptKey verifies that disclosed is K[i] by hashing it i-interval times
// back to the held key. On success the verifier advances; on failure it is
// unchanged. Keys for already-passed intervals are rejected (they could be
// replays of old disclosures), and so is a key that is not KeySize bytes.
func (v *TeslaVerifier) AcceptKey(i int, disclosed []byte) bool {
	steps := i - v.interval
	if steps <= 0 || steps > 1<<16 || len(disclosed) != KeySize {
		return false
	}
	k := Key(disclosed)
	h := k
	for s := 0; s < steps; s++ {
		h = hashKey(h)
	}
	if subtle.ConstantTimeCompare(h[:], v.key[:]) != 1 {
		return false
	}
	v.key, v.interval = k, i
	return true
}

// VerifyMessage checks a buffered message's tag against an already-accepted
// interval key. The caller must only trust messages whose tags arrived
// before the key was disclosed (the simulator's secure stack enforces that
// ordering with its buffering discipline).
func (v *TeslaVerifier) VerifyMessage(i int, msg, tag []byte) bool {
	if i != v.interval {
		return false
	}
	return Verify(v.key, uint64(i), msg, tag)
}

// Interval returns the newest authenticated interval (0 until a disclosure
// is accepted).
func (v *TeslaVerifier) Interval() int { return v.interval }
