package wsncrypto

import (
	"bytes"
	"testing"
	"testing/quick"

	"wmsn/internal/packet"
)

var master = []byte("network-master-secret-for-tests")

func TestDeriveKeyDeterministicAndDistinct(t *testing.T) {
	k1 := DeriveKey(master, 1, 100)
	k2 := DeriveKey(master, 1, 100)
	if k1 != k2 {
		t.Fatal("same pair derived different keys")
	}
	if DeriveKey(master, 1, 101) == k1 {
		t.Fatal("different gateway, same key")
	}
	if DeriveKey(master, 2, 100) == k1 {
		t.Fatal("different node, same key")
	}
	if DeriveKey([]byte("other"), 1, 100) == k1 {
		t.Fatal("different master, same key")
	}
	// Pair order matters: K(a,b) != K(b,a).
	if DeriveKey(master, 100, 1) == k1 {
		t.Fatal("swapped pair, same key")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	k := NewPairKey(DeriveKey(master, 1, 100)).Block
	msgs := [][]byte{nil, {}, []byte("x"), []byte("routing query to G1"), bytes.Repeat([]byte{0xAA}, 1000)}
	for _, m := range msgs {
		ct := Encrypt(k, 7, m)
		if len(ct) != len(m) {
			t.Fatalf("ciphertext length %d != plaintext %d", len(ct), len(m))
		}
		if got := Decrypt(k, 7, ct); !bytes.Equal(got, m) {
			t.Fatalf("round trip failed for %d bytes", len(m))
		}
	}
}

func TestEncryptDependsOnCounterAndKey(t *testing.T) {
	k := NewPairKey(DeriveKey(master, 1, 100)).Block
	m := []byte("same plaintext")
	if bytes.Equal(Encrypt(k, 1, m), Encrypt(k, 2, m)) {
		t.Fatal("different counters produced identical ciphertext")
	}
	k2 := NewPairKey(DeriveKey(master, 2, 100)).Block
	if bytes.Equal(Encrypt(k, 1, m), Encrypt(k2, 1, m)) {
		t.Fatal("different keys produced identical ciphertext")
	}
	// Wrong counter fails to decrypt.
	if bytes.Equal(Decrypt(k, 9, Encrypt(k, 1, m)), m) {
		t.Fatal("wrong counter decrypted successfully")
	}
}

func TestMACVerify(t *testing.T) {
	k := DeriveKey(master, 1, 100)
	data := []byte("req|path")
	tag := Sum(k, 5, data)
	if len(tag) != MACSize {
		t.Fatalf("tag size %d, want %d", len(tag), MACSize)
	}
	if !Verify(k, 5, data, tag) {
		t.Fatal("valid tag rejected")
	}
	if Verify(k, 6, data, tag) {
		t.Fatal("wrong counter accepted")
	}
	if Verify(k, 5, []byte("req|path2"), tag) {
		t.Fatal("modified data accepted")
	}
	if Verify(DeriveKey(master, 2, 100), 5, data, tag) {
		t.Fatal("wrong key accepted")
	}
}

func TestMACRejectsBitFlips(t *testing.T) {
	k := DeriveKey(master, 3, 100)
	data := []byte("the quick brown sensor")
	tag := Sum(k, 1, data)
	for i := 0; i < len(tag); i++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), tag...)
			flipped[i] ^= 1 << bit
			if Verify(k, 1, data, flipped) {
				t.Fatalf("flipped tag byte %d bit %d accepted", i, bit)
			}
		}
	}
}

func TestReplayGuard(t *testing.T) {
	var g ReplayGuard
	if _, any := g.Highest(); any {
		t.Fatal("fresh guard claims an accepted counter")
	}
	if !g.Accept(0) {
		t.Fatal("first counter 0 rejected")
	}
	if g.Accept(0) {
		t.Fatal("replayed counter 0 accepted")
	}
	if !g.Accept(5) {
		t.Fatal("larger counter rejected")
	}
	if g.Accept(3) {
		t.Fatal("stale counter accepted")
	}
	if g.Accept(5) {
		t.Fatal("replay of current counter accepted")
	}
	if !g.Accept(6) {
		t.Fatal("next counter rejected")
	}
	if g.Replays != 3 {
		t.Fatalf("replay count = %d, want 3", g.Replays)
	}
	if h, any := g.Highest(); !any || h != 6 {
		t.Fatalf("Highest = %d/%v", h, any)
	}
}

func TestQuickReplayGuardMonotonic(t *testing.T) {
	f := func(counters []uint16) bool {
		var g ReplayGuard
		var accepted []uint64
		for _, c := range counters {
			if g.Accept(uint64(c)) {
				accepted = append(accepted, uint64(c))
			}
		}
		for i := 1; i < len(accepted); i++ {
			if accepted[i] <= accepted[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTeslaChainBasics(t *testing.T) {
	c := NewTeslaChain([]byte("gw-seed"), 10)
	if c.Intervals() != 10 {
		t.Fatalf("Intervals = %d", c.Intervals())
	}
	// Chain property: H(K[i+1]) == K[i].
	for i := 1; i < 10; i++ {
		if hashKey(Key(c.KeyAt(i+1))) != Key(c.KeyAt(i)) {
			t.Fatalf("chain broken at %d", i)
		}
	}
	if hashKey(Key(c.KeyAt(1))) != Key(c.Commitment()) {
		t.Fatal("K[1] does not hash to commitment")
	}
}

func TestTeslaChainPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewTeslaChain([]byte("s"), 0) },
		func() { NewTeslaChain([]byte("s"), 3).KeyAt(0) },
		func() { NewTeslaChain([]byte("s"), 3).KeyAt(4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTeslaVerifyFlow(t *testing.T) {
	chain := NewTeslaChain([]byte("gw-7"), 20)
	v := NewTeslaVerifier(chain.Commitment())

	msg := []byte("gateway G7 moved to place D")
	tag := chain.Authenticate(3, msg)

	// Before disclosure nothing verifies.
	if v.VerifyMessage(3, msg, tag) {
		t.Fatal("message verified before key disclosure")
	}
	// Disclose K[3]; verifier hashes 3 steps back to commitment.
	if !v.AcceptKey(3, chain.KeyAt(3)) {
		t.Fatal("genuine key rejected")
	}
	if v.Interval() != 3 {
		t.Fatalf("interval = %d", v.Interval())
	}
	if !v.VerifyMessage(3, msg, tag) {
		t.Fatal("authentic message rejected after disclosure")
	}
	if v.VerifyMessage(3, []byte("forged"), tag) {
		t.Fatal("forged message accepted")
	}
}

func TestTeslaRejectsForgedAndStaleKeys(t *testing.T) {
	chain := NewTeslaChain([]byte("gw-7"), 20)
	v := NewTeslaVerifier(chain.Commitment())

	forged := bytes.Repeat([]byte{0x42}, KeySize)
	if v.AcceptKey(1, forged) {
		t.Fatal("forged key accepted")
	}
	if !v.AcceptKey(5, chain.KeyAt(5)) {
		t.Fatal("skip-ahead disclosure rejected (should chain through)")
	}
	// Replaying an older interval's key must fail.
	if v.AcceptKey(3, chain.KeyAt(3)) {
		t.Fatal("stale key accepted")
	}
	if v.AcceptKey(5, chain.KeyAt(5)) {
		t.Fatal("same-interval re-disclosure accepted")
	}
	// A key from a different chain fails even at the right interval.
	other := NewTeslaChain([]byte("attacker"), 20)
	if v.AcceptKey(6, other.KeyAt(6)) {
		t.Fatal("cross-chain key accepted")
	}
	// A key of any length but KeySize is refused, not padded or cut.
	if v.AcceptKey(6, append(chain.KeyAt(6), 0)) || v.AcceptKey(6, chain.KeyAt(6)[:KeySize-1]) || v.AcceptKey(6, nil) {
		t.Fatal("key of the wrong length accepted")
	}
	// And the real next key still works afterwards.
	if !v.AcceptKey(6, chain.KeyAt(6)) {
		t.Fatal("genuine key rejected after failed forgeries")
	}
}

func TestTeslaVerifyMessageWrongInterval(t *testing.T) {
	chain := NewTeslaChain([]byte("x"), 5)
	v := NewTeslaVerifier(chain.Commitment())
	v.AcceptKey(2, chain.KeyAt(2))
	msg := []byte("m")
	tag := chain.Authenticate(2, msg)
	if v.VerifyMessage(1, msg, tag) {
		t.Fatal("verified against non-current interval")
	}
}

// Property: encrypt/decrypt round-trips for arbitrary keys, counters, data.
func TestQuickEncryptRoundTrip(t *testing.T) {
	f := func(node, gw uint32, counter uint64, data []byte) bool {
		k := NewPairKey(DeriveKey(master, packet.NodeID(node), packet.NodeID(gw))).Block
		return bytes.Equal(Decrypt(k, counter, Encrypt(k, counter, data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MAC verification accepts exactly the genuine (counter, data).
func TestQuickMACSoundness(t *testing.T) {
	f := func(counter uint64, data []byte, tweak uint8) bool {
		k := DeriveKey(master, 9, 200)
		tag := Sum(k, counter, data)
		if !Verify(k, counter, data, tag) {
			return false
		}
		// Tamper with data (when non-empty) and ensure rejection.
		if len(data) > 0 {
			bad := append([]byte(nil), data...)
			bad[int(tweak)%len(bad)] ^= 0xFF
			if Verify(k, counter, bad, tag) {
				return false
			}
		}
		return !Verify(k, counter+1, data, tag)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncrypt64B(b *testing.B) {
	k := NewPairKey(DeriveKey(master, 1, 100)).Block
	data := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encrypt(k, uint64(i), data)
	}
}

func BenchmarkMAC64B(b *testing.B) {
	k := DeriveKey(master, 1, 100)
	data := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum(k, uint64(i), data)
	}
}
