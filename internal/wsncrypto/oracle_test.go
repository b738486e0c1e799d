package wsncrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"wmsn/internal/packet"
)

// FuzzCryptoMatchesStdlib checks the primitives against the standard
// library: Sum and Verify against crypto/hmac, DeriveKey against
// crypto/hmac, and Encrypt and Decrypt against crypto/cipher's CTR mode
// with the counter in the IV's high half. A MAC or keystream computed
// wrongly, but the same way at both ends, leaves every protocol metric,
// trace and digest line unchanged, so only this comparison catches it.
//
// Each input checks the prefixes of data with the 17 lengths that end at
// len(data), capped at 2,000 bytes: every length modulo the AES block, and
// one block boundary crossed. The seeds place those windows at the start, around the 512-byte
// stack limit of the MAC, and at 2,000 bytes, with counters 0 and near
// 2^64-1 and masters of 0 to 200 bytes (HMAC hashes keys over 64 first).
func FuzzCryptoMatchesStdlib(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for _, s := range []struct {
		counter    uint64
		n, masterN int // data and master lengths
		node, gwID uint32
		keyN       int // random key bytes; the rest of the key is zero
		keyFF      int // leading key bytes then set to 0xFF
	}{
		{0, 0, 0, 0, 0, 0, 0},
		{1, 16, 1, 1, 100, KeySize, 0},
		{math.MaxUint64, 33, 63, 7, 1001, KeySize, 0},
		{math.MaxUint64 - 1, 64, 64, 2, 1000, 5, 0},
		{1 << 63, 80, 65, 3, 1002, KeySize, KeySize},
		{42, 520, 128, math.MaxUint32, 1, KeySize, 0},
		{7, 528, 200, 12, 1003, KeySize, 0},
		{math.MaxUint64, 536, 31, 9, 9, KeySize, 0},
		{1 << 32, 1000, 100, 4, 1004, KeySize, 0},
		{3, 2000, 150, 5, 1005, KeySize, 0},
	} {
		key := random(s.keyN)
		for j := range key[:s.keyFF] {
			key[j] = 0xFF
		}
		f.Add(key, s.counter, random(s.n), random(s.masterN), s.node, s.gwID)
	}
	f.Fuzz(func(t *testing.T, keyBytes []byte, counter uint64, data, master []byte, node, gw uint32) {
		var k Key
		copy(k[:], keyBytes)
		pair := NewPairKey(k)
		if len(data) > 2000 {
			data = data[:2000]
		}
		for n := max(0, len(data)-16); n <= len(data); n++ {
			msg := data[:n]
			orig := bytes.Clone(msg)

			oracle := hmac.New(sha256.New, k[:])
			oracle.Write(binary.BigEndian.AppendUint64(nil, counter))
			oracle.Write(msg)
			want := oracle.Sum(nil)
			if got := Sum(k, counter, msg); !bytes.Equal(got, want) {
				t.Fatalf("Sum(%d bytes, counter %d) = %x, crypto/hmac %x", n, counter, got, want)
			}
			if !Verify(k, counter, msg, want) {
				t.Fatalf("Verify rejects crypto/hmac's tag over %d bytes", n)
			}
			bad := bytes.Clone(want)
			bad[n%MACSize] ^= 1 << (n % 8)
			if Verify(k, counter, msg, bad) || Verify(k, counter, msg, want[:MACSize-1]) {
				t.Fatalf("Verify accepts a changed or short tag over %d bytes", n)
			}

			block, err := aes.NewCipher(k[:])
			if err != nil {
				t.Fatal(err)
			}
			var iv [aes.BlockSize]byte
			binary.BigEndian.PutUint64(iv[:8], counter)
			wantCT := make([]byte, n)
			cipher.NewCTR(block, iv[:]).XORKeyStream(wantCT, msg)
			ct := Encrypt(pair.Block, counter, msg)
			if !bytes.Equal(ct, wantCT) {
				t.Fatalf("Encrypt(%d bytes, counter %d) = %x, crypto/cipher CTR %x", n, counter, ct, wantCT)
			}
			if pt := Decrypt(pair.Block, counter, wantCT); !bytes.Equal(pt, msg) {
				t.Fatalf("Decrypt(%d bytes, counter %d) does not invert crypto/cipher CTR", n, counter)
			}
			if !bytes.Equal(msg, orig) {
				t.Fatalf("Sum, Verify or Encrypt changed its %d-byte input", n)
			}
		}

		oracle := hmac.New(sha256.New, master)
		oracle.Write([]byte("pair"))
		oracle.Write(binary.BigEndian.AppendUint32(nil, node))
		oracle.Write(binary.BigEndian.AppendUint32(nil, gw))
		want := oracle.Sum(nil)[:KeySize]
		if got := DeriveKey(master, packet.NodeID(node), packet.NodeID(gw)); !bytes.Equal(got[:], want) {
			t.Fatalf("DeriveKey(%d-byte master, %d, %d) = %x, crypto/hmac %x", len(master), node, gw, got, want)
		}
	})
}
